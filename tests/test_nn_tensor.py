"""Tests of the autograd tensor: ops, broadcasting, graph mechanics."""

import numpy as np
import pytest

from repro.errors import GradientError, ModelError
from repro.nn.tensor import Tensor, concat, no_grad, stack

from conftest import numeric_gradient


def leaf(data):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


def test_scalar_backward():
    x = leaf([2.0, 3.0])
    y = (x * x).sum()
    y.backward()
    assert np.allclose(x.grad, [4.0, 6.0])


def test_grad_accumulates_across_paths():
    x = leaf([1.0])
    y = x * 2.0 + x * 3.0
    y.sum().backward()
    assert np.allclose(x.grad, [5.0])


def test_backward_requires_scalar_without_grad():
    x = leaf([1.0, 2.0])
    y = x * 2.0
    with pytest.raises(GradientError):
        y.backward()


def test_backward_with_explicit_gradient():
    x = leaf([1.0, 2.0])
    y = x * 3.0
    y.backward(np.array([1.0, 10.0]))
    assert np.allclose(x.grad, [3.0, 30.0])


def test_backward_gradient_shape_checked():
    x = leaf([1.0, 2.0])
    y = x * 3.0
    with pytest.raises(GradientError):
        y.backward(np.ones(3))


def test_backward_on_leaf_without_grad():
    x = Tensor([1.0])
    with pytest.raises(GradientError):
        x.backward()


def test_broadcasting_add_unbroadcasts_grad():
    x = leaf(np.ones((3, 4)))
    b = leaf(np.ones(4))
    (x + b).sum().backward()
    assert x.grad.shape == (3, 4)
    assert np.allclose(b.grad, 3.0)


def test_broadcasting_mul_keepdims_axis():
    x = leaf(np.ones((2, 3)))
    s = leaf(np.ones((2, 1)))
    (x * s).sum().backward()
    assert s.grad.shape == (2, 1)
    assert np.allclose(s.grad, 3.0)


def test_division_gradients():
    a = leaf([4.0])
    b = leaf([2.0])
    (a / b).sum().backward()
    assert np.allclose(a.grad, [0.5])
    assert np.allclose(b.grad, [-1.0])


def test_pow_gradient():
    x = leaf([3.0])
    (x**2).sum().backward()
    assert np.allclose(x.grad, [6.0])
    with pytest.raises(ModelError):
        x ** np.ones(2)


def test_rsub_rdiv():
    x = leaf([2.0])
    (1.0 - x).sum().backward()
    assert np.allclose(x.grad, [-1.0])
    x.zero_grad()
    (1.0 / x).sum().backward()
    assert np.allclose(x.grad, [-0.25])


def test_matmul_gradients_match_numeric():
    rng = np.random.default_rng(0)
    a = leaf(rng.normal(size=(3, 4)))
    b = leaf(rng.normal(size=(4, 2)))

    def loss():
        a.grad = None
        b.grad = None
        return float(((a @ b) ** 2).sum().data)

    out = (a @ b) ** 2
    out.sum().backward()
    ga, gb = a.grad.copy(), b.grad.copy()
    assert np.allclose(ga, numeric_gradient(loss, a.data), atol=1e-5)
    assert np.allclose(gb, numeric_gradient(loss, b.data), atol=1e-5)


def test_nonlinearity_gradients():
    rng = np.random.default_rng(1)
    for op in ("exp", "tanh", "sigmoid", "relu"):
        x = leaf(rng.normal(size=(5,)))

        def loss():
            x.grad = None
            return float((getattr(x, op)() ** 2).sum().data)

        (getattr(x, op)() ** 2).sum().backward()
        grad = x.grad.copy()
        assert np.allclose(
            grad, numeric_gradient(loss, x.data), atol=1e-5
        ), op


def test_log_sqrt():
    x = leaf([4.0])
    x.log().sum().backward()
    assert np.allclose(x.grad, [0.25])
    x.zero_grad()
    x.sqrt().sum().backward()
    assert np.allclose(x.grad, [0.25])


def test_clip_min_gradient_masked():
    x = leaf([-1.0, 2.0])
    x.clip_min(0.0).sum().backward()
    assert np.allclose(x.grad, [0.0, 1.0])


def test_sum_axis_keepdims():
    x = leaf(np.ones((2, 3, 4)))
    y = x.sum(axis=(0, 2), keepdims=False)
    assert y.shape == (3,)
    y.sum().backward()
    assert np.allclose(x.grad, 1.0)


def test_mean_gradient():
    x = leaf(np.ones((4, 5)))
    x.mean().backward()
    assert np.allclose(x.grad, 1.0 / 20)
    x.zero_grad()
    x.mean(axis=1).sum().backward()
    assert np.allclose(x.grad, 1.0 / 5)


def test_max_splits_ties(monkeypatch):
    x = leaf([[1.0, 1.0, 0.0]])
    x.max(axis=1).sum().backward()
    assert np.allclose(x.grad, [[0.5, 0.5, 0.0]])
    # Over several axes at once the tie is shared by every maximum.
    y = leaf([[[2.0, 0.0], [2.0, 2.0]], [[1.0, 3.0], [0.0, 0.0]]])
    out = y.max(axis=(1, 2))
    assert np.allclose(out.data, [2.0, 3.0])
    out.sum().backward()
    third = 1.0 / 3.0
    assert np.allclose(
        y.grad, [[[third, 0.0], [third, third]], [[0.0, 1.0], [0.0, 0.0]]]
    )
    # A float32 input is handed a float32 gradient with the same split:
    # integer tie counts would promote it to float64 (and _accumulate
    # would copy it back).
    handed = []
    accumulate = Tensor._accumulate

    def spy(tensor, grad):
        handed.append(grad.dtype)
        accumulate(tensor, grad)

    monkeypatch.setattr(Tensor, "_accumulate", spy)
    z = Tensor(y.data.astype(np.float32), requires_grad=True)
    z.max(axis=(1, 2)).sum().backward()
    assert handed and set(handed) == {np.dtype(np.float32)}
    assert np.allclose(z.grad, y.grad)


def test_reshape_transpose_roundtrip_gradient():
    x = leaf(np.arange(6.0).reshape(2, 3))
    y = x.reshape(3, 2).transpose(1, 0)
    (y * y).sum().backward()
    assert np.allclose(x.grad, 2 * x.data)


def test_getitem_gradient_scatters():
    x = leaf(np.arange(5.0))
    x[1:3].sum().backward()
    assert np.allclose(x.grad, [0, 1, 1, 0, 0])


def test_pad2d_gradient():
    x = leaf(np.ones((1, 1, 2, 2)))
    y = x.pad2d(1)
    assert y.shape == (1, 1, 4, 4)
    y.sum().backward()
    assert np.allclose(x.grad, 1.0)
    with pytest.raises(ModelError):
        x.pad2d(-1)


def test_concat_and_stack_gradients():
    a = leaf([1.0, 2.0])
    b = leaf([3.0])
    concat([a, b]).sum().backward()
    assert np.allclose(a.grad, 1.0)
    assert np.allclose(b.grad, 1.0)
    a.zero_grad()
    c = leaf([1.0, 2.0])
    stack([a, c], axis=0).sum().backward()
    assert np.allclose(a.grad, 1.0)
    assert np.allclose(c.grad, 1.0)
    with pytest.raises(ModelError):
        concat([])


def test_no_grad_blocks_recording():
    x = leaf([1.0])
    with no_grad():
        y = x * 2.0
    assert not y.requires_grad
    assert y._parents == ()


def test_detach_breaks_graph():
    x = leaf([1.0])
    y = (x * 2.0).detach()
    assert not y.requires_grad


def test_dtype_preservation():
    assert Tensor(np.zeros(3, dtype=np.float64)).data.dtype == np.float64
    assert Tensor(np.zeros(3, dtype=np.float32)).data.dtype == np.float32
    assert Tensor(np.zeros(3, dtype=np.int64)).data.dtype == np.float32
    assert Tensor([1, 2]).data.dtype == np.float32
    # 0-d numpy scalars (e.g. from .sum()) keep their precision.
    assert Tensor(np.float64(1.0)).data.dtype == np.float64


def test_deep_graph_no_recursion_error():
    x = leaf([1.0])
    y = x
    for _ in range(5000):
        y = y + 1.0
    y.sum().backward()
    assert np.allclose(x.grad, [1.0])
