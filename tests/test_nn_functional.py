"""Gradient and shape tests of conv / deconv / attention / pooling / batch
norm."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.nn import functional as F
from repro.nn.attention import (
    FrameAttention,
    SpatialAttention,
    VelocityChannelAttention,
)
from repro.nn.inference import compile_model
from repro.nn.tensor import Tensor, concat, no_grad

from conftest import numeric_gradient


def leaf(shape, seed=0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.normal(size=shape), requires_grad=True)


def _grads_match_numeric(forward, params, atol=1e-6):
    """Autograd gradients of ``sum(forward()**2)`` vs central differences."""

    def loss():
        for p in params:
            p.grad = None
        return float((forward() ** 2).sum().data)

    (forward() ** 2).sum().backward()
    grads = [p.grad.copy() for p in params]
    for p, g in zip(params, grads):
        ng = numeric_gradient(loss, p.data)
        assert np.allclose(g, ng, atol=atol, rtol=1e-6), p.shape


def _zero_stuffed_deconv(x, w, b, stride):
    """The old transposed-conv formula: conv over zero-stuffed input."""
    n, c, h, wd = x.shape
    up = np.zeros((n, c, h * stride, wd * stride))
    up[:, :, ::stride, ::stride] = x
    k = w.shape[2]
    pad = np.pad(up, ((0, 0), (0, 0), (k // 2, k // 2), (k // 2, k // 2)))
    out = np.zeros((n, w.shape[0], h * stride, wd * stride))
    for i in range(k):
        for j in range(k):
            window = pad[:, :, i:i + h * stride, j:j + wd * stride]
            out += np.einsum("oc,nchw->nohw", w[:, :, i, j], window)
    if b is not None:
        out += b.reshape(1, -1, 1, 1)
    return out


def test_conv2d_matches_scipy():
    correlate2d = pytest.importorskip("scipy.signal").correlate2d

    x = leaf((1, 1, 6, 6))
    w = leaf((1, 1, 3, 3), seed=1)
    out = F.conv2d(x, w).data[0, 0]
    expected = correlate2d(x.data[0, 0], w.data[0, 0], mode="valid")
    assert np.allclose(out, expected, atol=1e-12)


def test_conv2d_stride_and_padding_shapes():
    x = leaf((2, 3, 8, 8))
    w = leaf((5, 3, 3, 3), seed=1)
    assert F.conv2d(x, w).shape == (2, 5, 6, 6)
    assert F.conv2d(x, w, padding=1).shape == (2, 5, 8, 8)
    assert F.conv2d(x, w, stride=2, padding=1).shape == (2, 5, 4, 4)


def test_conv2d_gradients_numeric():
    x = leaf((2, 2, 5, 5))
    w = leaf((3, 2, 3, 3), seed=1)
    b = leaf((3,), seed=2)

    def loss():
        for p in (x, w, b):
            p.grad = None
        return float(
            (F.conv2d(x, w, b, stride=2, padding=1) ** 2).sum().data
        )

    (F.conv2d(x, w, b, stride=2, padding=1) ** 2).sum().backward()
    grads = [x.grad.copy(), w.grad.copy(), b.grad.copy()]
    for p, g in zip((x, w, b), grads):
        assert np.allclose(
            g, numeric_gradient(loss, p.data), atol=1e-4
        )


@pytest.mark.parametrize(
    "stride,padding,hw",
    [(2, 1, (4, 6)), (2, 1, (5, 5)), (3, 1, (7, 5)), (2, 0, (5, 6))],
)
def test_strided_conv2d_gradients_numeric(stride, padding, hw):
    # padding == k//2 takes the sub-pixel input gradient, padding 0 the
    # im2col scatter-add; both must match finite differences.
    x = leaf((2, 2) + hw)
    w = leaf((3, 2, 3, 3), seed=1)
    b = leaf((3,), seed=2)
    _grads_match_numeric(
        lambda: F.conv2d(x, w, b, stride=stride, padding=padding),
        [x, w, b],
    )


def test_conv2d_validates():
    x = leaf((2, 3, 8, 8))
    w = leaf((5, 4, 3, 3))
    with pytest.raises(ModelError):
        F.conv2d(x, w)
    with pytest.raises(ModelError):
        F.conv2d(leaf((2, 3, 8)), leaf((5, 3, 3, 3)))
    with pytest.raises(ModelError):
        F.conv2d(x, leaf((5, 3, 3, 3)), stride=0)
    with pytest.raises(ModelError):
        F.conv2d(leaf((1, 3, 2, 2)), leaf((5, 3, 3, 3)))


def test_deconv_doubles_spatial_size():
    x = leaf((2, 4, 8, 8))
    w = leaf((3, 4, 3, 3), seed=1)
    out = F.conv_transpose2d(x, w, stride=2)
    assert out.shape == (2, 3, 16, 16)


@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("kernel", [1, 3, 5])
@pytest.mark.parametrize("hw", [(4, 5), (3, 3)])
def test_subpixel_deconv_equals_zero_stuffed_conv(stride, kernel, hw):
    x = leaf((2, 3) + hw)
    w = leaf((4, 3, kernel, kernel), seed=1)
    b = leaf((4,), seed=2)
    for bias in (b, None):
        out = F.conv_transpose2d(x, w, bias, stride=stride).data
        ref = _zero_stuffed_deconv(
            x.data, w.data, None if bias is None else b.data, stride
        )
        assert out.shape == ref.shape
        assert np.abs(out - ref).max() <= 1e-12


@pytest.mark.parametrize("stride", [2, 3])
@pytest.mark.parametrize("hw", [(3, 4), (2, 2)])
@pytest.mark.parametrize("with_bias", [True, False])
def test_subpixel_deconv_gradients_numeric(stride, hw, with_bias):
    x = leaf((2, 2) + hw)
    w = leaf((3, 2, 3, 3), seed=1)
    b = leaf((3,), seed=2) if with_bias else None
    params = [x, w] + ([b] if with_bias else [])
    _grads_match_numeric(
        lambda: F.conv_transpose2d(x, w, b, stride=stride), params
    )


def test_subpixel_deconv_validates():
    with pytest.raises(ModelError):
        F.conv_transpose2d(leaf((1, 2, 3, 3)), leaf((3, 2, 2, 2)))
    with pytest.raises(ModelError):
        F.conv_transpose2d(leaf((1, 2, 3, 3)), leaf((3, 4, 3, 3)))
    with pytest.raises(ModelError):
        F.conv_transpose2d(leaf((1, 2, 3, 3)), leaf((3, 2, 3, 3)), stride=0)


def _direct_same_conv(x, w, b):
    """Single-output "same" conv, one multiply-add per tap."""
    k = w.shape[-1]
    p = k // 2
    n, _, h, wd = x.shape
    pad = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    out = np.full((n, 1, h, wd), b[0])
    for i in range(k):
        for j in range(k):
            out[:, 0] += np.einsum(
                "c,nchw->nhw", w[0, :, i, j], pad[:, :, i:i + h, j:j + wd]
            )
    return out


@pytest.mark.parametrize("kernel", [3, 5])
def test_banded_conv_matches_direct_conv(kernel):
    rng = np.random.default_rng(kernel)
    w = rng.normal(size=(1, 2, kernel, kernel))
    b = rng.normal(size=1)
    p = kernel // 2
    for n in (1, 4, 64):
        for width in (8, 32):
            x = rng.normal(size=(n, 2, 5, width))
            padded = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
            band = F.conv_band(w, width)
            out = F.band_conv2d_raw(padded, band, kernel) + b
            ref = _direct_same_conv(x, w, b)
            assert np.abs(out.reshape(ref.shape) - ref).max() <= 1e-12
            # Backward against the im2col conv's autograd.
            g = rng.normal(size=ref.shape)
            g_pad, g_band = F.band_conv2d_grads(
                g.reshape(-1, width), padded, band, kernel
            )
            xt = Tensor(x, requires_grad=True)
            wt = Tensor(w, requires_grad=True)
            F.conv2d(xt, wt, padding=p).backward(g)
            gx = g_pad[:, :, p:p + 5, p:p + width]
            assert np.abs(gx - xt.grad).max() <= 1e-12
            gw = F.conv_band_grad(g_band, kernel)
            assert np.abs(gw - wt.grad).max() <= 1e-9


def test_spatial_attention_gradients_numeric():
    w, b = leaf((1, 2, 3, 3), seed=1), leaf((1,), seed=2)
    x = leaf((2, 3, 4, 5))
    _grads_match_numeric(lambda: F.spatial_attention(x, w, b), [x, w, b])
    # All-zero pixels across both channels: each is a two-way tied max,
    # where central differences read the equal split.
    tied = leaf((2, 2, 4, 5), seed=3)
    tied.data[:, :, 1:3, 2] = 0.0
    _grads_match_numeric(
        lambda: F.spatial_attention(tied, w, b), [tied, w, b]
    )


def test_channel_attention_gradients_numeric():
    w, b = leaf((3, 6), seed=1), leaf((3,), seed=2)
    x = leaf((2, 3, 3, 4))
    _grads_match_numeric(lambda: F.channel_attention(x, w, b), [x, w, b])
    # An all-zero 1x2 channel map: a two-way tied max.
    tied = leaf((2, 3, 1, 2), seed=3)
    tied.data[0, 1] = 0.0
    _grads_match_numeric(
        lambda: F.channel_attention(tied, w, b), [tied, w, b]
    )


def test_frame_attention_gradients_numeric():
    params = [
        leaf((4, 1, 3, 3), seed=1), leaf((4,), seed=2),
        leaf((1, 4, 3, 3), seed=3), leaf((1,), seed=4),
    ]
    x = leaf((2, 3, 2, 3, 2))
    _grads_match_numeric(lambda: F.frame_attention(x, *params), [x] + params)
    # An all-zero two-value frame: a two-way tied max.
    tied = leaf((2, 3, 1, 1, 2), seed=5)
    tied.data[0, 1] = 0.0
    _grads_match_numeric(
        lambda: F.frame_attention(tied, *params), [tied] + params
    )


def _spatial_chain(x, w, b):
    maps = concat(
        [x.mean(axis=1, keepdims=True), x.max(axis=1, keepdims=True)], axis=1
    )
    return x * F.conv2d(maps, w, b, padding=w.shape[-1] // 2).sigmoid()


def _channel_chain(x, w, b):
    n, c = x.shape[:2]
    features = concat([x.mean(axis=(2, 3)), x.max(axis=(2, 3))], axis=1)
    weights = (features @ w.transpose() + b).sigmoid()
    return x * weights.reshape(n, c, 1, 1)


def _frame_chain(x, w1, b1, w2, b2):
    b, st = x.shape[:2]
    pooled = x.mean(axis=(2, 3, 4)) + x.max(axis=(2, 3, 4))
    hidden = F.conv2d(pooled.reshape(b, 1, 1, st), w1, b1, padding=1).relu()
    weights = F.conv2d(hidden, w2, b2, padding=1).sigmoid()
    return x * weights.reshape(b, st, 1, 1, 1)


@pytest.mark.parametrize(
    "kernel,chain,shape,param_shapes",
    [
        (F.spatial_attention, _spatial_chain, (3, 4, 6, 5),
         [(1, 2, 5, 5), (1,)]),
        (F.channel_attention, _channel_chain, (3, 4, 6, 5), [(4, 8), (4,)]),
        (F.frame_attention, _frame_chain, (2, 4, 3, 4, 5),
         [(4, 1, 3, 3), (4,), (1, 4, 3, 3), (1,)]),
    ],
    ids=["spatial", "channel", "frame"],
)
def test_attention_kernels_match_autograd_chain_on_ties(
    kernel, chain, shape, param_shapes
):
    # Post-ReLU input with an all-zero channel map, all-zero pixels
    # across channels and an all-zero frame: many-way ties at 0, which
    # must split the max gradient exactly as Tensor.max does.
    data = np.maximum(np.random.default_rng(7).normal(size=shape), 0.0)
    data[0, 1] = 0.0
    data[1, ..., 2, :] = 0.0
    params = [leaf(s, seed=i + 1) for i, s in enumerate(param_shapes)]
    proj = np.random.default_rng(8).normal(size=shape)
    grads = []
    for fn in (kernel, chain):
        x = Tensor(data.copy(), requires_grad=True)
        for p in params:
            p.grad = None
        out = fn(x, *params)
        (out * Tensor(proj)).sum().backward()
        grads.append([out.data, x.grad] + [p.grad for p in params])
    # The chain's means scale by a float32 1/count, hence 1e-6 and not
    # float64 round-off; a wrong tie split is off by O(1).
    for got, want in zip(*grads):
        assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()


def test_attention_kernels_validate():
    with pytest.raises(ModelError):
        F.spatial_attention(leaf((1, 2, 4, 4)), leaf((2, 2, 3, 3)),
                            leaf((1,)))
    with pytest.raises(ModelError):
        F.spatial_attention(leaf((1, 2, 4, 4)), leaf((1, 2, 4, 4)),
                            leaf((1,)))
    with pytest.raises(ModelError):
        F.channel_attention(leaf((1, 2, 4, 4)), leaf((2, 2)), leaf((2,)))
    with pytest.raises(ModelError):
        F.frame_attention(leaf((1, 2, 4, 4)), *[leaf((1,))] * 4)


@pytest.mark.parametrize("batch", [1, 16])
def test_attention_plans_match_eager(batch):
    rng = np.random.default_rng(batch)
    cases = [
        (FrameAttention(4, rng=rng), [(batch, 4, 3, 8, 8)]),
        (VelocityChannelAttention(3, rng=rng), [(4 * batch, 3, 8, 8)]),
        # Two widths: the plan keeps one band per input width.
        (SpatialAttention(rng=rng), [(4 * batch, 3, 8, 16),
                                     (4 * batch, 3, 8, 8)]),
    ]
    for module, shapes in cases:
        plan = compile_model(module.eval())
        for shape in shapes:
            x = np.maximum(rng.normal(size=shape), 0.0).astype(np.float32)
            with no_grad():
                eager = module(Tensor(x)).data
            assert float(np.abs(plan.run(x) - eager).max()) <= 1e-5


def test_pointwise_conv_matches_channel_gemm():
    x = leaf((2, 3, 4, 5))
    w = leaf((4, 3, 1, 1), seed=1)
    b = leaf((4,), seed=2)
    out = F.conv2d(x, w, b).data
    ref = np.einsum("oc,nchw->nohw", w.data[:, :, 0, 0], x.data)
    assert np.abs(out - (ref + b.data.reshape(1, 4, 1, 1))).max() <= 1e-12


@pytest.mark.parametrize("with_bias", [True, False])
def test_pointwise_conv_gradients_numeric(with_bias):
    x = leaf((2, 3, 3, 4))
    w = leaf((4, 3, 1, 1), seed=1)
    b = leaf((4,), seed=2) if with_bias else None
    params = [x, w] + ([b] if with_bias else [])
    _grads_match_numeric(lambda: F.conv2d(x, w, b), params)


def test_global_pools():
    x = leaf((2, 3, 4, 5))
    avg = F.global_avg_pool(x, (2, 3))
    mx = F.global_max_pool(x, (2, 3))
    assert avg.shape == (2, 3, 1, 1)
    assert mx.shape == (2, 3, 1, 1)
    assert np.allclose(avg.data[..., 0, 0], x.data.mean(axis=(2, 3)))
    assert np.allclose(mx.data[..., 0, 0], x.data.max(axis=(2, 3)))


def test_flatten():
    x = leaf((2, 3, 4))
    assert F.flatten(x).shape == (2, 12)
    assert F.flatten(x, start_axis=2).shape == (2, 3, 4)


def test_batch_norm2d_normalises_batch():
    x = leaf((4, 3, 5, 5))
    gamma = Tensor(np.ones(3), requires_grad=True)
    beta = Tensor(np.zeros(3), requires_grad=True)
    mean = x.data.mean(axis=(0, 2, 3))
    var = x.data.var(axis=(0, 2, 3))
    out = F.batch_norm2d(x, gamma, beta, mean, var, 1e-5, batch_stats=True)
    assert np.allclose(out.data.mean(axis=(0, 2, 3)), 0.0, atol=1e-6)
    assert np.allclose(out.data.std(axis=(0, 2, 3)), 1.0, atol=1e-3)


def test_batch_norm2d_gradients_numeric():
    x = leaf((2, 2, 3, 3))
    gamma = Tensor(np.random.default_rng(1).normal(size=2),
                   requires_grad=True)
    beta = Tensor(np.random.default_rng(2).normal(size=2),
                  requires_grad=True)
    proj = np.random.default_rng(3).normal(size=(2, 2, 3, 3))

    def compute():
        mean = x.data.mean(axis=(0, 2, 3))
        var = x.data.var(axis=(0, 2, 3))
        y = F.batch_norm2d(x, gamma, beta, mean, var, 1e-5,
                           batch_stats=True)
        return (y * Tensor(proj) + y * y * 0.1).sum()

    def loss():
        for p in (x, gamma, beta):
            p.grad = None
        return float(compute().data)

    compute().backward()
    grads = [x.grad.copy(), gamma.grad.copy(), beta.grad.copy()]
    for p, g in zip((x, gamma, beta), grads):
        ng = numeric_gradient(loss, p.data, eps=1e-5)
        assert np.allclose(g, ng, atol=2e-4), p.shape
