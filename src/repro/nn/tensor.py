"""Reverse-mode autograd tensor.

A :class:`Tensor` wraps a numpy array and records the operations applied
to it; :meth:`Tensor.backward` walks the recorded graph in reverse
topological order accumulating gradients. The op set is exactly what the
mmHand network needs -- elementwise arithmetic with broadcasting, matmul,
reductions (sum/mean/max), shape ops (reshape/transpose/slice/concat),
and the nonlinearities (relu/sigmoid/tanh/exp/log).

Design notes
------------
* Gradients accumulate into ``.grad`` as plain numpy arrays.
* Broadcasting is undone in backward passes by summing over broadcast
  axes (:func:`_unbroadcast`).
* A module-level ``no_grad`` context manager disables graph recording
  for inference.
"""

from __future__ import annotations

import contextlib
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import GradientError, InferenceCompileError, ModelError

_GRAD_ENABLED = [True]


@contextlib.contextmanager
def no_grad():
    """Context manager disabling autograd recording (inference mode)."""
    _GRAD_ENABLED.append(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.pop()


def _recording() -> bool:
    return _GRAD_ENABLED[-1]


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (reverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    # Sum leading broadcast axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum axes that were size-1 in the original shape.
    axes = tuple(
        i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1
    )
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array with reverse-mode automatic differentiation."""

    __slots__ = (
        "data", "grad", "requires_grad", "_backward", "_parents",
        "_version",
    )

    _recorded = False
    """True for the values of a plan recording (:mod:`repro.nn.inference`),
    on which only the ops the plan lowers may run."""

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _parents: Tuple["Tensor", ...] = (),
        _backward: Optional[Callable[[np.ndarray], None]] = None,
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        if isinstance(data, (np.ndarray, np.generic)):
            # Preserve float precision of numpy inputs (float64 graphs stay
            # float64, e.g. for gradient checking); cast ints/bools down.
            arr = np.asarray(data)
            if arr.dtype not in (np.float32, np.float64):
                arr = arr.astype(np.float32)
        else:
            arr = np.asarray(data, dtype=np.float32)
        self.data = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._backward = _backward

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        return (
            f"Tensor(shape={self.data.shape}, "
            f"requires_grad={self.requires_grad})"
        )

    def numpy(self) -> np.ndarray:
        """The underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """A new leaf tensor sharing this tensor's data."""
        return Tensor(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    @property
    def version(self) -> int:
        """Mutation counter for in-place parameter updates.

        Optimizer steps and :meth:`Module.load_state_dict` call
        :meth:`bump_version` after rewriting ``.data``; compiled
        inference plans (:mod:`repro.nn.inference`) memoize folded
        weights against the sum of their source parameters' versions
        and refold when it changes. The slot is lazily initialised so
        the autograd hot path pays nothing for it.
        """
        return getattr(self, "_version", 0)

    def bump_version(self) -> int:
        """Record an in-place ``.data`` mutation; returns the new version."""
        version = getattr(self, "_version", 0) + 1
        self._version = version
        return version

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        requires = _recording() and any(p.requires_grad for p in parents)
        if requires:
            return Tensor(
                data, requires_grad=True, _parents=tuple(parents),
                _backward=backward,
            )
        if any(p._recorded for p in parents):
            raise InferenceCompileError(
                "a compiled plan has no lowering for this tensor op"
            )
        return Tensor(data)

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(grad, dtype=self.data.dtype, copy=True)
        else:
            self.grad += grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded graph."""
        if not self.requires_grad:
            raise GradientError(
                "backward() called on a tensor that does not require grad"
            )
        if grad is None:
            if self.data.size != 1:
                raise GradientError(
                    "backward() without an explicit gradient requires a "
                    "scalar tensor"
                )
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            raise GradientError(
                f"gradient shape {grad.shape} does not match tensor shape "
                f"{self.data.shape}"
            )

        topo: List[Tensor] = []
        visited = set()

        def visit(node: "Tensor") -> None:
            stack = [(node, iter(node._parents))]
            visited.add(id(node))
            while stack:
                current, parents = stack[-1]
                advanced = False
                for parent in parents:
                    if id(parent) not in visited and parent.requires_grad:
                        visited.add(id(parent))
                        stack.append((parent, iter(parent._parents)))
                        advanced = True
                        break
                if not advanced:
                    topo.append(current)
                    stack.pop()

        visit(self)
        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    @staticmethod
    def _coerce(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.data.shape))

        return Tensor._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Tensor":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(
                    _unbroadcast(grad * other.data, self.data.shape)
                )
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(grad * self.data, other.data.shape)
                )

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(
                    _unbroadcast(grad / other.data, self.data.shape)
                )
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(
                        -grad * self.data / (other.data**2), other.data.shape
                    )
                )

        return Tensor._make(out_data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return self._coerce(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise ModelError("only scalar exponents are supported")
        out_data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(
                    grad * exponent * self.data ** (exponent - 1)
                )

        return Tensor._make(out_data, (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if other.data.ndim == 1:
                    ga = np.outer(grad, other.data) if grad.ndim == 1 else (
                        grad[..., None] * other.data
                    )
                else:
                    ga = grad @ np.swapaxes(other.data, -1, -2)
                self._accumulate(_unbroadcast(ga, self.data.shape))
            if other.requires_grad:
                if self.data.ndim == 1:
                    gb = np.outer(self.data, grad) if grad.ndim == 1 else (
                        self.data[..., None] * grad
                    )
                else:
                    gb = np.swapaxes(self.data, -1, -2) @ grad
                other._accumulate(_unbroadcast(gb, other.data.shape))

        return Tensor._make(out_data, (self, other), backward)

    # ------------------------------------------------------------------
    # Nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data)

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / self.data)

        return Tensor._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return Tensor._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (1.0 - out_data**2))

        return Tensor._make(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self**0.5

    def clip_min(self, minimum: float) -> "Tensor":
        """Elementwise ``max(x, minimum)`` (sub-gradient 0 below)."""
        mask = self.data > minimum
        out_data = np.where(mask, self.data, minimum)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(
                    g, axis if isinstance(axis, int) else tuple(axis)
                )
            self._accumulate(np.broadcast_to(g, self.data.shape).copy())

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        elif isinstance(axis, int):
            count = self.data.shape[axis]
        else:
            count = int(np.prod([self.data.shape[a] for a in axis]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis, keepdims: bool = False) -> "Tensor":
        """Max over ``axis`` (an int or a tuple of ints); the gradient is
        shared equally among tied maxima."""
        expanded = self.data.max(axis=axis, keepdims=True)
        out_data = expanded if keepdims else np.squeeze(expanded, axis)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            mask = self.data == expanded
            # Counted in the input's dtype: an integer count would
            # promote a float32 gradient to float64.
            counts = mask.sum(
                axis=axis, keepdims=True, dtype=self.data.dtype
            )
            g = grad if keepdims else np.expand_dims(grad, axis)
            self._accumulate(mask * (g / counts))

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Shape ops
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(self.data.shape))

        return Tensor._make(out_data, (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        out_data = self.data.transpose(axes)
        inverse = np.argsort(axes)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.transpose(inverse))

        return Tensor._make(out_data, (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, index, grad)
                self._accumulate(full)

        return Tensor._make(out_data, (self,), backward)

    def pad2d(self, padding: int) -> "Tensor":
        """Zero-pad the last two axes symmetrically by ``padding``."""
        if padding < 0:
            raise ModelError("padding must be non-negative")
        if padding == 0:
            return self
        pad_width = [(0, 0)] * (self.data.ndim - 2) + [
            (padding, padding),
            (padding, padding),
        ]
        out_data = np.pad(self.data, pad_width)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                slices = tuple(
                    [slice(None)] * (self.data.ndim - 2)
                    + [slice(padding, -padding), slice(padding, -padding)]
                )
                self._accumulate(grad[slices])

        return Tensor._make(out_data, (self,), backward)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing."""
    tensors = [Tensor._coerce(t) for t in tensors]
    if not tensors:
        raise ModelError("concat requires at least one tensor")
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                index = [slice(None)] * grad.ndim
                index[axis] = slice(int(lo), int(hi))
                t._accumulate(grad[tuple(index)])

    return Tensor._make(out_data, tensors, backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis`` with gradient routing."""
    tensors = [Tensor._coerce(t) for t in tensors]
    if not tensors:
        raise ModelError("stack requires at least one tensor")
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        moved = np.moveaxis(grad, axis, 0)
        for t, g in zip(tensors, moved):
            if t.requires_grad:
                t._accumulate(g)

    return Tensor._make(out_data, tensors, backward)
