"""Raw-ndarray convolution kernels and functional ops on autograd tensors.

Every convolution runs through one raw-ndarray kernel that both eager
autograd (:func:`conv2d`, :func:`conv_transpose2d`,
:func:`shifted_conv2d`) and the compiled plan ops of
:mod:`repro.nn.inference` call; the plan passes its arena and folded
weights, eager calls get fresh arrays. The kernels:

* :func:`conv2d_raw` -- pad -> im2col -> batched GEMM straight into
  NCHW; 1x1 stride-1 unpadded convs skip pad and im2col and run as a
  plain per-sample channel GEMM on ``x`` itself;
* :func:`conv_transpose2d_raw` -- sub-pixel (polyphase) transposed
  convolution: the ``s*s`` output phases of ``conv(zero-stuffed x)``
  are one GEMM over a small im2col of ``x`` itself, then a pixel
  shuffle interleaves them;
* :func:`shifted_conv2d_raw` -- a single-output-channel "same" conv
  (spatial attention) as ``C*k*k`` multiply-adds over shifted views.

Each has a matching ``*_grads`` function computing the backward pass on
raw ndarrays.
"""

from __future__ import annotations

import functools
from typing import Callable, Optional, Tuple

import numpy as np

from repro.errors import ModelError
from repro.nn.tensor import Tensor

Epilogue = Optional[Callable[[np.ndarray], None]]


class _FreshArena:
    """Arena stand-in for eager calls: every request is a new array."""

    @staticmethod
    def get(key, shape, dtype, zero: bool = False) -> np.ndarray:
        return np.zeros(shape, dtype) if zero else np.empty(shape, dtype)


FRESH = _FreshArena()
"""Default arena of the raw kernels (the plan passes its own)."""


def _im2col(
    data: np.ndarray, kh: int, kw: int, stride: int, out: np.ndarray,
) -> None:
    """Copy the sliding (kh, kw) patches of an NCHW array into ``out``.

    ``out`` is a contiguous ``(N, C*kh*kw, out_h*out_w)`` buffer: one
    column matrix per sample, so a batched GEMM writes NCHW directly.
    """
    n, c, h, w = data.shape
    out_h = (h - kh) // stride + 1
    out_w = (w - kw) // stride + 1
    sn, sc, sh, sw = data.strides
    shape = (n, c, kh, kw, out_h, out_w)
    patches = np.lib.stride_tricks.as_strided(
        data, shape, (sn, sc, sh, sw, sh * stride, sw * stride)
    )
    np.copyto(out.reshape(shape), patches)


def _col2im(
    cols: np.ndarray,
    image_shape: Tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
) -> np.ndarray:
    """Scatter-add column patches back into an NCHW array (im2col adjoint).

    ``cols`` uses the ``(N, C*kh*kw, out_h*out_w)`` layout of
    :func:`_im2col`.
    """
    n, c, h, w = image_shape
    out_h = (h - kh) // stride + 1
    out_w = (w - kw) // stride + 1
    patches = cols.reshape(n, c, kh, kw, out_h, out_w)
    image = np.zeros(image_shape, dtype=cols.dtype)
    for i in range(kh):
        for j in range(kw):
            image[
                :, :, i : i + stride * out_h : stride,
                j : j + stride * out_w : stride,
            ] += patches[:, :, i, j]
    return image


def _finish(out: np.ndarray, bias_col, epilogue: Epilogue) -> None:
    """Bias add then the caller's in-place epilogue (activation, ...)."""
    if bias_col is not None:
        out += bias_col
    if epilogue is not None:
        epilogue(out)


def _is_pointwise(kh: int, kw: int, stride: int, pad) -> bool:
    return kh == kw == 1 and stride == 1 and not any(pad)


def _gemm_cols(
    x: np.ndarray, w_flat: np.ndarray, kh: int, kw: int, stride: int,
    pad: Tuple[int, int], arena, key: Tuple, tag: str,
) -> Tuple[np.ndarray, np.ndarray, int, int]:
    """pad -> im2col -> GEMM, the core of every convolution.

    ``pad = (lo, hi)`` zero-pads the top/left by ``lo`` and the
    bottom/right by ``hi``. Returns ``(out3, cols, out_h, out_w)`` with
    ``out3 = w_flat @ cols`` of shape ``(N, O, out_h*out_w)`` -- NCHW
    once reshaped -- in the arena buffer ``key + (tag,)``. A 1x1
    stride-1 unpadded conv uses ``x`` itself as its columns: a plain
    ``(O, C) @ (C, H*W)`` channel GEMM per sample, with no copy.
    """
    n, c, h, w = x.shape
    o = w_flat.shape[0]
    dtype = np.result_type(x.dtype, w_flat.dtype)
    if _is_pointwise(kh, kw, stride, pad):
        cols = x.reshape(n, c, h * w)
        out3 = arena.get(key + (tag,), (n, o, h * w), dtype)
        np.matmul(w_flat, cols, out=out3)
        return out3, cols, h, w
    lo, hi = pad
    if lo or hi:
        padded = arena.get(
            key + ("pad",), (n, c, h + lo + hi, w + lo + hi), x.dtype,
            zero=True,
        )
        padded[:, :, lo:lo + h, lo:lo + w] = x
        x, h, w = padded, h + lo + hi, w + lo + hi
    if h < kh or w < kw:
        raise ModelError("input smaller than kernel after padding")
    out_h = (h - kh) // stride + 1
    out_w = (w - kw) // stride + 1
    cols = arena.get(
        key + ("cols",), (n, c * kh * kw, out_h * out_w), x.dtype
    )
    _im2col(x, kh, kw, stride, cols)
    out3 = arena.get(key + (tag,), (n, o, out_h * out_w), dtype)
    np.matmul(w_flat, cols, out=out3)
    return out3, cols, out_h, out_w


def _gemm_cols_grads(
    grad3: np.ndarray, cols: np.ndarray, w_flat: np.ndarray,
    x_shape: Tuple[int, ...], kh: int, kw: int, stride: int,
    pad: Tuple[int, int], need_x: bool,
) -> Tuple[Optional[np.ndarray], np.ndarray]:
    """Adjoint of :func:`_gemm_cols` given the ``(N, O, M)`` output
    gradient: ``(grad_x or None, grad_w_flat)``."""
    gw = np.matmul(grad3, cols.transpose(0, 2, 1)).sum(axis=0)
    if not need_x:
        return None, gw
    gcols = np.matmul(w_flat.T, grad3)
    if _is_pointwise(kh, kw, stride, pad):
        return gcols.reshape(x_shape), gw
    n, c, h, w = x_shape
    lo, hi = pad
    padded_shape = (n, c, h + lo + hi, w + lo + hi)
    gx = _col2im(gcols, padded_shape, kh, kw, stride)
    if lo or hi:
        gx = gx[:, :, lo:lo + h, lo:lo + w]
    return gx, gw


# ----------------------------------------------------------------------
# conv2d
# ----------------------------------------------------------------------
def conv2d_raw(
    x: np.ndarray, w_flat: np.ndarray, bias_col: Optional[np.ndarray],
    kh: int, kw: int, stride: int = 1, padding: int = 0,
    arena=FRESH, key: Tuple = (), epilogue: Epilogue = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Shared conv kernel: ``(N, C, H, W) -> (N, O, out_h, out_w)``.

    ``w_flat`` is the ``(O, C*kh*kw)`` GEMM weight and ``bias_col`` an
    ``(O, 1)`` column (or ``None``); ``epilogue`` runs in place on the
    biased output. Returns ``(out, cols)``; :func:`conv2d_grads` takes
    the columns back.
    """
    out3, cols, out_h, out_w = _gemm_cols(
        x, w_flat, kh, kw, stride, (padding, padding), arena, key, "out"
    )
    _finish(out3, bias_col, epilogue)
    return out3.reshape(x.shape[0], -1, out_h, out_w), cols


def conv2d_grads(
    grad: np.ndarray, x_shape: Tuple[int, ...], w_flat: np.ndarray,
    cols: np.ndarray, kh: int, kw: int, stride: int, padding: int,
    need_x: bool = True,
) -> Tuple[Optional[np.ndarray], np.ndarray]:
    """Backward of :func:`conv2d_raw`: ``(grad_x or None, grad_w_flat)``.

    A strided "same"-padded conv (odd square kernel, ``padding = k//2``)
    has a transposed conv as its input gradient: ``grad_x`` is the
    sub-pixel kernel run on ``grad`` with the kernel flipped and its
    channel axes swapped, cropped to ``x``'s size. That replaces the
    strided scatter-add of :func:`_col2im`.
    """
    n, o = grad.shape[:2]
    grad3 = grad.reshape(n, o, -1)
    if not (stride > 1 and kh == kw and kh % 2 and padding == kh // 2):
        return _gemm_cols_grads(
            grad3, cols, w_flat, x_shape, kh, kw, stride,
            (padding, padding), need_x,
        )
    gw = np.matmul(grad3, cols.transpose(0, 2, 1)).sum(axis=0)
    if not need_x:
        return None, gw
    w = w_flat.reshape(o, x_shape[1], kh, kw)
    w_adj = subpixel_weight(w.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1], stride)
    gx, _ = conv_transpose2d_raw(grad, w_adj, None, kh, stride)
    return gx[:, :, :x_shape[2], :x_shape[3]], gw


def conv2d(
    x: Tensor, weight: Tensor, bias: Tensor = None, stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-D convolution (cross-correlation) on NCHW input.

    ``weight`` has shape ``(out_channels, in_channels, kh, kw)``.
    """
    if x.ndim != 4:
        raise ModelError(f"conv2d expects NCHW input, got shape {x.shape}")
    if weight.ndim != 4:
        raise ModelError("conv2d weight must be (O, C, kh, kw)")
    if x.shape[1] != weight.shape[1]:
        raise ModelError(
            f"input has {x.shape[1]} channels but weight expects "
            f"{weight.shape[1]}"
        )
    if stride < 1:
        raise ModelError("stride must be >= 1")
    if padding < 0:
        raise ModelError("padding must be non-negative")
    out_c, _, kh, kw = weight.shape
    w_flat = weight.data.reshape(out_c, -1)
    bias_col = None if bias is None else bias.data.reshape(out_c, 1)
    out_data, cols = conv2d_raw(
        x.data, w_flat, bias_col, kh, kw, stride, padding
    )
    parents = [x, weight] + ([bias] if bias is not None else [])

    def backward(grad: np.ndarray) -> None:
        gx, gw = conv2d_grads(
            grad, x.shape, w_flat, cols, kh, kw, stride, padding,
            need_x=x.requires_grad,
        )
        if weight.requires_grad:
            weight._accumulate(gw.reshape(weight.data.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2, 3)))
        if gx is not None:
            x._accumulate(gx)

    return Tensor._make(out_data, parents, backward)


# ----------------------------------------------------------------------
# Transposed convolution (sub-pixel)
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def _subpixel_taps(kernel: int, stride: int) -> Tuple[np.ndarray, ...]:
    """Where each kernel tap lands in the polyphase decomposition.

    A transposed conv is ``conv2d(zero_stuff(x, s), W, padding=k//2)``,
    ``zero_stuff`` putting ``s - 1`` zeros between input samples. For
    output row ``s*q + r`` it reads tap ``a`` at input row ``q + d``,
    ``d = (r + a - k//2) / s`` -- only when that is an integer, i.e.
    for phase ``r = (k//2 - a) mod s``. Returns ``(phase, tap, lo,
    hi)``: per kernel tap its phase and its position ``d + lo`` in a
    ``T = lo + hi + 1`` window over ``x`` padded by ``lo`` top/left and
    ``hi`` bottom/right. Each tap maps to exactly one (phase, position).
    """
    p = kernel // 2
    a = np.arange(kernel)
    phase = (p - a) % stride
    d = (phase + a - p) // stride
    lo, hi = int(-d.min()), int(d.max())
    return phase, d + lo, lo, hi


def subpixel_weight(w: np.ndarray, stride: int) -> np.ndarray:
    """``(O, C, k, k)`` kernel -> ``(s*s*O, C*T*T)`` sub-pixel GEMM weight.

    Row ``(ry*s + rx)*O + o`` holds output channel ``o`` of phase
    ``(ry, rx)``; taps that phase never reads stay zero.
    """
    o, c, k, _ = w.shape
    phase, tap, lo, hi = _subpixel_taps(k, stride)
    t = lo + hi + 1
    sub = np.zeros((stride, stride, o, c, t, t), w.dtype)
    sub[
        phase[:, None], phase[None, :], :, :, tap[:, None], tap[None, :]
    ] = w.transpose(2, 3, 0, 1)
    return sub.reshape(stride * stride * o, c * t * t)


def subpixel_weight_grad(
    g_sub: np.ndarray, shape: Tuple[int, int, int, int], stride: int
) -> np.ndarray:
    """Adjoint of :func:`subpixel_weight` (a gather: taps are disjoint)."""
    o, c, k, _ = shape
    phase, tap, lo, hi = _subpixel_taps(k, stride)
    t = lo + hi + 1
    g6 = g_sub.reshape(stride, stride, o, c, t, t)
    return g6[
        phase[:, None], phase[None, :], :, :, tap[:, None], tap[None, :]
    ].transpose(2, 3, 0, 1)


def conv_transpose2d_raw(
    x: np.ndarray, w_sub: np.ndarray, bias_sub: Optional[np.ndarray],
    kernel: int, stride: int, arena=FRESH, key: Tuple = (),
    epilogue: Epilogue = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Sub-pixel transposed conv: ``(N, C, H, W) -> (N, O, s*H, s*W)``.

    Equals ``conv2d(zero_stuff(x, s), W, padding=k//2)`` (see
    :func:`_subpixel_taps`) without the zeros: one GEMM of the
    :func:`subpixel_weight` ``w_sub`` over a ``T x T`` im2col of ``x``
    yields every phase, and a pixel shuffle interleaves them.
    ``bias_sub`` is the bias column tiled ``s*s`` times. Returns
    ``(out, cols)``.
    """
    _, _, lo, hi = _subpixel_taps(kernel, stride)
    t = lo + hi + 1
    n, _, h, w = x.shape
    s = stride
    phases, cols, _, _ = _gemm_cols(
        x, w_sub, t, t, 1, (lo, hi), arena, key, "phases"
    )
    _finish(phases, bias_sub, epilogue)
    o = w_sub.shape[0] // (s * s)
    out = arena.get(key + ("out",), (n, o, h * s, w * s), phases.dtype)
    phases = phases.reshape(n, s, s, o, h, w)
    for ry in range(s):
        for rx in range(s):
            out[:, :, ry::s, rx::s] = phases[:, ry, rx]
    return out, cols


def conv_transpose2d_grads(
    grad: np.ndarray, x_shape: Tuple[int, ...], w_sub: np.ndarray,
    cols: np.ndarray, kernel: int, stride: int, need_x: bool = True,
) -> Tuple[Optional[np.ndarray], np.ndarray]:
    """Backward of :func:`conv_transpose2d_raw`: ``(grad_x, grad_w_sub)``."""
    _, _, lo, hi = _subpixel_taps(kernel, stride)
    t = lo + hi + 1
    n, _, h, w = x_shape
    s = stride
    o = w_sub.shape[0] // (s * s)
    grad3 = np.ascontiguousarray(
        grad.reshape(n, o, h, s, w, s).transpose(0, 3, 5, 1, 2, 4)
    ).reshape(n, s * s * o, h * w)
    return _gemm_cols_grads(
        grad3, cols, w_sub, x_shape, t, t, 1, (lo, hi), need_x
    )


def conv_transpose2d(
    x: Tensor, weight: Tensor, bias: Tensor = None, stride: int = 2
) -> Tensor:
    """Transposed convolution with an odd ``(O, C, k, k)`` kernel.

    Output is ``(N, O, stride*H, stride*W)``, the same as a stride-1
    ``k//2``-padded conv over ``x`` zero-stuffed by ``stride``.
    """
    if x.ndim != 4:
        raise ModelError(
            f"conv_transpose2d expects NCHW input, got shape {x.shape}"
        )
    if weight.ndim != 4 or weight.shape[2] != weight.shape[3]:
        raise ModelError("conv_transpose2d weight must be (O, C, k, k)")
    if weight.shape[2] % 2 != 1:
        raise ModelError("conv_transpose2d requires an odd kernel size")
    if x.shape[1] != weight.shape[1]:
        raise ModelError(
            f"input has {x.shape[1]} channels but weight expects "
            f"{weight.shape[1]}"
        )
    if stride < 1:
        raise ModelError("stride must be >= 1")
    k = weight.shape[2]
    w_sub = subpixel_weight(weight.data, stride)
    bias_sub = (
        None if bias is None
        else np.tile(bias.data, stride * stride).reshape(-1, 1)
    )
    out_data, cols = conv_transpose2d_raw(x.data, w_sub, bias_sub, k, stride)
    parents = [x, weight] + ([bias] if bias is not None else [])

    def backward(grad: np.ndarray) -> None:
        gx, g_sub = conv_transpose2d_grads(
            grad, x.shape, w_sub, cols, k, stride, need_x=x.requires_grad
        )
        if weight.requires_grad:
            weight._accumulate(
                subpixel_weight_grad(g_sub, weight.data.shape, stride)
            )
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2, 3)))
        if gx is not None:
            x._accumulate(gx)

    return Tensor._make(out_data, parents, backward)


# ----------------------------------------------------------------------
# Shifted-tap conv (spatial attention)
# ----------------------------------------------------------------------
def shifted_conv2d_raw(
    x: np.ndarray, weight: np.ndarray, bias: np.ndarray,
    arena=FRESH, key: Tuple = (), epilogue: Epilogue = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Single-output "same" conv as multiply-adds over shifted views.

    ``x`` is ``(N, C, H, W)``, ``weight`` ``(1, C, k, k)`` with odd
    ``k``, ``bias`` ``(1,)``; the output ``(N, 1, H, W)`` is
    ``bias + sum_{c,i,j} w[c,i,j] * x_pad[:, c, i:i+H, j:j+W]`` --
    ``C*k*k`` in-place multiply-adds, nothing built with im2col.
    Returns ``(out, padded_x)``.
    """
    n, c, h, w = x.shape
    k = weight.shape[-1]
    p = k // 2
    dtype = np.result_type(x.dtype, weight.dtype)
    padded = arena.get(
        key + ("pad",), (n, c, h + 2 * p, w + 2 * p), x.dtype, zero=True
    )
    padded[:, :, p:p + h, p:p + w] = x
    out = arena.get(key + ("out",), (n, 1, h, w), dtype)
    acc = out[:, 0]
    tmp = arena.get(key + ("tap",), (n, h, w), dtype)
    acc.fill(bias[0])
    for ci in range(c):
        for i in range(k):
            for j in range(k):
                np.multiply(
                    padded[:, ci, i:i + h, j:j + w], weight[0, ci, i, j],
                    out=tmp,
                )
                acc += tmp
    if epilogue is not None:
        epilogue(out)
    return out, padded


def shifted_conv2d_grads(
    grad: np.ndarray, padded: np.ndarray, weight: np.ndarray,
    need_x: bool = True,
) -> Tuple[Optional[np.ndarray], np.ndarray]:
    """Backward of :func:`shifted_conv2d_raw`: ``(grad_x, grad_w)``.

    The weight gradient is ``k*k`` dot products of the output gradient
    with the shifted input views; the input gradient is the shifted
    multiply-adds run in reverse.
    """
    n, c, hp, wp = padded.shape
    k = weight.shape[-1]
    p = k // 2
    h, w = hp - 2 * p, wp - 2 * p
    g = grad[:, 0]
    gw = np.empty(weight.shape, dtype=weight.dtype)
    for i in range(k):
        for j in range(k):
            gw[0, :, i, j] = np.einsum(
                "nhw,nchw->c", g, padded[:, :, i:i + h, j:j + w]
            )
    if not need_x:
        return None, gw
    gpad = np.zeros(padded.shape, np.result_type(g.dtype, weight.dtype))
    tmp = np.empty_like(g)
    for ci in range(c):
        for i in range(k):
            for j in range(k):
                np.multiply(g, weight[0, ci, i, j], out=tmp)
                gpad[:, ci, i:i + h, j:j + w] += tmp
    return gpad[:, :, p:p + h, p:p + w], gw


def shifted_conv2d(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Autograd wrapper of :func:`shifted_conv2d_raw`."""
    if x.ndim != 4:
        raise ModelError(
            f"shifted_conv2d expects NCHW input, got shape {x.shape}"
        )
    if (
        weight.ndim != 4 or weight.shape[0] != 1
        or weight.shape[1] != x.shape[1]
        or weight.shape[2] != weight.shape[3] or weight.shape[2] % 2 != 1
    ):
        raise ModelError(
            f"shifted_conv2d weight must be (1, {x.shape[1]}, k, k) with "
            f"odd k, got {weight.shape}"
        )
    out_data, padded = shifted_conv2d_raw(x.data, weight.data, bias.data)

    def backward(grad: np.ndarray) -> None:
        gx, gw = shifted_conv2d_grads(
            grad, padded, weight.data, need_x=x.requires_grad
        )
        if weight.requires_grad:
            weight._accumulate(gw)
        if bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2, 3)))
        if gx is not None:
            x._accumulate(gx)

    return Tensor._make(out_data, (x, weight, bias), backward)


def batch_norm2d(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    mean: np.ndarray,
    var: np.ndarray,
    eps: float,
    batch_stats: bool,
) -> Tensor:
    """Fused batch normalisation over NCHW channels.

    ``mean`` / ``var`` are per-channel statistics (batch statistics in
    training, running statistics in eval); ``batch_stats`` selects the
    backward formula (batch statistics depend on ``x``, running ones do
    not). Fusing the op avoids the long elementwise autograd chains the
    naive formulation creates.
    """
    if x.ndim != 4:
        raise ModelError("batch_norm2d expects NCHW input")
    n, c, h, w = x.shape
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = x.data - mean.reshape(1, c, 1, 1)
    xhat *= inv_std.reshape(1, c, 1, 1)
    out_data = xhat * gamma.data.reshape(1, c, 1, 1)
    out_data += beta.data.reshape(1, c, 1, 1)
    m = n * h * w

    def backward(grad: np.ndarray) -> None:
        sum_g = grad.sum(axis=(0, 2, 3))
        sum_gx = np.einsum("nchw,nchw->c", grad, xhat)
        if gamma.requires_grad:
            gamma._accumulate(sum_gx)
        if beta.requires_grad:
            beta._accumulate(sum_g)
        if x.requires_grad:
            scale = (gamma.data * inv_std).reshape(1, c, 1, 1)
            if batch_stats:
                gx = xhat * (-sum_gx / m).reshape(1, c, 1, 1)
                gx += grad
                gx -= (sum_g / m).reshape(1, c, 1, 1)
                gx *= scale
            else:
                gx = scale * grad
            x._accumulate(gx)

    return Tensor._make(out_data, (x, gamma, beta), backward)


def global_avg_pool(x: Tensor, axes: Tuple[int, ...]) -> Tensor:
    """Mean over the given axes, keeping dims."""
    return x.mean(axis=axes, keepdims=True)


def global_max_pool(x: Tensor, axes: Tuple[int, ...]) -> Tensor:
    """Max over the given axes, keeping dims."""
    return x.max(axis=tuple(axes), keepdims=True)


def flatten(x: Tensor, start_axis: int = 1) -> Tensor:
    """Flatten all axes from ``start_axis`` onward."""
    lead = x.shape[:start_axis]
    return x.reshape(lead + (-1,))


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def group_norm(
    x: Tensor, groups: int, gamma: Tensor, beta: Tensor, eps: float = 1e-5
) -> Tensor:
    """Group normalisation over NCHW input.

    Normalises each sample's channel groups independently of the batch,
    so train/eval behaviour is identical -- a batch-size-robust
    alternative to batch norm for tiny-batch training.
    """
    if x.ndim != 4:
        raise ModelError("group_norm expects NCHW input")
    n, c, h, w = x.shape
    if c % groups != 0:
        raise ModelError(
            f"channels ({c}) must be divisible by groups ({groups})"
        )
    grouped = x.reshape(n, groups, c // groups, h, w)
    mean = grouped.mean(axis=(2, 3, 4), keepdims=True)
    centred = grouped - mean
    var = (centred * centred).mean(axis=(2, 3, 4), keepdims=True)
    normed = centred * ((var + eps) ** -0.5)
    out = normed.reshape(n, c, h, w)
    return out * gamma.reshape(1, c, 1, 1) + beta.reshape(1, c, 1, 1)
