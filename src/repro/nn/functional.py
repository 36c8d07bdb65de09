"""Raw-ndarray kernels and functional ops on autograd tensors.

Every convolution and attention layer runs through one raw-ndarray
kernel that both eager autograd (:func:`conv2d`,
:func:`conv_transpose2d`, :func:`spatial_attention`,
:func:`channel_attention`, :func:`frame_attention`) and the compiled
plan ops of :mod:`repro.nn.inference` call; the plan passes its arena
and folded weights, eager calls get fresh arrays. The kernels:

* :func:`conv2d_raw` -- pad -> im2col -> batched GEMM straight into
  NCHW; 1x1 stride-1 unpadded convs skip pad and im2col and run as a
  plain per-sample channel GEMM on ``x`` itself;
* :func:`conv_transpose2d_raw` -- sub-pixel (polyphase) transposed
  convolution: the ``s*s`` output phases of ``conv(zero-stuffed x)``
  are one GEMM over a small im2col of ``x`` itself, then a pixel
  shuffle interleaves them;
* :func:`band_conv2d_raw` -- a single-output-channel "same" conv as
  one GEMM of padded row segments with a banded weight matrix
  (:func:`conv_band`);
* :func:`spatial_attention_raw`, :func:`channel_attention_raw`,
  :func:`frame_attention_raw` -- each attention layer whole: pooling,
  conv or FC, sigmoid and rescale.

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
# In-place activations (plan epilogues)
# ----------------------------------------------------------------------
def relu_inplace(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0, out=x)


def sigmoid_inplace(x: np.ndarray) -> np.ndarray:
    """``1 / (1 + exp(-x))`` computed in place (``Tensor.sigmoid``'s
    exact formula)."""
    np.negative(x, out=x)
    np.exp(x, out=x)
    x += 1.0
    np.reciprocal(x, out=x)
    return x


# ----------------------------------------------------------------------
# Banded conv (the spatial-attention conv)
# ----------------------------------------------------------------------
def _diagonals(band4: np.ndarray, width: int) -> np.ndarray:
    """View ``v[c, i, j, w] = band4[c, i, w + j, w]`` of a
    ``(C, k, W+k-1, W)`` band: tap ``(i, j)`` of channel ``c`` along
    its diagonal."""
    c, k, _, _ = band4.shape
    s0, s1, s2, s3 = band4.strides
    return np.lib.stride_tricks.as_strided(
        band4, (c, k, k, width), (s0, s1, s2, s2 + s3)
    )


def conv_band(weight: np.ndarray, width: int) -> np.ndarray:
    """``(1, C, k, k)`` kernel -> ``(C*k*(W+k-1), W)`` banded GEMM weight.

    Row ``(c, i, m)`` holds ``weight[0, c, i, m - w]`` in column ``w``
    where ``0 <= m - w < k``, zero elsewhere, so a padded row segment
    times the band is that row's contribution to a "same" conv.
    """
    _, c, k, _ = weight.shape
    band = np.zeros((c, k, width + k - 1, width), weight.dtype)
    _diagonals(band, width)[...] = weight[0, :, :, :, None]
    return band.reshape(-1, width)


def conv_band_grad(g_band: np.ndarray, kernel: int) -> np.ndarray:
    """Adjoint of :func:`conv_band`: the ``(1, C, k, k)`` weight
    gradient is the band gradient summed along each tap's diagonal."""
    width = g_band.shape[1]
    g4 = g_band.reshape(-1, kernel, width + kernel - 1, width)
    return _diagonals(g4, width).sum(axis=-1)[None]


def _band_rows(padded: np.ndarray, kernel: int, out: np.ndarray) -> None:
    """Copy the ``k`` padded rows under each output row into ``out``,
    an ``(N*H, C*k*(W+k-1))`` buffer: one strided copy."""
    n, c, hp, wp = padded.shape
    h = hp - kernel + 1
    sn, sc, sh, sw = padded.strides
    view = np.lib.stride_tricks.as_strided(
        padded, (n, h, c, kernel, wp), (sn, sh, sc, sh, sw)
    )
    np.copyto(out.reshape(n, h, c, kernel, wp), view)


def band_conv2d_raw(
    padded: np.ndarray, band: np.ndarray, kernel: int,
    arena=FRESH, key: Tuple = (),
) -> np.ndarray:
    """Single-output "same" conv of a padded ``(N, C, H+k-1, W+k-1)``
    input as one GEMM: band rows ``(N*H, C*k*(W+k-1))`` times the
    :func:`conv_band` matrix. Returns the unbiased ``(N*H, W)`` output.
    """
    n, c, hp, wp = padded.shape
    h = hp - kernel + 1
    rows = arena.get(key + ("rows",), (n * h, c * kernel * wp), padded.dtype)
    _band_rows(padded, kernel, rows)
    out = arena.get(
        key + ("conv",), (n * h, band.shape[1]),
        np.result_type(padded.dtype, band.dtype),
    )
    np.matmul(rows, band, out=out)
    return out


def band_conv2d_grads(
    grad: np.ndarray, padded: np.ndarray, band: np.ndarray, kernel: int,
    need_x: bool = True,
) -> Tuple[Optional[np.ndarray], np.ndarray]:
    """Backward of :func:`band_conv2d_raw` given the ``(N*H, W)`` output
    gradient: ``(grad_padded or None, grad_band)``.

    The rows are rebuilt from ``padded``; ``rows.T @ grad`` is the band
    gradient (:func:`conv_band_grad` reads the weight gradient off it)
    and ``grad @ band.T`` the row gradient, which ``k`` strided adds
    scatter back into the padded input.
    """
    n, c, hp, wp = padded.shape
    h = hp - kernel + 1
    rows = np.empty((n * h, c * kernel * wp), padded.dtype)
    _band_rows(padded, kernel, rows)
    g_band = rows.T @ grad
    if not need_x:
        return None, g_band
    g_rows = (grad @ band.T).reshape(n, h, c, kernel, wp)
    g_pad = np.zeros(padded.shape, g_rows.dtype)
    for i in range(kernel):
        g_pad[:, :, i:i + h] += g_rows[:, :, :, i].transpose(0, 2, 1, 3)
    return g_pad, g_band


# ----------------------------------------------------------------------
# Attention kernels
# ----------------------------------------------------------------------
def _pool_grad(
    x: np.ndarray, peak: np.ndarray, g_max: np.ndarray,
    g_mean: np.ndarray, axis: Tuple[int, ...],
) -> np.ndarray:
    """Input gradient of ``max(x, axis)`` and ``mean(x, axis)`` given
    their gradients ``g_max`` and ``g_mean``; these and ``peak`` (the
    max itself) keep the reduced axes as size 1.

    Tied maxima share ``g_max`` equally, the rule of ``Tensor.max``
    (post-ReLU maps tie at 0); ties are counted in the gradient's dtype.
    """
    grad = np.equal(
        x, peak, out=np.empty(x.shape, g_max.dtype), casting="unsafe"
    )
    ties = grad.sum(axis=axis, keepdims=True)
    grad *= g_max / ties
    grad += g_mean * (ties.size / grad.size)
    return grad


def spatial_attention_raw(
    x: np.ndarray, band: np.ndarray, bias: np.ndarray, kernel: int,
    arena=FRESH, key: Tuple = (),
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Spatial attention (Eq. 6-7) on ``(N, C, H, W)``.

    The channel mean and max maps are pooled straight into a zero-padded
    ``(N, 2, H+k-1, W+k-1)`` buffer, the 2->1 "same" conv runs as one
    banded GEMM (``band`` from :func:`conv_band` of the ``(1, 2, k, k)``
    kernel, ``bias`` its ``(1,)`` bias), then the sigmoid and the
    rescale. Returns ``(out, padded, weights)``; the backward takes the
    last two back.
    """
    n, _, h, w = x.shape
    p = kernel // 2
    padded = arena.get(
        key + ("pad",), (n, 2, h + 2 * p, w + 2 * p), x.dtype, zero=True
    )
    np.mean(x, axis=1, out=padded[:, 0, p:p + h, p:p + w])
    np.max(x, axis=1, out=padded[:, 1, p:p + h, p:p + w])
    weights = band_conv2d_raw(padded, band, kernel, arena, key)
    weights += bias
    sigmoid_inplace(weights)
    weights = weights.reshape(n, 1, h, w)
    out = arena.get(
        key + ("out",), x.shape, np.result_type(x.dtype, weights.dtype)
    )
    np.multiply(x, weights, out=out)
    return out, padded, weights


def spatial_attention_grads(
    grad: np.ndarray, x: np.ndarray, padded: np.ndarray,
    weights: np.ndarray, band: np.ndarray, kernel: int,
    need_x: bool = True,
) -> Tuple[Optional[np.ndarray], np.ndarray, np.ndarray]:
    """Backward of :func:`spatial_attention_raw`:
    ``(grad_x or None, grad_band, grad_bias)``."""
    n, c, h, w = x.shape
    p = kernel // 2
    s = weights.reshape(n * h, w)
    g_conv = np.einsum("nchw,nchw->nhw", grad, x).reshape(n * h, w)
    g_conv *= s
    g_conv *= 1.0 - s
    g_bias = g_conv.sum(keepdims=True).reshape(1)
    g_pad, g_band = band_conv2d_grads(g_conv, padded, band, kernel, need_x)
    if not need_x:
        return None, g_band, g_bias
    g_maps = g_pad[:, :, p:p + h, p:p + w]
    gx = _pool_grad(
        x, padded[:, 1:, p:p + h, p:p + w], g_maps[:, 1:], g_maps[:, :1],
        (1,),
    )
    gx += grad * weights
    return gx, g_band, g_bias


def spatial_attention(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Autograd wrapper of :func:`spatial_attention_raw`; the band is
    built from ``weight`` on every call."""
    if x.ndim != 4:
        raise ModelError(
            f"spatial attention expects (N, C, H, W), got {x.shape}"
        )
    k = weight.shape[-1]
    if weight.shape != (1, 2, k, k) or k % 2 != 1:
        raise ModelError(
            f"spatial attention weight must be (1, 2, k, k) with odd k, "
            f"got {weight.shape}"
        )
    band = conv_band(weight.data, x.shape[3])
    out, padded, weights = spatial_attention_raw(x.data, band, bias.data, k)

    def backward(grad: np.ndarray) -> None:
        gx, g_band, g_bias = spatial_attention_grads(
            grad, x.data, padded, weights, band, k, need_x=x.requires_grad
        )
        if weight.requires_grad:
            weight._accumulate(conv_band_grad(g_band, k))
        if bias.requires_grad:
            bias._accumulate(g_bias)
        if gx is not None:
            x._accumulate(gx)

    return Tensor._make(out, (x, weight, bias), backward)


def channel_attention_raw(
    x: np.ndarray, w_t: np.ndarray, bias: np.ndarray,
    arena=FRESH, key: Tuple = (),
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Velocity-channel attention (Eq. 4-5) on ``(N, C, H, W)``.

    ``[GAP, GMP]`` features ``(N, 2C)`` through the FC (``w_t`` the
    ``(2C, C)`` transposed weight, ``bias`` ``(C,)``), the sigmoid and
    the per-channel rescale. Returns ``(out, features, weights)``.
    """
    n, c = x.shape[:2]
    dtype = np.result_type(x.dtype, w_t.dtype)
    features = arena.get(key + ("feat",), (n, 2 * c), x.dtype)
    np.mean(x, axis=(2, 3), out=features[:, :c])
    np.max(x, axis=(2, 3), out=features[:, c:])
    weights = arena.get(key + ("w",), (n, c), dtype)
    np.matmul(features, w_t, out=weights)
    weights += bias
    sigmoid_inplace(weights)
    out = arena.get(key + ("out",), x.shape, dtype)
    np.multiply(x, weights.reshape(n, c, 1, 1), out=out)
    return out, features, weights


def channel_attention_grads(
    grad: np.ndarray, x: np.ndarray, features: np.ndarray,
    weights: np.ndarray, w_t: np.ndarray, need_x: bool = True,
) -> Tuple[Optional[np.ndarray], np.ndarray, np.ndarray]:
    """Backward of :func:`channel_attention_raw`:
    ``(grad_x or None, grad_w_t, grad_bias)``."""
    n, c, h, w = x.shape
    g_fc = np.einsum("nchw,nchw->nc", grad, x)
    g_fc *= weights
    g_fc *= 1.0 - weights
    g_w_t = features.T @ g_fc
    g_bias = g_fc.sum(axis=0)
    if not need_x:
        return None, g_w_t, g_bias
    g_feat = (g_fc @ w_t.T).reshape(n, 2 * c, 1, 1)
    gx = _pool_grad(
        x, features[:, c:].reshape(n, c, 1, 1), g_feat[:, c:],
        g_feat[:, :c], (2, 3),
    )
    gx += grad * weights.reshape(n, c, 1, 1)
    return gx, g_w_t, g_bias


def channel_attention(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Autograd wrapper of :func:`channel_attention_raw`; ``weight`` is
    the ``(C, 2C)`` FC weight."""
    if x.ndim != 4 or weight.shape != (x.shape[1], 2 * x.shape[1]):
        raise ModelError(
            f"channel attention expects (N, C, H, W) input and a (C, 2C) "
            f"weight, got {x.shape} and {weight.shape}"
        )
    w_t = weight.data.T
    out, features, weights = channel_attention_raw(x.data, w_t, bias.data)

    def backward(grad: np.ndarray) -> None:
        gx, g_w_t, g_bias = channel_attention_grads(
            grad, x.data, features, weights, w_t, need_x=x.requires_grad
        )
        if weight.requires_grad:
            weight._accumulate(g_w_t.T)
        if bias.requires_grad:
            bias._accumulate(g_bias)
        if gx is not None:
            x._accumulate(gx)

    return Tensor._make(out, (x, weight, bias), backward)


_FRAME_AXES = (2, 3, 4)


def frame_attention_raw(
    x: np.ndarray, w1: np.ndarray, b1: np.ndarray, w2: np.ndarray,
    b2: np.ndarray, arena=FRESH, key: Tuple = (),
) -> Tuple[np.ndarray, Tuple[np.ndarray, ...]]:
    """Frame attention (Eq. 2-3) on ``(B, st, V, D, A)``.

    Each frame's TGAP + TGMP forms a ``(B, 1, 1, st)`` sequence; two
    3x3 "same" convs (``w1``/``w2`` flat GEMM weights, ``b1``/``b2``
    bias columns) with a ReLU between and a sigmoid after give the
    per-frame weights that rescale ``x``. Returns ``(out, saved)``;
    :func:`frame_attention_grads` takes ``saved`` back.
    """
    b, st = x.shape[:2]
    peak = arena.get(key + ("peak",), (b, st), x.dtype)
    pooled = arena.get(key + ("pool",), (b, st), x.dtype)
    np.max(x, axis=_FRAME_AXES, out=peak)
    np.mean(x, axis=_FRAME_AXES, out=pooled)
    pooled += peak
    hidden, cols1 = conv2d_raw(
        pooled.reshape(b, 1, 1, st), w1, b1, 3, 3, 1, 1, arena,
        key + ("c1",), relu_inplace,
    )
    weights, cols2 = conv2d_raw(
        hidden, w2, b2, 3, 3, 1, 1, arena, key + ("c2",), sigmoid_inplace,
    )
    out = arena.get(
        key + ("out",), x.shape, np.result_type(x.dtype, weights.dtype)
    )
    np.multiply(x, weights.reshape(b, st, 1, 1, 1), out=out)
    return out, (peak, hidden, cols1, cols2, weights.reshape(b, st))


def frame_attention_grads(
    grad: np.ndarray, x: np.ndarray, saved: Tuple[np.ndarray, ...],
    w1: np.ndarray, w2: np.ndarray, need_x: bool = True,
) -> Tuple[Optional[np.ndarray], Tuple[np.ndarray, ...]]:
    """Backward of :func:`frame_attention_raw`:
    ``(grad_x or None, (grad_w1, grad_b1, grad_w2, grad_b2))`` with the
    weight gradients in flat GEMM form."""
    peak, hidden, cols1, cols2, weights = saved
    b, st = x.shape[:2]
    g_seq = np.einsum("bsvda,bsvda->bs", grad, x)
    g_seq *= weights
    g_seq *= 1.0 - weights
    g_seq = g_seq.reshape(b, 1, 1, st)
    g_hidden, gw2 = conv2d_grads(g_seq, hidden.shape, w2, cols2, 3, 3, 1, 1)
    g_hidden *= hidden > 0
    g_pool, gw1 = conv2d_grads(
        g_hidden, (b, 1, 1, st), w1, cols1, 3, 3, 1, 1, need_x=need_x
    )
    param_grads = (
        gw1, g_hidden.sum(axis=(0, 2, 3)), gw2, g_seq.sum(axis=(0, 2, 3))
    )
    if not need_x:
        return None, param_grads
    g_pool = g_pool.reshape(b, st, 1, 1, 1)
    gx = _pool_grad(
        x, peak.reshape(b, st, 1, 1, 1), g_pool, g_pool, _FRAME_AXES
    )
    gx += grad * weights.reshape(b, st, 1, 1, 1)
    return gx, param_grads


def frame_attention(
    x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor
) -> Tensor:
    """Autograd wrapper of :func:`frame_attention_raw`; ``w1``/``w2`` are
    the ``(O, C, 3, 3)`` conv kernels and ``b1``/``b2`` their biases."""
    if x.ndim != 5:
        raise ModelError(
            f"frame attention expects (B, st, V, D, A), got {x.shape}"
        )
    params = (w1, b1, w2, b2)
    w1_flat = w1.data.reshape(w1.shape[0], -1)
    w2_flat = w2.data.reshape(w2.shape[0], -1)
    out, saved = frame_attention_raw(
        x.data, w1_flat, b1.data.reshape(-1, 1), w2_flat,
        b2.data.reshape(-1, 1),
    )

    def backward(grad: np.ndarray) -> None:
        gx, param_grads = frame_attention_grads(
            grad, x.data, saved, w1_flat, w2_flat, need_x=x.requires_grad
        )
        for param, g in zip(params, param_grads):
            if param.requires_grad:
                param._accumulate(g.reshape(param.shape))
        if gx is not None:
            x._accumulate(gx)

    return Tensor._make(out, (x,) + params, backward)


def batch_norm_affine(
    gamma: np.ndarray, beta: np.ndarray, mean: np.ndarray,
    var: np.ndarray, eps: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Eval-mode batch norm as a per-channel affine ``x*scale + shift``."""
    scale = gamma / np.sqrt(var + eps)
    return scale, beta - mean * scale


def batch_norm2d_raw(
    x: np.ndarray, scale: np.ndarray, shift: np.ndarray,
    arena=FRESH, key: Tuple = (), epilogue: Epilogue = None,
) -> np.ndarray:
    """Eval-mode batch norm ``x*scale + shift`` per NCHW channel (see
    :func:`batch_norm_affine`), then ``epilogue`` in place."""
    c = x.shape[1]
    out = arena.get(
        key + ("out",), x.shape, np.result_type(x.dtype, scale.dtype)
    )
    np.multiply(x, scale.reshape(1, c, 1, 1), out=out)
    out += shift.reshape(1, c, 1, 1)
    if epilogue is not None:
        epilogue(out)
    return out


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
    not); with running statistics the forward is the plan's kernel,
    :func:`batch_norm2d_raw`. Fusing the op avoids the long elementwise
    autograd chains the naive formulation creates.
    """
    if x.ndim != 4:
        raise ModelError("batch_norm2d expects NCHW input")
    n, c, h, w = x.shape
    inv_std = (1.0 / np.sqrt(var + eps)).reshape(1, c, 1, 1)
    mean4 = mean.reshape(1, c, 1, 1)
    if batch_stats:
        xhat = x.data - mean4
        xhat *= inv_std
        out_data = xhat * gamma.data.reshape(1, c, 1, 1)
        out_data += beta.data.reshape(1, c, 1, 1)
    else:
        xhat = None  # recomputed in backward if gamma needs it
        out_data = batch_norm2d_raw(
            x.data, *batch_norm_affine(gamma.data, beta.data, mean, var, eps)
        )
    m = n * h * w

    def backward(grad: np.ndarray) -> None:
        xh = xhat if xhat is not None else (x.data - mean4) * inv_std
        sum_g = grad.sum(axis=(0, 2, 3))
        sum_gx = np.einsum("nchw,nchw->c", grad, xh)
        if gamma.requires_grad:
            gamma._accumulate(sum_gx)
        if beta.requires_grad:
            beta._accumulate(sum_g)
        if x.requires_grad:
            scale = gamma.data.reshape(1, c, 1, 1) * inv_std
            if batch_stats:
                gx = xh * (-sum_gx / m).reshape(1, c, 1, 1)
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
