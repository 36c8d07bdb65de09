"""Compiled autograd-free inference plans.

:func:`compile_model` traces a :class:`~repro.nn.layers.Module` into a
flat :class:`ForwardPlan` of raw-ndarray ops -- no per-op ``Tensor``
allocation, no parent tuples, no backward closures. The compiler applies
the classic serving-side optimisations:

* **Conv+BN folding** -- an eval-mode ``BatchNorm2d`` following a
  ``Conv2d`` / ``ConvTranspose2d`` collapses into the conv's weights and
  bias (``W' = W * gamma/sqrt(var+eps)``, ``b' = (b-mean)*scale+beta``);
  transposed convs then store the folded kernel in sub-pixel form;
* **ReLU/sigmoid fusion** -- activations run in place on the GEMM output
  instead of allocating a fresh array per op;
* **pre-flattened weights** -- conv kernels are stored as contiguous
  ``(O, C*kh*kw)`` GEMM operands and linear/LSTM weights pre-transposed;
  the conv and attention ops run the same raw kernels as eager autograd
  (:mod:`repro.nn.functional`), with arena buffers;
* **static memory planning** -- a probe execution records every scratch
  request, a liveness pass computes each buffer's ``[first, last]`` op
  interval, and greedy interval-graph coloring packs the buffers into a
  small set of reused slabs (:class:`MemoryPlan` / :class:`PlannedArena`),
  typically a large cut versus one buffer per request.

A plan runs in float32 on the calling thread; processes (the gateway's
workers) are the unit of parallelism.

Folded weights are memoized against the sum of the source parameters'
:attr:`~repro.nn.tensor.Tensor.version` counters (bumped by optimizer
steps and ``load_state_dict``), so a live trainer and a serving plan can
share one module: the next compiled call after a weight update refolds.

Plans are also *portable*: every op exposes ``export_state`` /
``restore`` so :mod:`repro.nn.serialization` can write a compiled plan
(ops, folded weights, memory plans) to a versioned on-disk
artifact and rebuild a detached :class:`CompiledModel` in another
process without retracing or refolding.

Composite modules (the mmSpaceNet residual blocks, the regressor, ...)
participate by defining ``compile_plan(self, builder, reg) -> reg``;
anything the compiler cannot handle raises
:class:`~repro.errors.InferenceCompileError` and callers fall back to
the eager forward under :func:`~repro.nn.tensor.no_grad`.
"""

from __future__ import annotations

import threading
import time
import weakref
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import InferenceCompileError, ModelError, SerializationError
from repro.nn.attention import (
    FrameAttention,
    SpatialAttention,
    VelocityChannelAttention,
)
from repro.nn import functional as F
from repro.nn.layers import (
    BatchNorm2d,
    Conv2d,
    ConvTranspose2d,
    Dropout,
    Linear,
    Module,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
)
from repro.nn.rnn import LSTM
from repro.obs import metrics as obs_metrics
from repro.obs import trace


def _reshape_fn_from_spec(spec) -> Callable:
    """Rebuild a reshape's shape function from its declarative spec."""
    kind, args = spec[0], tuple(spec[1:])
    if kind == "promote4":
        return lambda s: (1, *s) if len(s) == 4 else tuple(s)
    if kind == "merge01":
        return lambda s: (s[0] * s[1], *s[2:])
    if kind == "tail":
        return lambda s: (s[0], *args)
    if kind == "split0":
        return lambda s: (s[0] // args[0], *args)
    raise SerializationError(f"unknown reshape spec {list(spec)!r}")


def _check_fn_from_spec(spec: Dict[str, Any]) -> Callable:
    """Rebuild a shape-check function from its declarative spec."""
    ndim = spec.get("ndim")
    eq = [tuple(pair) for pair in spec.get("eq", [])]
    div = [tuple(pair) for pair in spec.get("div", [])]

    def check(shape: Tuple[int, ...]) -> None:
        if ndim is not None and len(shape) != ndim:
            raise ModelError(
                f"plan expects a rank-{ndim} input, got {shape}"
            )
        for axis, want in eq:
            if shape[axis] != want:
                raise ModelError(
                    f"plan expects shape[{axis}] == {want}, got {shape}"
                )
        for axis, factor in div:
            if shape[axis] % factor:
                raise ModelError(
                    f"plan expects shape[{axis}] divisible by {factor}, "
                    f"got {shape}"
                )

    return check


# ----------------------------------------------------------------------
# Plan ops
# ----------------------------------------------------------------------
class PlanOp:
    """One flat step of a forward plan: read ``src`` regs, write ``dst``.

    Ops are *portable*: ``export_state`` emits the scalar attrs named in
    ``export_attrs`` plus the folded-weight arrays named in
    ``export_arrays``, and ``restore`` rebuilds a detached op from them.
    Detached ops hold no live module references, so ``refold`` is a
    no-op and the op never tracks parameter versions.
    """

    name = "op"
    export_attrs: Tuple[str, ...] = ()
    export_arrays: Tuple[str, ...] = ()

    def __init__(self, op_id: int, src: int, dst: int) -> None:
        self.op_id = op_id
        self.src = src
        self.dst = dst
        self._detached = False

    def reads(self) -> Tuple[int, ...]:
        """Registers this op reads (used by the liveness analysis)."""
        return (self.src,)

    def refold(self) -> None:
        """Recompute folded weights from the live source parameters."""

    def run(self, regs: List, arena) -> None:
        raise NotImplementedError

    # -- portability ----------------------------------------------------
    def export_state(self) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
        self._check_exportable()
        meta: Dict[str, Any] = {
            "type": self.name,
            "op_id": self.op_id,
            "src": self.src,
            "dst": self.dst,
        }
        for attr in self.export_attrs:
            meta[attr] = getattr(self, attr)
        arrays = {}
        for attr in self.export_arrays:
            val = getattr(self, attr)
            if val is not None:
                arrays[attr] = val
        return meta, arrays

    def _check_exportable(self) -> None:
        """Hook for ops that need extra state to be serializable."""

    @classmethod
    def restore(
        cls, meta: Dict[str, Any], arrays: Dict[str, np.ndarray]
    ) -> "PlanOp":
        op = cls.__new__(cls)
        op.op_id = int(meta["op_id"])
        op.src = int(meta["src"])
        op.dst = int(meta["dst"])
        op._detached = True
        for attr in cls.export_attrs:
            setattr(op, attr, meta[attr])
        for attr in cls.export_arrays:
            setattr(op, attr, arrays.get(attr))
        op._finish_restore(meta)
        return op

    def _finish_restore(self, meta: Dict[str, Any]) -> None:
        """Hook to null module refs / rebuild derived callables."""


def _fold_conv(
    conv: Conv2d, bn: Optional[BatchNorm2d]
) -> Tuple[np.ndarray, np.ndarray]:
    """Pre-flattened GEMM weight and bias column, with BN folded in."""
    w = conv.weight.data
    o = w.shape[0]
    b = (
        conv.bias.data
        if conv.bias is not None
        else np.zeros(o, dtype=w.dtype)
    )
    if bn is not None:
        scale = bn.gamma.data / np.sqrt(bn.running_var + bn.eps)
        w = w * scale[:, None, None, None]
        b = (b - bn.running_mean) * scale + bn.beta.data
    w_flat = np.ascontiguousarray(w.reshape(o, -1))
    return w_flat, np.ascontiguousarray(b.reshape(o, 1))


class ConvOp(PlanOp):
    """Conv2d with pre-flattened weights, folded BN, fused activation."""

    name = "conv2d"
    export_attrs = ("kh", "kw", "stride", "padding", "relu")
    export_arrays = ("w_flat", "bias_col")

    def __init__(
        self,
        op_id: int,
        src: int,
        dst: int,
        conv: Conv2d,
        bn: Optional[BatchNorm2d] = None,
        relu: bool = False,
    ) -> None:
        super().__init__(op_id, src, dst)
        self.conv = conv
        self.bn = bn
        self.relu = relu
        self.kh, self.kw = conv.weight.data.shape[2:]
        self.stride = conv.stride
        self.padding = conv.padding
        self.refold()

    def refold(self) -> None:
        if self._detached:
            return
        self.w_flat, self.bias_col = _fold_conv(self.conv, self.bn)

    def _finish_restore(self, meta: Dict[str, Any]) -> None:
        self.conv = None
        self.bn = None

    def run(self, regs: List, arena) -> None:
        regs[self.dst], _ = F.conv2d_raw(
            regs[self.src], self.w_flat, self.bias_col, self.kh, self.kw,
            self.stride, self.padding, arena, (self.op_id,),
            F.relu_inplace if self.relu else None,
        )


class ConvTransposeOp(ConvOp):
    """ConvTranspose2d as one sub-pixel GEMM (folded BN, fused ReLU).

    ``w_flat`` is the folded kernel in sub-pixel form
    (:func:`~repro.nn.functional.subpixel_weight`) and ``bias_col`` the
    folded bias tiled once per output phase.
    """

    name = "conv_transpose2d"
    export_attrs = ("kernel", "stride", "relu")

    def __init__(
        self,
        op_id: int,
        src: int,
        dst: int,
        deconv: ConvTranspose2d,
        bn: Optional[BatchNorm2d] = None,
        relu: bool = False,
    ) -> None:
        PlanOp.__init__(self, op_id, src, dst)
        self.conv = deconv.conv
        self.bn = bn
        self.relu = relu
        self.kernel = deconv.conv.weight.data.shape[2]
        self.stride = deconv.stride
        self.refold()

    def refold(self) -> None:
        if self._detached:
            return
        w_flat, bias_col = _fold_conv(self.conv, self.bn)
        self.w_flat = F.subpixel_weight(
            w_flat.reshape(self.conv.weight.data.shape), self.stride
        )
        self.bias_col = np.tile(bias_col, (self.stride ** 2, 1))

    def run(self, regs: List, arena) -> None:
        regs[self.dst], _ = F.conv_transpose2d_raw(
            regs[self.src], self.w_flat, self.bias_col, self.kernel,
            self.stride, arena, (self.op_id,),
            F.relu_inplace if self.relu else None,
        )


class BatchNormOp(PlanOp):
    """Standalone eval-mode BatchNorm2d (only when no conv precedes it)."""

    name = "batch_norm2d"
    export_attrs = ("relu",)
    export_arrays = ("scale", "shift")

    def __init__(
        self, op_id: int, src: int, dst: int, bn: BatchNorm2d,
        relu: bool = False,
    ) -> None:
        super().__init__(op_id, src, dst)
        self.bn = bn
        self.relu = relu
        self.refold()

    def refold(self) -> None:
        if self._detached:
            return
        bn = self.bn
        inv_std = 1.0 / np.sqrt(bn.running_var + bn.eps)
        self.scale = (bn.gamma.data * inv_std).reshape(1, -1, 1, 1)
        self.shift = (
            bn.beta.data - bn.running_mean * bn.gamma.data * inv_std
        ).reshape(1, -1, 1, 1)

    def _finish_restore(self, meta: Dict[str, Any]) -> None:
        self.bn = None

    def run(self, regs: List, arena) -> None:
        x = regs[self.src]
        dtype = np.result_type(x.dtype, self.scale.dtype)
        out = arena.get((self.op_id, "out"), x.shape, dtype)
        np.multiply(x, self.scale, out=out)
        out += self.shift
        if self.relu:
            np.maximum(out, 0.0, out=out)
        regs[self.dst] = out


class ActivationOp(PlanOp):
    """Standalone relu / sigmoid / tanh when fusion was not possible."""

    name = "activation"
    export_attrs = ("kind",)

    def __init__(self, op_id: int, src: int, dst: int, kind: str) -> None:
        super().__init__(op_id, src, dst)
        self.kind = kind

    def run(self, regs: List, arena) -> None:
        x = regs[self.src]
        out = arena.get((self.op_id, "out"), x.shape, x.dtype)
        if self.kind == "relu":
            np.maximum(x, 0.0, out=out)
        elif self.kind == "sigmoid":
            np.copyto(out, x)
            F.sigmoid_inplace(out)
        else:  # tanh
            np.tanh(x, out=out)
        regs[self.dst] = out


class AddReluOp(PlanOp):
    """``relu(a + b)`` -- the residual merge of the hourglass blocks."""

    name = "add_relu"
    export_attrs = ("other",)

    def __init__(self, op_id: int, src: int, other: int, dst: int) -> None:
        super().__init__(op_id, src, dst)
        self.other = other

    def reads(self) -> Tuple[int, ...]:
        return (self.src, self.other)

    def run(self, regs: List, arena) -> None:
        a, b = regs[self.src], regs[self.other]
        out = arena.get(
            (self.op_id, "out"), a.shape, np.result_type(a.dtype, b.dtype)
        )
        np.add(a, b, out=out)
        np.maximum(out, 0.0, out=out)
        regs[self.dst] = out


class LinearOp(PlanOp):
    """GEMM with pre-transposed weight and fused activation epilogue."""

    name = "linear"
    export_attrs = ("relu",)
    export_arrays = ("w_t", "bias")

    def __init__(
        self, op_id: int, src: int, dst: int, linear: Linear,
        relu: bool = False,
    ) -> None:
        super().__init__(op_id, src, dst)
        self.linear = linear
        self.relu = relu
        self.refold()

    def refold(self) -> None:
        if self._detached:
            return
        self.w_t = np.ascontiguousarray(self.linear.weight.data.T)
        self.bias = (
            self.linear.bias.data if self.linear.bias is not None else None
        )

    def _finish_restore(self, meta: Dict[str, Any]) -> None:
        self.linear = None

    def run(self, regs: List, arena) -> None:
        x = regs[self.src]
        dtype = np.result_type(x.dtype, self.w_t.dtype)
        out = arena.get(
            (self.op_id, "out"), (x.shape[0], self.w_t.shape[1]), dtype
        )
        np.matmul(x, self.w_t, out=out)
        if self.bias is not None:
            out += self.bias
        if self.relu:
            np.maximum(out, 0.0, out=out)
        regs[self.dst] = out


class ReshapeOp(PlanOp):
    """View reshape; ``shape_fn`` maps the input shape to the new one.

    ``spec`` is the declarative form (e.g. ``("merge01",)``) used when
    the plan is exported; detached restores rebuild ``shape_fn`` from it.
    """

    name = "reshape"
    export_attrs = ("spec",)

    def __init__(
        self, op_id: int, src: int, dst: int,
        shape_fn: Callable[[Tuple[int, ...]], Tuple[int, ...]],
        spec: Optional[Tuple] = None,
    ) -> None:
        super().__init__(op_id, src, dst)
        self.shape_fn = shape_fn
        self.spec = tuple(spec) if spec is not None else None

    def _check_exportable(self) -> None:
        if self.spec is None:
            raise SerializationError(
                f"reshape op {self.op_id} has no declarative spec and "
                "cannot be exported"
            )

    def _finish_restore(self, meta: Dict[str, Any]) -> None:
        self.spec = tuple(self.spec)
        self.shape_fn = _reshape_fn_from_spec(self.spec)

    def run(self, regs: List, arena) -> None:
        x = regs[self.src]
        regs[self.dst] = x.reshape(self.shape_fn(x.shape))


class CheckShapeOp(PlanOp):
    """Input validation matching the eager module's error messages.

    ``spec`` is the declarative constraint set (``ndim`` / ``eq`` /
    ``div``) exported with the plan; restored plans validate with a
    generic message rebuilt from it.
    """

    name = "check_shape"
    export_attrs = ("spec",)

    def __init__(
        self, op_id: int, src: int,
        check_fn: Callable[[Tuple[int, ...]], None],
        spec: Optional[Dict[str, Any]] = None,
    ) -> None:
        super().__init__(op_id, src, src)
        self.check_fn = check_fn
        self.spec = spec

    def _check_exportable(self) -> None:
        if self.spec is None:
            raise SerializationError(
                f"check_shape op {self.op_id} has no declarative spec "
                "and cannot be exported"
            )

    def _finish_restore(self, meta: Dict[str, Any]) -> None:
        self.check_fn = _check_fn_from_spec(self.spec)

    def run(self, regs: List, arena) -> None:
        self.check_fn(regs[self.src].shape)


class FrameAttentionOp(PlanOp):
    """Eq. 2-3: per-frame weights from TGAP+TGMP through two tiny convs."""

    name = "frame_attention"
    export_arrays = ("w1", "b1", "w2", "b2")

    def __init__(
        self, op_id: int, src: int, dst: int, module: FrameAttention
    ) -> None:
        super().__init__(op_id, src, dst)
        self.module = module
        self.refold()

    def refold(self) -> None:
        if self._detached:
            return
        self.w1, self.b1 = _fold_conv(self.module.conv1, None)
        self.w2, self.b2 = _fold_conv(self.module.conv2, None)

    def _finish_restore(self, meta: Dict[str, Any]) -> None:
        self.module = None

    def run(self, regs: List, arena) -> None:
        regs[self.dst], _ = F.frame_attention_raw(
            regs[self.src], self.w1, self.b1, self.w2, self.b2, arena,
            (self.op_id,),
        )


class VelocityChannelAttentionOp(PlanOp):
    """Eq. 4-5: per-channel weights from GAP||GMP through one FC."""

    name = "velocity_channel_attention"
    export_arrays = ("w_t", "bias")

    def __init__(
        self, op_id: int, src: int, dst: int,
        module: VelocityChannelAttention,
    ) -> None:
        super().__init__(op_id, src, dst)
        self.module = module
        self.refold()

    def refold(self) -> None:
        if self._detached:
            return
        self.w_t = np.ascontiguousarray(self.module.fc.weight.data.T)
        self.bias = self.module.fc.bias.data

    def _finish_restore(self, meta: Dict[str, Any]) -> None:
        self.module = None

    def run(self, regs: List, arena) -> None:
        regs[self.dst], _, _ = F.channel_attention_raw(
            regs[self.src], self.w_t, self.bias, arena, (self.op_id,)
        )


class SpatialAttentionOp(PlanOp):
    """Eq. 6-7: range-angle weights from channel mean/max maps.

    Runs the eager kernel
    (:func:`~repro.nn.functional.spatial_attention_raw`) with the banded
    conv weight cached per input width; ``refold`` rebuilds the cached
    bands.
    """

    name = "spatial_attention"
    export_arrays = ("weight", "bias")

    def __init__(
        self, op_id: int, src: int, dst: int, module: SpatialAttention
    ) -> None:
        super().__init__(op_id, src, dst)
        self.module = module
        self._bands: Dict[int, np.ndarray] = {}
        self.refold()

    def refold(self) -> None:
        if self._detached:
            return
        conv = self.module.conv
        self.weight = np.array(conv.weight.data)
        self.bias = np.array(conv.bias.data)
        self._bands = {
            width: F.conv_band(self.weight, width)
            for width in self._bands
        }

    def _finish_restore(self, meta: Dict[str, Any]) -> None:
        self.module = None
        self._bands = {}

    def run(self, regs: List, arena) -> None:
        x = regs[self.src]
        width = x.shape[3]
        band = self._bands.get(width)
        if band is None:
            band = self._bands[width] = F.conv_band(self.weight, width)
        regs[self.dst], _, _ = F.spatial_attention_raw(
            x, band, self.bias, self.weight.shape[-1], arena,
            (self.op_id,),
        )


class LSTMOp(PlanOp):
    """Single-layer LSTM returning the final hidden state ``(B, H)``.

    The input projection for *all* timesteps runs as one GEMM up front
    (``(B*T, in) @ (in, 4H)``); the recurrence then only pays the small
    ``(B, H) @ (H, 4H)`` GEMM and in-place gate math per step.
    """

    name = "lstm"
    export_attrs = ("hidden_size",)
    export_arrays = ("w_ih_t", "w_hh_t", "bias")

    def __init__(
        self, op_id: int, src: int, dst: int, lstm: LSTM
    ) -> None:
        super().__init__(op_id, src, dst)
        self.lstm = lstm
        self.hidden_size = lstm.hidden_size
        self.refold()

    def refold(self) -> None:
        if self._detached:
            return
        self.w_ih_t = np.ascontiguousarray(self.lstm.w_ih.data.T)
        self.w_hh_t = np.ascontiguousarray(self.lstm.w_hh.data.T)
        self.bias = self.lstm.bias.data

    def _finish_restore(self, meta: Dict[str, Any]) -> None:
        self.lstm = None
        self.hidden_size = int(self.hidden_size)

    def run(self, regs: List, arena) -> None:
        x = regs[self.src]
        key = (self.op_id,)
        b, steps, _ = x.shape
        h_dim = self.hidden_size
        gates_dim = 4 * h_dim
        dtype = np.result_type(x.dtype, self.w_ih_t.dtype)
        xw = arena.get(key + ("xw",), (b * steps, gates_dim), dtype)
        np.matmul(x.reshape(b * steps, -1), self.w_ih_t, out=xw)
        xw3 = xw.reshape(b, steps, gates_dim)
        h = arena.get(key + ("h",), (b, h_dim), dtype)
        c = arena.get(key + ("c",), (b, h_dim), dtype)
        h.fill(0.0)
        c.fill(0.0)
        gates = arena.get(key + ("gates",), (b, gates_dim), dtype)
        tmp = arena.get(key + ("tmp",), (b, h_dim), dtype)
        for t in range(steps):
            np.matmul(h, self.w_hh_t, out=gates)
            gates += xw3[:, t]
            gates += self.bias
            i_gate = F.sigmoid_inplace(gates[:, 0:h_dim])
            f_gate = F.sigmoid_inplace(gates[:, h_dim:2 * h_dim])
            g_gate = np.tanh(
                gates[:, 2 * h_dim:3 * h_dim],
                out=gates[:, 2 * h_dim:3 * h_dim],
            )
            o_gate = F.sigmoid_inplace(gates[:, 3 * h_dim:4 * h_dim])
            np.multiply(f_gate, c, out=c)
            np.multiply(i_gate, g_gate, out=tmp)
            c += tmp
            np.tanh(c, out=tmp)
            np.multiply(o_gate, tmp, out=h)
        regs[self.dst] = h


OP_TYPES: Dict[str, type] = {
    cls.name: cls
    for cls in (
        ConvOp,
        ConvTransposeOp,
        BatchNormOp,
        ActivationOp,
        AddReluOp,
        LinearOp,
        ReshapeOp,
        CheckShapeOp,
        FrameAttentionOp,
        VelocityChannelAttentionOp,
        SpatialAttentionOp,
        LSTMOp,
    )
}
"""Registry used by :mod:`repro.nn.serialization` to restore plan ops."""


# ----------------------------------------------------------------------
# Static memory planning
# ----------------------------------------------------------------------
class _BufRecord:
    """One scratch request observed during a probe execution."""

    __slots__ = ("key", "shape", "dtype", "zero", "start", "end",
                 "nbytes", "array")

    def __init__(self, key, shape, dtype, zero, start, array) -> None:
        self.key = key
        self.shape = tuple(shape)
        self.dtype = np.dtype(dtype)
        self.zero = zero
        self.start = start
        self.end = start
        self.nbytes = array.nbytes
        self.array = array


class _RecordingArena:
    """Arena stand-in that logs every request during the probe run."""

    def __init__(self) -> None:
        self.records: List[_BufRecord] = []
        self.op_index = 0

    def get(
        self, key: Tuple, shape: Tuple[int, ...], dtype,
        zero: bool = False,
    ) -> np.ndarray:
        arr = np.zeros(shape, dtype) if zero else np.empty(shape, dtype)
        self.records.append(
            _BufRecord(key, shape, dtype, zero, self.op_index, arr)
        )
        return arr


def _root_base(arr: np.ndarray) -> np.ndarray:
    """Walk the view chain back to the owning allocation."""
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


class MemoryPlan:
    """Static buffer assignment for one input ``(shape, dtype)``.

    ``slot_sizes`` are the byte sizes of the shared slabs;
    ``assignments`` maps each arena key to ``(slot, shape, dtype,
    zero)``. ``arena_bytes`` is what one buffer per request would
    allocate for the same run, so ``planned_bytes / arena_bytes`` is
    the packing ratio.
    """

    def __init__(
        self,
        signature: Tuple,
        slot_sizes: List[int],
        assignments: Dict[Tuple, Tuple[int, Tuple[int, ...], str, bool]],
        arena_bytes: int,
    ) -> None:
        self.signature = signature
        self.slot_sizes = slot_sizes
        self.assignments = assignments
        self.arena_bytes = arena_bytes

    @property
    def planned_bytes(self) -> int:
        return sum(self.slot_sizes)

    def to_meta(self) -> Dict[str, Any]:
        """JSON-able form for the on-disk plan artifact."""
        return {
            "signature": [list(self.signature[0]), self.signature[1]],
            "slot_sizes": list(self.slot_sizes),
            "arena_bytes": int(self.arena_bytes),
            "assignments": [
                {
                    "key": list(key),
                    "slot": slot,
                    "shape": list(shape),
                    "dtype": dtype,
                    "zero": zero,
                }
                for key, (slot, shape, dtype, zero)
                in self.assignments.items()
            ],
        }

    @classmethod
    def from_meta(cls, meta: Dict[str, Any]) -> "MemoryPlan":
        sig = meta["signature"]
        assignments = {
            tuple(entry["key"]): (
                int(entry["slot"]),
                tuple(entry["shape"]),
                entry["dtype"],
                bool(entry["zero"]),
            )
            for entry in meta["assignments"]
        }
        return cls(
            (tuple(sig[0]), sig[1]),
            [int(s) for s in meta["slot_sizes"]],
            assignments,
            int(meta["arena_bytes"]),
        )


def _color_buffers(
    records: List[_BufRecord], signature: Tuple
) -> MemoryPlan:
    """Greedy interval-graph coloring of buffer lifetimes into slabs.

    Buffers are processed in interval-start order (largest first on
    ties); each takes the tightest-fitting free slab, or grows the
    largest free one, or opens a new slab. A slab freed by a buffer last
    used at op ``end`` becomes reusable at op ``end + 1``, so a buffer
    read at op ``j`` never shares with one written at op ``j``.
    """
    slots: List[List[int]] = []  # [size, free_at]
    assignments: Dict[Tuple, Tuple[int, Tuple[int, ...], str, bool]] = {}
    for rec in sorted(records, key=lambda r: (r.start, -r.nbytes)):
        candidates = [
            (size, idx) for idx, (size, free_at) in enumerate(slots)
            if free_at <= rec.start
        ]
        fits = [c for c in candidates if c[0] >= rec.nbytes]
        if fits:
            idx = min(fits)[1]
        elif candidates:
            idx = max(candidates)[1]
        else:
            slots.append([0, 0])
            idx = len(slots) - 1
        slots[idx][0] = max(slots[idx][0], rec.nbytes)
        slots[idx][1] = rec.end + 1
        assignments[rec.key] = (
            idx, rec.shape, str(rec.dtype), rec.zero
        )
    return MemoryPlan(
        signature,
        [size for size, _ in slots],
        assignments,
        arena_bytes=sum(r.nbytes for r in records),
    )


class PlannedArena:
    """Executes a :class:`MemoryPlan`: pre-built views over shared slabs.

    ``zero=True`` buffers are re-zeroed on *every* acquisition: the
    underlying slab is shared, so zeros from a previous op do not
    persist. Requests the plan has never seen (shape drift, new op) get
    a fresh array instead of corrupting a slab.
    """

    def __init__(self, plan: MemoryPlan) -> None:
        self.plan = plan
        self._slabs = [
            np.empty(size, dtype=np.uint8) for size in plan.slot_sizes
        ]
        self._views: Dict[Tuple, Tuple[np.ndarray, bool]] = {}
        for key, (slot, shape, dtype, zero) in plan.assignments.items():
            view = np.ndarray(shape, dtype=dtype,
                              buffer=self._slabs[slot])
            self._views[key] = (view, zero)

    def get(
        self, key: Tuple, shape: Tuple[int, ...], dtype,
        zero: bool = False,
    ) -> np.ndarray:
        entry = self._views.get(key)
        if entry is not None:
            view, planned_zero = entry
            if view.shape == tuple(shape) and view.dtype == dtype:
                if zero:
                    view.fill(0)
                return view
        return np.zeros(shape, dtype) if zero else np.empty(shape, dtype)


# ----------------------------------------------------------------------
# Plan builder / compiler
# ----------------------------------------------------------------------
class PlanBuilder:
    """Accumulates the flat op list while the module tree is walked.

    Composite modules call back into the builder from their
    ``compile_plan(builder, reg)`` hooks; the emit helpers return the
    output register index of the op they appended.
    """

    def __init__(self) -> None:
        self.ops: List[PlanOp] = []
        self.num_regs = 1  # register 0 is the plan input

    def _new_reg(self) -> int:
        reg = self.num_regs
        self.num_regs += 1
        return reg

    def _emit(self, make_op) -> int:
        dst = self._new_reg()
        self.ops.append(make_op(len(self.ops), dst))
        return dst

    # -- emit helpers ---------------------------------------------------
    def conv(
        self, reg: int, conv, bn: Optional[BatchNorm2d] = None,
        relu: bool = False,
    ) -> int:
        """A ``Conv2d`` or ``ConvTranspose2d`` with optional BN + ReLU."""
        op_cls = (
            ConvTransposeOp if isinstance(conv, ConvTranspose2d) else ConvOp
        )
        return self._emit(lambda i, d: op_cls(i, reg, d, conv, bn, relu))

    def batch_norm(
        self, reg: int, bn: BatchNorm2d, relu: bool = False
    ) -> int:
        return self._emit(lambda i, d: BatchNormOp(i, reg, d, bn, relu))

    def activation(self, reg: int, kind: str) -> int:
        return self._emit(lambda i, d: ActivationOp(i, reg, d, kind))

    def add_relu(self, reg: int, other: int) -> int:
        return self._emit(lambda i, d: AddReluOp(i, reg, other, d))

    def linear(self, reg: int, linear: Linear, relu: bool = False) -> int:
        return self._emit(lambda i, d: LinearOp(i, reg, d, linear, relu))

    def reshape(self, reg: int, shape_fn, spec=None) -> int:
        return self._emit(
            lambda i, d: ReshapeOp(i, reg, d, shape_fn, spec=spec)
        )

    def check_shape(self, reg: int, check_fn, spec=None) -> int:
        self.ops.append(
            CheckShapeOp(len(self.ops), reg, check_fn, spec=spec)
        )
        return reg

    def lstm(self, reg: int, lstm: LSTM) -> int:
        return self._emit(lambda i, d: LSTMOp(i, reg, d, lstm))

    # -- module walk ----------------------------------------------------
    def module(self, reg: int, module: Module) -> int:
        """Compile one module (dispatch by type / ``compile_plan`` hook)."""
        hook = getattr(module, "compile_plan", None)
        if hook is not None:
            return hook(self, reg)
        if isinstance(module, Sequential):
            return self.sequential(reg, module)
        if isinstance(module, (Conv2d, ConvTranspose2d)):
            return self.conv(reg, module)
        if isinstance(module, BatchNorm2d):
            return self.batch_norm(reg, module)
        if isinstance(module, Linear):
            return self.linear(reg, module)
        if isinstance(module, ReLU):
            return self.activation(reg, "relu")
        if isinstance(module, Sigmoid):
            return self.activation(reg, "sigmoid")
        if isinstance(module, Tanh):
            return self.activation(reg, "tanh")
        if isinstance(module, Dropout):
            return reg  # identity in eval mode
        if isinstance(module, FrameAttention):
            return self._emit(
                lambda i, d: FrameAttentionOp(i, reg, d, module)
            )
        if isinstance(module, VelocityChannelAttention):
            return self._emit(
                lambda i, d: VelocityChannelAttentionOp(i, reg, d, module)
            )
        if isinstance(module, SpatialAttention):
            return self._emit(
                lambda i, d: SpatialAttentionOp(i, reg, d, module)
            )
        raise InferenceCompileError(
            f"cannot compile module of type {type(module).__name__}; "
            "define compile_plan(builder, reg) on it or run eagerly"
        )

    def sequential(self, reg: int, seq: Sequential) -> int:
        """Compile a Sequential, fusing Conv->BN->ReLU / Linear->ReLU."""
        layers = list(seq.layers)
        i = 0
        while i < len(layers):
            layer = layers[i]
            if isinstance(layer, (Conv2d, ConvTranspose2d)):
                bn = None
                j = i + 1
                if j < len(layers) and isinstance(layers[j], BatchNorm2d):
                    bn = layers[j]
                    j += 1
                relu = j < len(layers) and isinstance(layers[j], ReLU)
                if relu:
                    j += 1
                reg = self.conv(reg, layer, bn=bn, relu=relu)
                i = j
            elif isinstance(layer, Linear):
                relu = i + 1 < len(layers) and isinstance(
                    layers[i + 1], ReLU
                )
                reg = self.linear(reg, layer, relu=relu)
                i += 2 if relu else 1
            elif isinstance(layer, BatchNorm2d):
                relu = i + 1 < len(layers) and isinstance(
                    layers[i + 1], ReLU
                )
                reg = self.batch_norm(reg, layer, relu=relu)
                i += 2 if relu else 1
            else:
                reg = self.module(reg, layer)
                i += 1
        return reg


class ForwardPlan:
    """The flat op list plus its register-file size and output slot."""

    def __init__(
        self, ops: List[PlanOp], num_regs: int, out_reg: int
    ) -> None:
        self.ops = ops
        self.num_regs = num_regs
        self.out_reg = out_reg

    def execute(
        self, x: np.ndarray, arena,
        profile: Optional[Dict[int, float]] = None,
    ) -> np.ndarray:
        """Run the op list with scratch from ``arena``. With ``profile``
        given, per-op wall time accumulates into it keyed by op id."""
        regs: List[Optional[np.ndarray]] = [None] * self.num_regs
        regs[0] = x
        if profile is None:
            for op in self.ops:
                op.run(regs, arena)
        else:
            for op in self.ops:
                tic = time.perf_counter()
                op.run(regs, arena)
                profile[op.op_id] = (
                    profile.get(op.op_id, 0.0)
                    + time.perf_counter() - tic
                )
        return regs[self.out_reg]

    def refold(self) -> None:
        for op in self.ops:
            op.refold()

    # -- static memory planning -----------------------------------------
    def plan_memory(
        self, x: np.ndarray
    ) -> Tuple[MemoryPlan, np.ndarray]:
        """Probe-execute once, recording scratch lifetimes, and color.

        A buffer's interval starts at the op that requested it. Scratch
        dies with its op; buffers that back a register value (found by
        walking each register's view chain) live until the last op that
        reads any aliasing register -- the plan output lives past the
        final op. Returns the memory plan and the probe's output (so
        the first call per signature does not execute twice).
        """
        probe = _RecordingArena()
        regs: List[Optional[np.ndarray]] = [None] * self.num_regs
        regs[0] = x
        last_use: Dict[int, int] = {}
        for i, op in enumerate(self.ops):
            for r in op.reads():
                last_use[r] = i
        last_use[self.out_reg] = len(self.ops)
        for i, op in enumerate(self.ops):
            probe.op_index = i
            op.run(regs, probe)
        by_id = {id(rec.array): rec for rec in probe.records}
        for reg, val in enumerate(regs):
            if not isinstance(val, np.ndarray):
                continue
            rec = by_id.get(id(_root_base(val)))
            if rec is not None:
                rec.end = max(rec.end, last_use.get(reg, rec.end))
        signature = (tuple(x.shape), str(x.dtype))
        plan = _color_buffers(probe.records, signature)
        return plan, regs[self.out_reg]


class CompiledModel:
    """A module compiled to a :class:`ForwardPlan`, ready to serve.

    ``run`` takes and returns plain ndarrays. The folded weights are
    revalidated against the source parameters' version counters on
    every call; a bumped version (optimizer step, ``load_state_dict``)
    triggers a cheap refold, so training and serving coexist on one
    module.

    Execution uses a static memory plan per input ``(shape, dtype)``
    signature: the first call probe-executes and colors buffer
    lifetimes into a few shared slabs; steady-state calls run
    allocation-free through that signature's :class:`PlannedArena`.

    A model restored from an on-disk artifact
    (:func:`repro.nn.serialization.load_plan`) has ``module=None`` and
    no live parameters: it never refolds and is safe to run as-is.
    """

    _MAX_SIGNATURES = 16

    def __init__(self, module: Optional[Module], plan: ForwardPlan) -> None:
        self.module = module
        self.plan = plan
        self._params = (
            [p for _, p in module.named_parameters()]
            if module is not None else []
        )
        self._version = self._param_version()
        self._lock = threading.Lock()
        self._memory_plans: Dict[Tuple, MemoryPlan] = {}
        self._planned_arenas: Dict[Tuple, PlannedArena] = {}
        _LIVE_MODELS.add(self)

    @classmethod
    def from_plan(cls, plan: ForwardPlan) -> "CompiledModel":
        """A detached model around a restored plan (no source module)."""
        return cls(None, plan)

    def _param_version(self) -> int:
        return sum(getattr(p, "_version", 0) for p in self._params)

    def _refresh(self) -> None:
        version = self._param_version()
        if version == self._version:
            return
        with self._lock:
            if version != self._version:
                self.plan.refold()
                self._version = version
                obs_metrics.counter("model.plan.refolds").increment()

    def _remember(self, cache: Dict[Tuple, Any], sig: Tuple, value) -> None:
        """Insert into a per-signature cache, evicting the oldest."""
        with self._lock:
            cache.setdefault(sig, value)
            while len(cache) > self._MAX_SIGNATURES:
                oldest = next(iter(cache))
                if oldest == sig:
                    break
                del cache[oldest]

    def _memory_plan(
        self, x: np.ndarray
    ) -> Tuple[MemoryPlan, Optional[np.ndarray]]:
        """The memory plan for ``x``'s signature.

        The first call per signature plans by probe-executing ``x`` and
        also returns that probe's output; later calls return ``None`` in
        its place.
        """
        sig = (tuple(x.shape), str(x.dtype))
        mplan = self._memory_plans.get(sig)
        if mplan is not None:
            return mplan, None
        mplan, out = self.plan.plan_memory(x)
        self._remember(self._memory_plans, sig, mplan)
        return mplan, out

    def _planned_arena(self, mplan: MemoryPlan) -> PlannedArena:
        arena = self._planned_arenas.get(mplan.signature)
        if arena is None:
            arena = PlannedArena(mplan)
            self._remember(self._planned_arenas, mplan.signature, arena)
        return arena

    def seed_memory_plan(self, mplan: MemoryPlan) -> None:
        """Install a memory plan restored from an artifact."""
        with self._lock:
            self._memory_plans.setdefault(mplan.signature, mplan)

    # ------------------------------------------------------------------
    def run(self, x: np.ndarray) -> np.ndarray:
        """Execute the plan on ``x``; returns a fresh output array."""
        x = np.asarray(x)
        self._refresh()
        obs_metrics.counter("model.plan.executes").increment()
        with trace.span(
            "model.forward.compiled", batch=int(x.shape[0]),
            ops=len(self.plan.ops),
        ):
            mplan, out = self._memory_plan(x)
            if out is None:
                out = self.plan.execute(x, self._planned_arena(mplan))
            # The arena's buffers (including the output register) are
            # reused by the next call, so hand back a copy.
            return out.copy()

    __call__ = run

    def profile(
        self, x: np.ndarray, repeats: int = 3
    ) -> List[Dict[str, Any]]:
        """Per-op cumulative wall time over ``repeats`` executions.

        Runs on the signature's planned arena -- the allocation pattern
        :meth:`run` serves with. Returns rows sorted by total time
        descending: ``{"op_id", "op", "total_s", "share"}``.
        """
        x = np.asarray(x)
        self._refresh()
        arena = self._planned_arena(self._memory_plan(x)[0])
        totals: Dict[int, float] = {}
        for _ in range(max(1, repeats)):
            self.plan.execute(x, arena, profile=totals)
        names = {op.op_id: op.name for op in self.plan.ops}
        grand_total = sum(totals.values()) or 1.0
        rows = [
            {
                "op_id": op_id,
                "op": names.get(op_id, "?"),
                "total_s": total,
                "share": total / grand_total,
            }
            for op_id, total in totals.items()
        ]
        rows.sort(key=lambda row: row["total_s"], reverse=True)
        return rows

    # ------------------------------------------------------------------
    def memory_stats(self) -> Dict[str, int]:
        """Unpacked-vs-planned byte footprint of the largest signature
        (all zero before the first call)."""
        with self._lock:
            plans = list(self._memory_plans.values())
        biggest = max(plans, key=lambda p: p.arena_bytes, default=None)
        if biggest is None:
            return {
                "arena_bytes": 0, "planned_bytes": 0, "planned_slots": 0,
                "buffers": 0, "memory_plans": 0,
            }
        return {
            "arena_bytes": biggest.arena_bytes,
            "planned_bytes": biggest.planned_bytes,
            "planned_slots": len(biggest.slot_sizes),
            "buffers": len(biggest.assignments),
            "memory_plans": len(plans),
        }

    def stats(self) -> Dict[str, Any]:
        """Plan shape and memory footprint for observability surfaces."""
        mem = self.memory_stats()
        return {
            "ops": len(self.plan.ops),
            "params": len(self._params),
            "param_version": self._version,
            "arena_buffers": mem["buffers"],
            "arena_bytes": mem["arena_bytes"],
            "planned_bytes": mem["planned_bytes"],
            "planned_slots": mem["planned_slots"],
            "memory_plans": mem["memory_plans"],
        }


_LIVE_MODELS: "weakref.WeakSet[CompiledModel]" = weakref.WeakSet()


def publish_plan_memory_metrics(registry) -> None:
    """Collector publishing plan memory gauges to ``registry``.

    Sums the arena-equivalent and planned byte footprints over every
    live :class:`CompiledModel` in the process, so Prometheus exposition
    shows plan memory alongside plan-cache stats. Designed for
    :meth:`repro.obs.metrics.MetricsRegistry.register_collector`.
    """
    arena_bytes = 0
    planned_bytes = 0
    for model in list(_LIVE_MODELS):
        mem = model.memory_stats()
        arena_bytes += mem["arena_bytes"]
        planned_bytes += mem["planned_bytes"]
    registry.gauge("model.plan.arena_bytes").set(arena_bytes)
    registry.gauge("model.plan.planned_bytes").set(planned_bytes)


# The global registry always sees plan memory; private registries (e.g.
# one per InferenceServer) opt in with the same collector.
obs_metrics.get_registry().register_collector(publish_plan_memory_metrics)


def compile_model(module: Module) -> CompiledModel:
    """Compile ``module`` into an autograd-free :class:`CompiledModel`.

    The plan always has eval semantics: batch norm uses running
    statistics and dropout is the identity, exactly like the eager
    forward after ``module.eval()``. Raises
    :class:`~repro.errors.InferenceCompileError` when the module tree
    contains something the compiler does not understand.
    """
    builder = PlanBuilder()
    try:
        out_reg = builder.module(0, module)
    except InferenceCompileError:
        raise
    except ModelError as exc:  # structural assumptions violated
        raise InferenceCompileError(str(exc)) from exc
    plan = ForwardPlan(builder.ops, builder.num_regs, out_reg)
    obs_metrics.counter("model.plan.compiles").increment()
    return CompiledModel(module, plan)
