"""Compiled autograd-free inference plans, recorded from the eager forward.

:func:`compile_model` wraps a :class:`~repro.nn.layers.Module` in a
:class:`CompiledModel`. Its first call for an input shape runs the
module's own ``forward()`` once under :func:`~repro.nn.tensor.no_grad`
with a recorder at the choke point every layer passes,
``Module.__call__``:

* a lowered module (conv, transposed conv, batch norm, linear, ReLU,
  dropout, the attention layers, the LSTM) appends its plan op, a
  raw-ndarray step over numbered registers;
* any other module runs its own ``forward()``, whose shape checks
  validate the input (a wrong shape raises the eager ``ModelError``);
* ``Tensor.reshape`` and ``relu(a + b)`` record glue ops; any other
  Tensor op on a recorded value raises
  :class:`~repro.errors.InferenceCompileError` and callers fall back to
  the eager forward.

A conv, linear or batch norm op waits as *pending* so that a following
eval-mode batch norm folds into the conv's weights and a ReLU becomes
its in-place epilogue. The ops run on a recording arena as they leave
that state, so the recording run is also the static-memory-plan probe
(:class:`MemoryPlan`, :class:`PlannedArena`), and its output is the
first call's result. Reshapes record the batch dim as ``-1``: one
recording serves every batch size of its per-sample shape.

Folded weights are memoized against the source parameters'
:attr:`~repro.nn.tensor.Tensor.version` counters, so a live trainer and
a serving plan can share one module. :mod:`repro.nn.serialization`
writes a recorded plan to a versioned artifact and restores it as a
detached :class:`CompiledModel`. DESIGN.md section 6 has the details.
"""

from __future__ import annotations

import threading
import time
import weakref
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import InferenceCompileError, ModelError
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
    recording,
)
from repro.nn.rnn import LSTM
from repro.nn.tensor import Tensor, no_grad
from repro.obs import metrics as obs_metrics
from repro.obs import trace


# ----------------------------------------------------------------------
# Plan ops
# ----------------------------------------------------------------------
class PlanOp:
    """One flat step of a forward plan: read ``src`` regs, write ``dst``.

    ``fold`` computes the op's weights from its source ``module``.
    Ops are *portable*: ``export_state`` emits the attrs named in
    ``export_attrs`` plus the folded arrays named in ``export_arrays``,
    and ``restore`` rebuilds a detached op (``module=None``, so
    ``refold`` is a no-op) from them.
    """

    name = "op"
    export_attrs: Tuple[str, ...] = ()
    export_arrays: Tuple[str, ...] = ()

    def __init__(self, op_id: int, src: int, dst: int, module=None) -> None:
        self.op_id = op_id
        self.src = src
        self.dst = dst
        self.module = module

    def reads(self) -> Tuple[int, ...]:
        """Registers this op reads (used by the liveness analysis)."""
        return (self.src,)

    def refold(self) -> None:
        """Recompute folded weights from the live source parameters."""
        if self.module is not None:
            self.fold()

    def fold(self) -> None:
        """Compute the op's arrays from ``self.module``."""

    def run(self, regs, arena) -> None:
        raise NotImplementedError

    # -- portability ----------------------------------------------------
    def export_state(self) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
        meta = {"type": self.name, "op_id": self.op_id, "src": self.src,
                "dst": self.dst}
        meta.update((a, getattr(self, a)) for a in self.export_attrs)
        arrays = {a: getattr(self, a) for a in self.export_arrays}
        return meta, {a: v for a, v in arrays.items() if v is not None}

    @classmethod
    def restore(
        cls, meta: Dict[str, Any], arrays: Dict[str, np.ndarray]
    ) -> "PlanOp":
        op = cls.__new__(cls)
        PlanOp.__init__(op, int(meta["op_id"]), int(meta["src"]),
                        int(meta["dst"]))
        for attr in cls.export_attrs:
            val = meta[attr]
            setattr(op, attr, tuple(val) if isinstance(val, list) else val)
        for attr in cls.export_arrays:
            setattr(op, attr, arrays.get(attr))
        return op


def _fold_conv(
    conv: Conv2d, bn: Optional[BatchNorm2d]
) -> Tuple[np.ndarray, np.ndarray]:
    """Pre-flattened GEMM weight and bias column, with BN folded in."""
    w = conv.weight.data
    o = w.shape[0]
    b = conv.bias.data if conv.bias is not None else np.zeros(o, w.dtype)
    if bn is not None:
        scale, shift = F.batch_norm_affine(
            bn.gamma.data, bn.beta.data, bn.running_mean, bn.running_var,
            bn.eps,
        )
        w = w * scale[:, None, None, None]
        b = b * scale + shift
    w_flat = np.ascontiguousarray(w.reshape(o, -1))
    return w_flat, np.ascontiguousarray(b.reshape(o, 1))


class ConvOp(PlanOp):
    """Conv2d with pre-flattened weights, folded BN, fused ReLU."""

    name = "conv2d"
    export_attrs = ("kh", "kw", "stride", "padding", "relu")
    export_arrays = ("w_flat", "bias_col")
    bn: Optional[BatchNorm2d] = None  # folded in while recording
    relu = False

    def fold(self) -> None:
        conv = self.module
        self.kh, self.kw = conv.weight.data.shape[2:]
        self.stride, self.padding = conv.stride, conv.padding
        self.w_flat, self.bias_col = _fold_conv(conv, self.bn)

    def run(self, regs, arena) -> None:
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

    def fold(self) -> None:
        conv, self.stride = self.module.conv, self.module.stride
        self.kernel = conv.weight.data.shape[2]
        w_flat, bias_col = _fold_conv(conv, self.bn)
        self.w_flat = F.subpixel_weight(
            w_flat.reshape(conv.weight.data.shape), self.stride
        )
        self.bias_col = np.tile(bias_col, (self.stride ** 2, 1))

    def run(self, regs, arena) -> None:
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
    relu = False

    def fold(self) -> None:
        bn = self.module
        self.scale, self.shift = F.batch_norm_affine(
            bn.gamma.data, bn.beta.data, bn.running_mean, bn.running_var,
            bn.eps,
        )

    def run(self, regs, arena) -> None:
        regs[self.dst] = F.batch_norm2d_raw(
            regs[self.src], self.scale, self.shift, arena, (self.op_id,),
            F.relu_inplace if self.relu else None,
        )


class ReluOp(PlanOp):
    """Standalone ReLU, when no op before it takes it as an epilogue."""

    name = "relu"

    def run(self, regs, arena) -> None:
        x = regs[self.src]
        out = arena.get((self.op_id, "out"), x.shape, x.dtype)
        regs[self.dst] = np.maximum(x, 0.0, out=out)


class AddReluOp(PlanOp):
    """``relu(a + b)`` -- the residual merge of the hourglass blocks."""

    name = "add_relu"
    export_attrs = ("other",)

    def __init__(self, op_id: int, src: int, other: int, dst: int) -> None:
        super().__init__(op_id, src, dst)
        self.other = other

    def reads(self) -> Tuple[int, ...]:
        return (self.src, self.other)

    def run(self, regs, arena) -> None:
        a, b = regs[self.src], regs[self.other]
        out = arena.get(
            (self.op_id, "out"), np.broadcast_shapes(a.shape, b.shape),
            np.result_type(a.dtype, b.dtype),
        )
        np.add(a, b, out=out)
        np.maximum(out, 0.0, out=out)
        regs[self.dst] = out


class LinearOp(PlanOp):
    """GEMM with pre-transposed weight and fused ReLU epilogue."""

    name = "linear"
    export_attrs = ("relu",)
    export_arrays = ("w_t", "bias")
    relu = False

    def fold(self) -> None:
        self.w_t = np.ascontiguousarray(self.module.weight.data.T)
        bias = self.module.bias
        self.bias = bias.data if bias is not None else None

    def run(self, regs, arena) -> None:
        x = regs[self.src]
        dtype = np.result_type(x.dtype, self.w_t.dtype)
        out = arena.get(
            (self.op_id, "out"), (*x.shape[:-1], self.w_t.shape[1]), dtype
        )
        np.matmul(x, self.w_t, out=out)
        if self.bias is not None:
            out += self.bias
        if self.relu:
            np.maximum(out, 0.0, out=out)
        regs[self.dst] = out


class ReshapeOp(PlanOp):
    """View reshape to the recorded ``shape`` (``-1`` marks the batch)."""

    name = "reshape"
    export_attrs = ("shape",)

    def __init__(self, op_id: int, src: int, dst: int, shape) -> None:
        super().__init__(op_id, src, dst)
        self.shape = tuple(shape)

    def run(self, regs, arena) -> None:
        regs[self.dst] = regs[self.src].reshape(self.shape)


class FrameAttentionOp(PlanOp):
    """Eq. 2-3: per-frame weights from TGAP+TGMP through two tiny convs."""

    name = "frame_attention"
    export_arrays = ("w1", "b1", "w2", "b2")

    def fold(self) -> None:
        self.w1, self.b1 = _fold_conv(self.module.conv1, None)
        self.w2, self.b2 = _fold_conv(self.module.conv2, None)

    def run(self, regs, arena) -> None:
        regs[self.dst], _ = F.frame_attention_raw(
            regs[self.src], self.w1, self.b1, self.w2, self.b2, arena,
            (self.op_id,),
        )


class VelocityChannelAttentionOp(PlanOp):
    """Eq. 4-5: per-channel weights from GAP||GMP through one FC."""

    name = "velocity_channel_attention"
    export_arrays = ("w_t", "bias")

    def fold(self) -> None:
        self.w_t = np.ascontiguousarray(self.module.fc.weight.data.T)
        self.bias = self.module.fc.bias.data

    def run(self, regs, arena) -> None:
        regs[self.dst], _, _ = F.channel_attention_raw(
            regs[self.src], self.w_t, self.bias, arena, (self.op_id,)
        )


class SpatialAttentionOp(PlanOp):
    """Eq. 6-7: range-angle weights from channel mean/max maps.

    Runs :func:`~repro.nn.functional.spatial_attention_raw` with the
    banded conv weight cached per input width; ``fold`` rebuilds the
    cached bands.
    """

    name = "spatial_attention"
    export_arrays = ("weight", "bias")

    def fold(self) -> None:
        conv = self.module.conv
        self.weight = np.array(conv.weight.data)
        self.bias = np.array(conv.bias.data)
        self._bands = {
            width: F.conv_band(self.weight, width)
            for width in getattr(self, "_bands", ())
        }

    def run(self, regs, arena) -> None:
        x = regs[self.src]
        width = x.shape[3]
        bands = self.__dict__.setdefault("_bands", {})  # restored: empty
        band = bands.get(width)
        if band is None:
            band = bands[width] = F.conv_band(self.weight, width)
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

    def fold(self) -> None:
        lstm = self.module
        self.hidden_size = lstm.hidden_size
        self.w_ih_t = np.ascontiguousarray(lstm.w_ih.data.T)
        self.w_hh_t = np.ascontiguousarray(lstm.w_hh.data.T)
        self.bias = lstm.bias.data

    def run(self, regs, arena) -> None:
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
        ReluOp,
        AddReluOp,
        LinearOp,
        ReshapeOp,
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
    """One scratch request observed during a probe execution. It holds
    its array only weakly, so a probe peaks near the eager forward's
    footprint rather than at the sum of every request."""

    __slots__ = ("key", "shape", "dtype", "zero", "start", "end",
                 "nbytes", "ref")

    def __init__(self, key, shape, dtype, zero, start, array) -> None:
        self.key = key
        self.shape = tuple(shape)
        self.dtype = np.dtype(dtype)
        self.zero = zero
        self.start = start
        self.end = start
        self.nbytes = array.nbytes
        self.ref = weakref.ref(array)


def _root_base(arr: np.ndarray) -> np.ndarray:
    """Walk the view chain back to the owning allocation."""
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


class _RecordingArena:
    """Arena stand-in for a probe run: fresh arrays, logged lifetimes.

    After each op, :meth:`ran` notes which request (if any) backs the
    op's output register -- one of its own, or its input's for a view --
    so that buffer's lifetime extends to the register's last reader.
    """

    def __init__(self) -> None:
        self.records: List[_BufRecord] = []
        self.op_index = 0
        self._backing: Dict[int, _BufRecord] = {}

    def get(
        self, key: Tuple, shape: Tuple[int, ...], dtype,
        zero: bool = False,
    ) -> np.ndarray:
        arr = np.zeros(shape, dtype) if zero else np.empty(shape, dtype)
        self.records.append(
            _BufRecord(key, shape, dtype, zero, self.op_index, arr)
        )
        return arr

    def ran(self, op: PlanOp, regs) -> None:
        root = _root_base(regs[op.dst])
        for rec in reversed(self.records):
            if rec.start != op.op_id:
                break
            if rec.ref() is root:
                self._backing[op.dst] = rec
                return
        for reg in op.reads():
            rec = self._backing.get(reg)
            if rec is not None and rec.ref() is root:
                self._backing[op.dst] = rec
                return

    def memory_plan(
        self, ops: List[PlanOp], out_reg: int, signature: Tuple
    ) -> "MemoryPlan":
        """Colour the logged requests once the whole plan has run.

        Scratch dies with its op; a buffer that backs a register lives
        until the last op reading any register it backs -- the plan
        output lives past the final op.
        """
        last_use = _last_reads(ops)
        last_use[out_reg] = len(ops)
        for reg, rec in self._backing.items():
            rec.end = max(rec.end, last_use.get(reg, rec.end))
        return _color_buffers(self.records, signature)


def _last_reads(ops: List[PlanOp]) -> Dict[int, int]:
    """Register -> index of the last op reading it."""
    last: Dict[int, int] = {}
    for i, op in enumerate(ops):
        for reg in op.reads():
            last[reg] = i
    return last


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
        """JSON-able form for the on-disk plan artifact; each assignment
        is ``[key, slot, shape, dtype, zero]``."""
        return {
            "signature": [list(self.signature[0]), self.signature[1]],
            "slot_sizes": list(self.slot_sizes),
            "arena_bytes": int(self.arena_bytes),
            "assignments": [
                [list(key), slot, list(shape), dtype, zero]
                for key, (slot, shape, dtype, zero)
                in self.assignments.items()
            ],
        }

    @classmethod
    def from_meta(cls, meta: Dict[str, Any]) -> "MemoryPlan":
        shape, dtype = meta["signature"]
        assignments = {
            tuple(key): (int(slot), tuple(shape_), dtype_, bool(zero))
            for key, slot, shape_, dtype_, zero in meta["assignments"]
        }
        return cls(
            (tuple(shape), dtype),
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
        self._views = {
            key: np.ndarray(shape, dtype=dtype, buffer=self._slabs[slot])
            for key, (slot, shape, dtype, _) in plan.assignments.items()
        }

    def get(
        self, key: Tuple, shape: Tuple[int, ...], dtype,
        zero: bool = False,
    ) -> np.ndarray:
        view = self._views.get(key)
        if view is not None and view.shape == tuple(shape) and (
            view.dtype == dtype
        ):
            if zero:
                view.fill(0)
            return view
        return np.zeros(shape, dtype) if zero else np.empty(shape, dtype)


# ----------------------------------------------------------------------
# The recorded plan
# ----------------------------------------------------------------------
class ForwardPlan:
    """A recorded op list plus its register-file size and output slot.

    ``input_shape`` is the shape it was recorded for, with ``-1`` as
    the leading dim when any batch size replays it; ``dtype`` the
    input's dtype.
    """

    def __init__(
        self, ops: List[PlanOp], num_regs: int, out_reg: int,
        input_shape: Tuple[int, ...], dtype: str,
    ) -> None:
        self.ops = ops
        self.num_regs = num_regs
        self.out_reg = out_reg
        self.input_shape = tuple(input_shape)
        self.dtype = dtype

    def execute(
        self, x: np.ndarray, arena, times: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Run the op list with scratch from ``arena``. With ``times``
        given, each op's wall time is written to ``times[op_index]``."""
        regs: List[Optional[np.ndarray]] = [None] * self.num_regs
        regs[0] = x
        if times is None:
            for op in self.ops:
                op.run(regs, arena)
        else:
            for i, op in enumerate(self.ops):
                tic = time.perf_counter()
                op.run(regs, arena)
                times[i] = time.perf_counter() - tic
        return regs[self.out_reg]

    def refold(self) -> None:
        for op in self.ops:
            op.refold()

    def plan_memory(
        self, x: np.ndarray
    ) -> Tuple[MemoryPlan, np.ndarray]:
        """Probe-execute once on a recording arena and colour.

        Registers are dropped after their last reader, so the probe
        holds what a planned run would. Returns the memory plan and the
        probe's output (the first call per signature runs once).
        """
        probe = _RecordingArena()
        regs: List[Optional[np.ndarray]] = [None] * self.num_regs
        regs[0] = x
        last_use = _last_reads(self.ops)
        for i, op in enumerate(self.ops):
            probe.op_index = op.op_id
            op.run(regs, probe)
            probe.ran(op, regs)
            for reg in op.reads():
                if last_use[reg] == i and reg != self.out_reg:
                    regs[reg] = None
        out = regs[self.out_reg]
        signature = (tuple(x.shape), str(x.dtype))
        return probe.memory_plan(self.ops, self.out_reg, signature), out


# ----------------------------------------------------------------------
# Recording
# ----------------------------------------------------------------------
class _Value(Tensor):
    """A tensor inside a recording: a plan register and, once the op
    that writes it has run, the register's array (``.data``).

    ``reg`` is ``None`` for a value the plan does not compute: one a
    fused op consumed, a bare sum, or an LSTM output other than the
    final hidden state. Using such a value raises
    :class:`InferenceCompileError`.
    """

    __slots__ = ("recorder", "reg", "array")
    _recorded = True

    def __init__(self, recorder: "_Recorder", reg: Optional[int],
                 array: Optional[np.ndarray] = None) -> None:
        self.recorder = recorder
        self.reg = reg
        self.array = array
        self.requires_grad = False
        self.grad = None
        self._parents = ()
        self._backward = None

    @property
    def data(self) -> np.ndarray:
        return self.recorder.materialize(self)

    def reshape(self, *shape) -> "_Value":
        return self.recorder.reshape(self, shape)

    def __add__(self, other) -> "_Value":
        return _Sum(self.recorder, (self, other))

    __radd__ = __add__

    def relu(self) -> "_Value":
        return self.recorder.relu(self)


class _Sum(_Value):
    """``a + b`` awaiting its relu: the plan lowers only ``relu(a + b)``."""

    __slots__ = ("terms",)

    def __init__(self, recorder: "_Recorder", terms) -> None:
        super().__init__(recorder, None)
        self.terms = terms


_LOWERINGS: Dict[type, Any] = {
    Conv2d: ConvOp,
    ConvTranspose2d: ConvTransposeOp,
    Linear: LinearOp,
    BatchNorm2d: BatchNormOp,
    FrameAttention: FrameAttentionOp,
    VelocityChannelAttention: VelocityChannelAttentionOp,
    SpatialAttention: SpatialAttentionOp,
    LSTM: LSTMOp,
}
"""Module type -> plan op factory ``(op_id, src, dst, module)``. Exact
types: a subclass may override ``forward``. ``ReLU`` and ``Dropout``
are handled by the recorder itself."""

_EPILOGUE_OPS = (ConvOp, LinearOp, BatchNormOp)
"""Ops that wait as pending so a following BN / ReLU can fold in."""


class _Recorder:
    """Builds a :class:`ForwardPlan` from one eager forward.

    Installed with :func:`~repro.nn.layers.recording`, it receives every
    ``Module.__call__`` on this thread. Ops run on a recording arena as
    soon as nothing can fuse into them, so the recording run is also
    the memory-plan probe.
    """

    def __init__(self, x: np.ndarray) -> None:
        self.ops: List[PlanOp] = []
        self.num_regs = 1  # register 0 is the plan input
        self.arena = _RecordingArena()
        self.input = _Value(self, 0, x)
        # (op, inputs, value): appended but not yet run
        self.pending: Optional[Tuple[PlanOp, Tuple, _Value]] = None

    def record(
        self, module: Module
    ) -> Tuple[ForwardPlan, MemoryPlan, np.ndarray]:
        """Run ``module``'s forward on the input; return the plan, the
        memory plan for the input's signature and the output."""
        with no_grad(), recording(self):
            out = module(self.input)
        if not isinstance(out, _Value) or out.recorder is not self:
            raise InferenceCompileError(
                f"{type(module).__name__}.forward returned a value the "
                "plan did not compute"
            )
        result = self.materialize(out)
        self._flush()  # an op whose value the forward never used
        x = self.input.array
        self.input = None  # no value -> recorder -> value cycle
        batched = x.ndim and result.ndim and result.shape[0] == x.shape[0]
        input_shape = (-1, *x.shape[1:]) if batched else x.shape
        plan = ForwardPlan(
            self.ops, self.num_regs, out.reg, input_shape, str(x.dtype)
        )
        signature = (tuple(x.shape), str(x.dtype))
        mplan = self.arena.memory_plan(self.ops, out.reg, signature)
        return plan, mplan, result

    # -- values -----------------------------------------------------------
    def materialize(self, value: _Value) -> np.ndarray:
        """``value``'s array, running its op first if it is pending."""
        if value.recorder is not self or value.reg is None:
            raise InferenceCompileError(
                "a recorded value the plan does not compute was used "
                "(a bare add, an output a fused op consumed, or an LSTM "
                "output other than the final hidden state)"
            )
        if self.pending is not None and self.pending[2] is value:
            self._flush()
        return value.array

    def _flush(self) -> None:
        if self.pending is not None:
            op, inputs, value = self.pending
            self.pending = None
            self._run(op, inputs, value)

    def _run(self, op: PlanOp, inputs: Tuple, value: _Value) -> None:
        regs = {v.reg: v.array for v in inputs}
        op.refold()
        self.arena.op_index = op.op_id
        op.run(regs, self.arena)
        self.arena.ran(op, regs)
        value.array = regs[op.dst]

    def _append(self, make_op, *inputs) -> _Value:
        for value in inputs:
            if not isinstance(value, _Value):
                raise InferenceCompileError(
                    "a lowered module was called on a value the plan "
                    "did not record"
                )
            self.materialize(value)
        self._flush()
        dst = self.num_regs
        self.num_regs += 1
        op = make_op(len(self.ops), dst)
        self.ops.append(op)
        value = _Value(self, dst)
        if isinstance(op, _EPILOGUE_OPS):
            self.pending = (op, inputs, value)
        else:
            self._run(op, inputs, value)
        return value

    def _fuse(self, x, bn: Optional[BatchNorm2d] = None) -> Optional[_Value]:
        """Fold a BN (or, without ``bn``, a ReLU) into the pending op
        that writes ``x``; ``None`` when it cannot fold."""
        if self.pending is None or self.pending[2] is not x:
            return None
        op, inputs, _ = self.pending
        if op.relu:
            return None
        if bn is None:
            op.relu = True
        elif isinstance(op, ConvOp) and op.bn is None:
            op.bn = bn
        else:
            return None
        out = _Value(self, x.reg)
        x.reg = None
        self.pending = (op, inputs, out)
        return out

    # -- choke points -----------------------------------------------------
    def call(self, module: Module, args: Tuple, kwargs: Dict) -> Any:
        """``Module.__call__`` while recording."""
        kind = type(module)
        if kind not in _LOWERINGS and kind not in (ReLU, Dropout):
            return module.forward(*args, **kwargs)
        if kwargs or len(args) != 1:
            raise InferenceCompileError(
                f"{kind.__name__} takes one input in a compiled plan"
            )
        x = args[0]
        if kind is Dropout:  # identity with eval semantics
            return x
        if kind is ReLU:
            return self.relu(x)
        if kind is BatchNorm2d:
            fused = self._fuse(x, bn=module)
            if fused is not None:
                return fused
        make = _LOWERINGS[kind]
        out = self._append(lambda i, dst: make(i, x.reg, dst, module), x)
        if kind is LSTM:
            # The plan computes only the final hidden state.
            unused = _Value(self, None)
            return unused, (out, unused)
        return out

    def relu(self, x: _Value) -> _Value:
        if isinstance(x, _Sum):
            a, b = x.terms
            return self._append(
                lambda i, dst: AddReluOp(i, a.reg, b.reg, dst), a, b
            )
        fused = self._fuse(x)
        if fused is not None:
            return fused
        return self._append(lambda i, dst: ReluOp(i, x.reg, dst), x)

    def reshape(self, x: _Value, shape: Tuple) -> _Value:
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        resolved = self.materialize(x).reshape(shape).shape
        target = (-1, *resolved[1:]) if resolved else ()
        return self._append(
            lambda i, dst: ReshapeOp(i, x.reg, dst, target), x
        )


# ----------------------------------------------------------------------
# Compiled model
# ----------------------------------------------------------------------
class CompiledModel:
    """A module served through recorded :class:`ForwardPlan` s.

    ``run`` takes and returns plain ndarrays. The first call for an
    input shape records a plan from the module's eager forward (see the
    module docstring); later calls of the same per-sample shape replay
    it at any batch size. The folded weights are revalidated against
    the source parameters' version counters on every call; a bumped
    version (optimizer step, ``load_state_dict``) triggers a cheap
    refold, so training and serving coexist on one module.

    Execution uses a static memory plan per input ``(shape, dtype)``
    signature: the first call per signature colours the buffer
    lifetimes of a recording-arena run into a few shared slabs;
    steady-state calls run allocation-free through that signature's
    :class:`PlannedArena`.

    A model restored from an on-disk artifact
    (:func:`repro.nn.serialization.load_plan`) has ``module=None``: it
    never records or refolds, and serves only its plan's input shape.
    """

    _MAX_SIGNATURES = 16

    def __init__(
        self, module: Optional[Module], plan: Optional[ForwardPlan] = None
    ) -> None:
        self.module = module
        self.plan = plan  # the latest recorded (or restored) plan
        self._plans: Dict[Tuple, ForwardPlan] = {}
        if plan is not None:
            self._plans[plan.input_shape, plan.dtype] = plan
        self._params = (
            [p for _, p in module.named_parameters()]
            if module is not None else []
        )
        self._version = self._param_version()
        self._lock = threading.Lock()
        self._memory_plans: Dict[Tuple, MemoryPlan] = {}
        self._planned_arenas: Dict[Tuple, PlannedArena] = {}
        _LIVE_MODELS.add(self)

    def _param_version(self) -> int:
        return sum(getattr(p, "_version", 0) for p in self._params)

    def _refresh(self) -> None:
        version = self._param_version()
        if version == self._version:
            return
        with self._lock:
            if version != self._version:
                for plan in self._plans.values():
                    plan.refold()
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

    def _plan_for(
        self, shape: Tuple[int, ...], dtype: str
    ) -> Optional[ForwardPlan]:
        """The recorded plan serving inputs of ``shape`` / ``dtype``."""
        if shape:
            plan = self._plans.get(((-1, *shape[1:]), dtype))
            if plan is not None:
                return plan
        return self._plans.get((tuple(shape), dtype))

    def _record(self, x: np.ndarray) -> Tuple[MemoryPlan, np.ndarray]:
        if self.module is None:
            raise ModelError(
                f"this plan was recorded for input shape "
                f"{self.plan.input_shape} ({self.plan.dtype}); got "
                f"{x.shape} ({x.dtype})"
            )
        with trace.span("model.plan.record", shape=str(x.shape)):
            plan, mplan, out = _Recorder(x).record(self.module)
        self._remember(self._plans, (plan.input_shape, plan.dtype), plan)
        self.plan = plan
        obs_metrics.counter("model.plan.compiles").increment()
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
            "model.forward.compiled", batch=int(x.shape[0]) if x.ndim else 1,
            ops=len(self.plan.ops) if self.plan is not None else 0,
        ):
            sig = (tuple(x.shape), str(x.dtype))
            plan = self._plan_for(*sig)
            mplan = self._memory_plans.get(sig)
            if plan is None:
                mplan, out = self._record(x)
                self._remember(self._memory_plans, sig, mplan)
            elif mplan is None:
                mplan, out = plan.plan_memory(x)
                self._remember(self._memory_plans, sig, mplan)
            else:
                out = plan.execute(x, self._planned_arena(mplan))
            # The arena's buffers (including the output register) are
            # reused by the next call, so hand back a copy.
            return out.copy()

    __call__ = run

    def profile(
        self, x: np.ndarray, repeats: int = 11
    ) -> List[Dict[str, Any]]:
        """Per-op median wall time over ``repeats`` executions.

        Runs on the signature's planned arena -- the allocation pattern
        :meth:`run` serves with -- after one :meth:`run` that records or
        plans it if needed. Each op is timed on every repeat and its
        share is its median over the sum of the medians, so one
        preempted repeat cannot swing the shares. Returns rows sorted by
        median descending: ``{"op_id", "op", "median_s", "share"}``.
        """
        x = np.asarray(x)
        self.run(x)
        sig = (tuple(x.shape), str(x.dtype))
        plan = self._plan_for(*sig)
        arena = self._planned_arena(self._memory_plans[sig])
        times = np.zeros((max(1, repeats), len(plan.ops)))
        for row in times:
            plan.execute(x, arena, times=row)
        medians = np.median(times, axis=0)
        total = float(medians.sum()) or 1.0
        rows = [
            {
                "op_id": op.op_id,
                "op": op.name,
                "median_s": float(median),
                "share": float(median) / total,
            }
            for op, median in zip(plan.ops, medians)
        ]
        rows.sort(key=lambda row: row["median_s"], reverse=True)
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
            "ops": len(self.plan.ops) if self.plan is not None else 0,
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
    """A :class:`CompiledModel` serving ``module`` through recorded plans.

    The plan always has eval semantics: batch norm uses running
    statistics and dropout is the identity, exactly like the eager
    forward after ``module.eval()``. Nothing runs here: the first
    :meth:`~CompiledModel.run` records, and raises
    :class:`~repro.errors.InferenceCompileError` when the forward uses
    something the plan cannot lower.
    """
    return CompiledModel(module)
