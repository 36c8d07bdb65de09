"""Zero-copy shared-memory ring buffers for the serving gateway.

A :class:`ShmRing` is a fixed-slot single-producer/single-consumer ring
living in one ``multiprocessing.shared_memory`` segment. Each slot holds
a small fixed header (publish sequence, message kind, session id, frame
id, dtype/shape tag, payload size) followed by the raw array payload, so
a radar frame crosses the process boundary as exactly one ``memcpy``
into the segment on the producer side -- **no pickling of array
payloads anywhere on the ingest path**. The consumer either copies the
payload out (:meth:`pop`) or maps it in place as a numpy view backed by
the shared segment (:meth:`peek` + :meth:`commit`).

Layout::

    [control 192 B][slot 0][slot 1]...[slot S-1]

    control:  magic/version/slots/slot_bytes at offset 0,
              head (producer cursor) at offset 64,
              tail (consumer cursor) at offset 128
              -- head and tail sit on their own cache lines so the two
              sides never write the same line.
    slot:     128 B header + payload area (slot_bytes - 128)

Publication order: the producer writes the payload, then the header
(whose ``seq`` field is ``head + 1``), then advances ``head``. The
consumer only reads a slot after observing ``head > tail`` and verifies
``seq == tail + 1`` as a torn-write integrity check. Cursors are
8-byte-aligned single-writer fields, which CPython writes with a single
C-level ``memcpy``; combined with the interpreter overhead separating
the payload store from the cursor store this is sound on mainstream
(x86/ARM) hosts without needing explicit fences.

A ring carries no wakeup of its own. Each consumer parks on a
*doorbell* -- a non-blocking ``eventfd`` that the producer rings after
every push (:func:`ring_doorbell`). The consumer drains the doorbell
*before* it pops (:func:`drain_doorbell`): a push that lands after the
drain rings again, so a consumer that finds the ring empty and parks
on the doorbell can never miss it.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Optional, Tuple

import numpy as np

from repro.errors import GatewayError, RingLayoutError

_MAGIC = 0x6D6D5247  # "mmRG"
# v2: the header carries distributed-trace context (trace_id,
# parent_span_id, enqueue timestamp) in its trailing 24 bytes, filling
# the 128-byte header exactly.
_VERSION = 2

_CONTROL_FMT = struct.Struct("<IIQQ")  # magic, version, slots, slot_bytes
_HEAD_OFFSET = 64
_TAIL_OFFSET = 128
_SLOTS_OFFSET = 192
_CURSOR = struct.Struct("<Q")

# seq, kind, flags, frame_id, payload_bytes, dtype code, ndim,
# shape (8 x u32), session id (utf-8, zero padded),
# trace_id, parent_span_id, enqueue_ts (time.monotonic(); 0 = unset)
_SLOT_HEADER_FMT = struct.Struct("<QIIQQII8I32sQQd")
SLOT_HEADER_BYTES = 128
assert _SLOT_HEADER_FMT.size <= SLOT_HEADER_BYTES

SESSION_ID_BYTES = 32
_MAX_NDIM = 8

# Message kinds understood by the gateway protocol. Frames flow
# dispatcher -> worker on the request ring; acks/poses flow back on the
# response ring. Only FRAME_* and POSE messages carry a payload.
KIND_FRAME_RAW = 1
KIND_FRAME_CUBE = 2
KIND_CLOSE = 3
KIND_ACK = 10
KIND_POSE = 11
KIND_UNSERVED = 12
KIND_CLOSED = 13

# Ack dispositions (the ``flags`` field of KIND_ACK messages).
ACK_WINDOW = 1      # absorbed into the session's sliding window
ACK_ENQUEUED = 2    # emitted a segment; a pose (or UNSERVED) will follow
ACK_QUARANTINED = 3  # rejected at ingest; dead-lettered in the worker
ACK_DROPPED = 4     # lost to worker-side queue backpressure

_DTYPE_CODES = {
    np.dtype(np.float32): 1,
    np.dtype(np.float64): 2,
    np.dtype(np.complex64): 3,
    np.dtype(np.complex128): 4,
    np.dtype(np.int32): 5,
    np.dtype(np.int64): 6,
    np.dtype(np.uint8): 7,
    # Low-precision payload kinds for quantized frames/poses crossing
    # the gateway (PR 7 mixed-precision engine).
    np.dtype(np.float16): 8,
    np.dtype(np.int8): 9,
}
_CODE_DTYPES = {code: dtype for dtype, code in _DTYPE_CODES.items()}


def encode_session_id(session_id: str) -> bytes:
    """Session id as the fixed-width header field (validates length)."""
    raw = session_id.encode("utf-8")
    if len(raw) > SESSION_ID_BYTES:
        raise RingLayoutError(
            f"session id {session_id!r} exceeds the {SESSION_ID_BYTES}"
            "-byte ring header field"
        )
    return raw


def make_doorbell() -> int:
    """A fresh doorbell: a non-blocking eventfd that forked children
    inherit (close-on-exec only drops it across ``exec``)."""
    return os.eventfd(0, os.EFD_NONBLOCK | os.EFD_CLOEXEC)


def ring_doorbell(fd: int) -> None:
    """Wake whoever is parked on ``fd`` (call after the push)."""
    os.eventfd_write(fd, 1)


def drain_doorbell(fd: int) -> None:
    """Reset ``fd`` to silent (call before popping the ring)."""
    try:
        os.eventfd_read(fd)
    except BlockingIOError:
        pass


@dataclass
class RingMessage:
    """One decoded ring slot: the header fields plus the payload.

    ``payload`` is ``None`` for control messages, a fresh copy for
    :meth:`ShmRing.pop`, and a zero-copy view into the shared segment
    for :meth:`ShmRing.peek` (valid only until :meth:`ShmRing.commit`).

    ``trace_id``/``parent_span_id`` carry the producer's trace context
    across the process boundary (0 = no context) and ``enqueue_ts`` is
    the ``time.monotonic()`` instant of the push, letting the consumer
    measure ring-wait time without any extra round trip
    (``CLOCK_MONOTONIC`` is system-wide, so both processes read the
    same clock, and a wall-clock step cannot skew the difference).
    """

    kind: int
    session_id: str
    frame_id: int
    flags: int = 0
    payload: Optional[np.ndarray] = None
    trace_id: int = 0
    parent_span_id: int = 0
    enqueue_ts: float = 0.0


class ShmRing:
    """Fixed-slot SPSC ring buffer in a shared-memory segment."""

    def __init__(
        self, shm: shared_memory.SharedMemory, owner: bool
    ) -> None:
        self._shm = shm
        self._owner = owner
        self._buf = shm.buf
        magic, version, slots, slot_bytes = _CONTROL_FMT.unpack_from(
            self._buf, 0
        )
        if magic != _MAGIC or version != _VERSION:
            raise RingLayoutError(
                f"segment {shm.name!r} is not a v{_VERSION} gateway ring"
            )
        self.slots = slots
        self.slot_bytes = slot_bytes
        self.payload_capacity = slot_bytes - SLOT_HEADER_BYTES
        # Producer-/consumer-side loss accounting (process-local).
        self.pushes = 0
        self.pops = 0
        self.full_rejects = 0

    # -- construction ---------------------------------------------------
    @classmethod
    def create(
        cls, slots: int, slot_bytes: int, name: Optional[str] = None
    ) -> "ShmRing":
        if slots < 2:
            raise RingLayoutError("a ring needs at least 2 slots")
        if slot_bytes <= SLOT_HEADER_BYTES:
            raise RingLayoutError(
                f"slot_bytes must exceed the {SLOT_HEADER_BYTES}-byte "
                "slot header"
            )
        size = _SLOTS_OFFSET + slots * slot_bytes
        shm = shared_memory.SharedMemory(
            create=True, size=size, name=name
        )
        _CONTROL_FMT.pack_into(
            shm.buf, 0, _MAGIC, _VERSION, slots, slot_bytes
        )
        return cls(shm, owner=True)

    @classmethod
    def attach(cls, name: str) -> "ShmRing":
        # Gateway workers are children of the dispatcher, so they share
        # its resource-tracker process (POSIX passes the tracker fd to
        # both fork and spawn children); this attach's duplicate
        # REGISTER is a set-add no-op there, and the creator's unlink
        # performs the single matching unregister. Do NOT unregister
        # here: with a shared tracker that would delete the creator's
        # registration and make its unlink crash the tracker.
        shm = shared_memory.SharedMemory(name=name)
        return cls(shm, owner=False)

    @property
    def name(self) -> str:
        return self._shm.name

    # -- cursors --------------------------------------------------------
    def _read_cursor(self, offset: int) -> int:
        return _CURSOR.unpack_from(self._buf, offset)[0]

    def _write_cursor(self, offset: int, value: int) -> None:
        _CURSOR.pack_into(self._buf, offset, value)

    @property
    def head(self) -> int:
        return self._read_cursor(_HEAD_OFFSET)

    @property
    def tail(self) -> int:
        return self._read_cursor(_TAIL_OFFSET)

    def occupancy(self) -> int:
        """Slots currently published and unconsumed."""
        return max(0, self.head - self.tail)

    @property
    def full(self) -> bool:
        return self.occupancy() >= self.slots

    def __len__(self) -> int:
        return self.occupancy()

    # -- producer -------------------------------------------------------
    def push(
        self,
        kind: int,
        session_id: str,
        frame_id: int,
        payload: Optional[np.ndarray] = None,
        flags: int = 0,
        trace_id: int = 0,
        parent_span_id: int = 0,
        enqueue_ts: float = 0.0,
    ) -> bool:
        """Publish one message; ``False`` if the ring is full.

        The payload (if any) is written straight into the slot's shared
        memory -- one ``memcpy``, no serialisation. ``trace_id``/
        ``parent_span_id``/``enqueue_ts`` ride in the header so trace
        context crosses the boundary with the frame itself.
        """
        sid = encode_session_id(session_id)
        head = self.head
        if head - self.tail >= self.slots:
            self.full_rejects += 1
            return False
        base = _SLOTS_OFFSET + (head % self.slots) * self.slot_bytes

        dtype_code = 0
        ndim = 0
        shape: Tuple[int, ...] = ()
        nbytes = 0
        if payload is not None:
            arr = np.ascontiguousarray(payload)
            dtype_code = _DTYPE_CODES.get(arr.dtype, 0)
            if dtype_code == 0:
                raise RingLayoutError(
                    f"unsupported ring payload dtype {arr.dtype}"
                )
            if arr.ndim > _MAX_NDIM:
                raise RingLayoutError(
                    f"payload rank {arr.ndim} exceeds {_MAX_NDIM}"
                )
            nbytes = arr.nbytes
            if nbytes > self.payload_capacity:
                raise RingLayoutError(
                    f"payload of {nbytes} B exceeds the slot capacity "
                    f"of {self.payload_capacity} B"
                )
            ndim = arr.ndim
            shape = arr.shape
            dest = np.ndarray(
                arr.shape,
                dtype=arr.dtype,
                buffer=self._buf,
                offset=base + SLOT_HEADER_BYTES,
            )
            np.copyto(dest, arr)

        dims = list(shape) + [0] * (_MAX_NDIM - ndim)
        _SLOT_HEADER_FMT.pack_into(
            self._buf, base,
            head + 1, kind, flags, frame_id, nbytes, dtype_code, ndim,
            *dims, sid, trace_id, parent_span_id, enqueue_ts,
        )
        self._write_cursor(_HEAD_OFFSET, head + 1)
        self.pushes += 1
        return True

    # -- consumer -------------------------------------------------------
    def _decode(self, tail: int, copy: bool) -> RingMessage:
        base = _SLOTS_OFFSET + (tail % self.slots) * self.slot_bytes
        fields = _SLOT_HEADER_FMT.unpack_from(self._buf, base)
        seq, kind, flags, frame_id, nbytes, dtype_code, ndim = fields[:7]
        dims = fields[7:7 + _MAX_NDIM]
        sid_raw = fields[7 + _MAX_NDIM]
        trace_id, parent_span_id, enqueue_ts = fields[8 + _MAX_NDIM:]
        if seq != tail + 1:
            raise GatewayError(
                f"ring {self.name!r}: slot seq {seq} != expected "
                f"{tail + 1} (torn write or corrupt ring)"
            )
        payload: Optional[np.ndarray] = None
        if nbytes:
            dtype = _CODE_DTYPES.get(dtype_code)
            if dtype is None:
                raise GatewayError(
                    f"ring {self.name!r}: unknown dtype code {dtype_code}"
                )
            shape = tuple(dims[:ndim])
            view = np.ndarray(
                shape,
                dtype=dtype,
                buffer=self._buf,
                offset=base + SLOT_HEADER_BYTES,
            )
            payload = view.copy() if copy else view
        session_id = sid_raw.rstrip(b"\x00").decode("utf-8")
        return RingMessage(
            kind=kind, session_id=session_id, frame_id=frame_id,
            flags=flags, payload=payload, trace_id=trace_id,
            parent_span_id=parent_span_id, enqueue_ts=enqueue_ts,
        )

    def pop(self) -> Optional[RingMessage]:
        """Consume one message (payload copied out of the segment)."""
        tail = self.tail
        if tail >= self.head:
            return None
        message = self._decode(tail, copy=True)
        self._write_cursor(_TAIL_OFFSET, tail + 1)
        self.pops += 1
        return message

    def peek(self) -> Optional[RingMessage]:
        """Next message with a zero-copy payload view into the segment.

        The view stays valid until :meth:`commit` releases the slot back
        to the producer; callers that retain the array must copy it.
        """
        tail = self.tail
        if tail >= self.head:
            return None
        return self._decode(tail, copy=False)

    def commit(self) -> None:
        """Release the slot last returned by :meth:`peek`."""
        tail = self.tail
        if tail >= self.head:
            raise GatewayError("commit() without a pending peek()")
        self._write_cursor(_TAIL_OFFSET, tail + 1)
        self.pops += 1

    # -- lifecycle ------------------------------------------------------
    def stats(self) -> dict:
        return {
            "occupancy": self.occupancy(),
            "slots": self.slots,
            "pushes": self.pushes,
            "pops": self.pops,
            "full_rejects": self.full_rejects,
        }

    def close(self) -> None:
        self._buf = None
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - outstanding peek views
            # A zero-copy view still references the segment; the mapping
            # is reclaimed when the last view dies.
            pass

    def unlink(self) -> None:
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass
