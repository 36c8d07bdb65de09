"""Bounded request queue with blocking backpressure and fairness.

The queue sits between the sessions (producers) and the micro-batcher
(consumer). It is bounded so a slow model cannot buffer unbounded radar
history. When it is full a producer waits (up to ``block_timeout_s``)
for the consumer to make room; a timeout raises
:class:`QueueFullError` and counts the request as rejected. No admitted
request is ever evicted.

Batches are popped round-robin across sessions so one chatty client
cannot starve the others.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from typing import Deque, Dict, List

from repro.errors import QueueFullError, ServingError
from repro.serving.session import SegmentRequest


class RequestQueue:
    """Bounded, session-fair queue of :class:`SegmentRequest`."""

    def __init__(
        self,
        capacity: int = 64,
        block_timeout_s: float = 1.0,
        metrics=None,
    ) -> None:
        if capacity < 1:
            raise ServingError("queue capacity must be >= 1")
        if block_timeout_s <= 0:
            raise ServingError("block_timeout_s must be positive")
        self.capacity = capacity
        self.block_timeout_s = block_timeout_s
        # Optional MetricsRegistry: rejections become visible counters
        # + events instead of silent losses.
        self.metrics = metrics
        # session id -> FIFO of its pending requests; dict order doubles
        # as the round-robin order (rotated on every pop_batch).
        self._pending: "OrderedDict[str, Deque[SegmentRequest]]" = (
            OrderedDict()
        )
        self._size = 0
        self.rejected = 0
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)

    def __len__(self) -> int:
        return self._size

    @property
    def full(self) -> bool:
        return self._size >= self.capacity

    def depth_by_session(self) -> Dict[str, int]:
        with self._lock:
            return {s: len(q) for s, q in self._pending.items() if q}

    # ------------------------------------------------------------------
    def put(self, request: SegmentRequest) -> None:
        """Admit ``request``, waiting for room while the queue is full.

        Raises :class:`QueueFullError` when the wait times out.
        """
        with self._not_full:
            if self._size >= self.capacity and not self._not_full.wait_for(
                lambda: self._size < self.capacity,
                timeout=self.block_timeout_s,
            ):
                self.rejected += 1
                if self.metrics is not None:
                    self.metrics.counter("serving.queue.rejected").increment()
                    self.metrics.events.emit(
                        "rejected_request",
                        session_id=request.session_id,
                        frame_index=request.frame_index,
                        corr_id=request.corr_id,
                    )
                raise QueueFullError(
                    f"queue stayed full for {self.block_timeout_s:.2f}s; "
                    f"giving up on request from {request.session_id!r}"
                )
            queue = self._pending.get(request.session_id)
            if queue is None:
                queue = deque()
                self._pending[request.session_id] = queue
            queue.append(request)
            self._size += 1

    def pop_batch(self, max_batch: int) -> List[SegmentRequest]:
        """Up to ``max_batch`` requests, round-robin across sessions.

        Each pass takes one request per session in rotation order, so a
        session with a deep backlog gets at most ``ceil`` of its fair
        share of any batch while others have work pending.
        """
        if max_batch < 1:
            raise ServingError("max_batch must be >= 1")
        batch: List[SegmentRequest] = []
        with self._not_full:
            while len(batch) < max_batch and self._size > 0:
                for session_id in list(self._pending.keys()):
                    if len(batch) >= max_batch:
                        break
                    queue = self._pending[session_id]
                    if queue:
                        batch.append(queue.popleft())
                        self._size -= 1
                # Rotate so the next batch starts with a different
                # session; drop empty per-session queues.
                for session_id in list(self._pending.keys()):
                    if not self._pending[session_id]:
                        del self._pending[session_id]
                if self._pending:
                    first, queue = next(iter(self._pending.items()))
                    self._pending.move_to_end(first)
            if batch:
                self._not_full.notify_all()
        return batch

    def purge_session(self, session_id: str) -> int:
        """Discard all pending requests of one session (on close)."""
        with self._not_full:
            queue = self._pending.pop(session_id, None)
            if queue is None:
                return 0
            count = len(queue)
            self._size -= count
            if count:
                self._not_full.notify_all()
            return count
