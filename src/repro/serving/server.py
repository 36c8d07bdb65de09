"""The multi-session inference server.

Ties the serving pieces together::

    client frames -> Session (sliding window, shared CubeBuilder)
                  -> RequestQueue (bounded, backpressure, fairness)
                  -> MicroBatcher (one batched forward + LRU cache)
                  -> PoseResult (+ Metrics / EventLog)

The server is synchronous and single-consumer by design: ``submit``
admits work, ``step`` serves one micro-batch, ``drain`` serves until the
queue is empty. Producers may call ``submit`` from other threads (the
queue is thread-safe and a full queue makes them wait for the consumer),
but ``step``/``drain`` are meant to run on one serving loop.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import numpy as np

from repro.core.regressor import HandJointRegressor
from repro.dsp.plans import PLAN_CACHE, publish_plan_cache_metrics
from repro.nn.inference import publish_plan_memory_metrics
from repro.dsp.radar_cube import CubeBuilder
from repro.errors import (
    FrameShapeError,
    QueueFullError,
    ServingError,
    SessionClosedError,
    UnknownSessionError,
)
from repro.resilience import (
    CircuitBreaker,
    DeadLetterLog,
    ErrorBudget,
    FaultInjector,
    HealthState,
)
from repro.serving.batcher import MicroBatcher, PoseResult
from repro.serving.cache import SegmentCache
from repro.obs.metrics import MetricsRegistry
from repro.serving.queue import RequestQueue
from repro.serving.session import SegmentRequest, Session


CLOSED_SESSION_RECORDS = 64
"""How many closed sessions' final ``stats()`` the server keeps."""


@dataclass
class ServingConfig:
    """Tunables of the inference service runtime.

    The resilience knobs: ``strict_frames=False`` quarantines malformed
    frames at :meth:`InferenceServer.submit` (dead-letter log + error
    budget) instead of raising; the ``breaker_*`` fields govern the
    circuit breaker in front of the compiled inference plan; the
    ``budget_*``/``*_ratio`` fields shape each session's error budget
    and thus the healthy/degraded/unhealthy ladder.

    The request queue always blocks when full (see
    :class:`~repro.serving.queue.RequestQueue`), whatever ``policy``
    says.
    """

    max_batch_size: int = 16
    queue_capacity: int = 64
    # Accepted for existing callers: "block" or "drop-oldest", both of
    # which block.
    policy: str = "block"
    block_timeout_s: float = 1.0
    cache_capacity: int = 256
    enable_cache: bool = True
    hop_frames: int = 1
    max_sessions: int = 1024
    # Accepted for existing callers; only these values are valid.
    shard_threads: int = 0
    precision: str = "float32"
    strict_frames: bool = False
    breaker_failure_threshold: int = 3
    breaker_reset_s: float = 30.0
    budget_window: int = 64
    budget_min_events: int = 4
    degraded_ratio: float = 0.05
    unhealthy_ratio: float = 0.25
    dead_letter_capacity: int = 1024

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ServingError("max_batch_size must be >= 1")
        if self.max_sessions < 1:
            raise ServingError("max_sessions must be >= 1")
        if self.hop_frames < 1:
            raise ServingError("hop_frames must be >= 1")
        if self.policy not in ("block", "drop-oldest"):
            raise ServingError(
                f"unknown backpressure policy {self.policy!r}: the "
                "request queue always blocks when full"
            )
        if self.shard_threads != 0 or self.precision != "float32":
            raise ServingError(
                "the compiled plan runs float32 on one thread: "
                "shard_threads must be 0 and precision 'float32'"
            )
        if self.breaker_failure_threshold < 1:
            raise ServingError("breaker_failure_threshold must be >= 1")
        if self.dead_letter_capacity < 1:
            raise ServingError("dead_letter_capacity must be >= 1")


class InferenceServer:
    """Serves many concurrent radar sessions against one shared model."""

    def __init__(
        self,
        builder: CubeBuilder,
        regressor: HandJointRegressor,
        config: Optional[ServingConfig] = None,
        fault_injector: Optional[FaultInjector] = None,
    ) -> None:
        self.builder = builder
        self.regressor = regressor
        # Serving must use inference semantics: running batch-norm
        # statistics and dropout as identity. A regressor handed over
        # straight from a trainer may still be in training mode, which
        # would make served outputs batch-dependent and perturb the
        # running statistics on every forward.
        self.regressor.eval()
        self.config = config if config is not None else ServingConfig()
        self.fault_injector = fault_injector
        self.metrics = MetricsRegistry()
        # The shared FFT plan cache sits below the serving layer; pull
        # its hit/miss/entry counts into this server's registry at every
        # snapshot so stats() and prometheus() agree with PLAN_CACHE.
        self.metrics.register_collector(publish_plan_cache_metrics)
        # Same for compiled-plan memory: arena-equivalent vs planned
        # bytes of every live CompiledModel in this process.
        self.metrics.register_collector(publish_plan_memory_metrics)
        # Aggregate health is derived state: refresh the gauge whenever
        # the registry is snapshotted or scraped.
        self.metrics.register_collector(self._publish_health)
        self.queue = RequestQueue(
            capacity=self.config.queue_capacity,
            block_timeout_s=self.config.block_timeout_s,
            metrics=self.metrics,
        )
        cache = (
            SegmentCache(self.config.cache_capacity)
            if self.config.enable_cache
            else None
        )
        self.dead_letters = DeadLetterLog(
            capacity=self.config.dead_letter_capacity
        )
        self.breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_failure_threshold,
            reset_timeout_s=self.config.breaker_reset_s,
            name="serving.compiled",
            metrics=self.metrics,
        )
        self.batcher = MicroBatcher(
            regressor,
            max_batch_size=self.config.max_batch_size,
            cache=cache,
            metrics=self.metrics,
            breaker=self.breaker,
            dead_letters=self.dead_letters,
            fault_injector=fault_injector,
        )
        # Open sessions only: close drops the Session (and its window)
        # and keeps its final stats() among the most recently closed.
        self._sessions: Dict[str, Session] = {}
        self._closed: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        # (session_id, frame_index) pairs of the most recent step()'s
        # requests that were quarantined instead of served. The gateway
        # worker reads this to answer every in-flight frame explicitly
        # (an UNSERVED message) instead of leaving its client waiting.
        self.last_unserved: List[tuple] = []
        # What an inline step() in _enqueue served (poses, quarantined
        # requests), handed out by the next step().
        self._held: List[PoseResult] = []
        self._held_unserved: List[tuple] = []

    # -- session lifecycle ---------------------------------------------
    def open_session(self, session_id: Optional[str] = None) -> str:
        """Register a new client stream; returns its session id."""
        if len(self._sessions) >= self.config.max_sessions:
            raise ServingError(
                f"session limit reached ({self.config.max_sessions})"
            )
        session = Session(
            self.builder, session_id=session_id,
            hop_frames=self.config.hop_frames,
            metrics=self.metrics,
            budget=ErrorBudget(
                window=self.config.budget_window,
                degraded_ratio=self.config.degraded_ratio,
                unhealthy_ratio=self.config.unhealthy_ratio,
                min_events=self.config.budget_min_events,
            ),
        )
        if session.session_id in self._sessions:
            raise ServingError(
                f"session id {session.session_id!r} already exists"
            )
        self._sessions[session.session_id] = session
        self._closed.pop(session.session_id, None)
        self.metrics.counter("sessions_opened").increment()
        self.metrics.gauge("open_sessions").add(1)
        self.metrics.events.emit(
            "session_open", session_id=session.session_id
        )
        return session.session_id

    def close_session(self, session_id: str) -> None:
        """Close a stream and discard its queued (now stale) windows.

        The session is dropped; its final stats stay readable through
        :meth:`session_stats` and :meth:`stats` until
        ``CLOSED_SESSION_RECORDS`` later closes push them out.
        """
        if session_id in self._closed:
            return
        session = self._get(session_id)
        session.close()
        purged = self.queue.purge_session(session_id)
        session.dropped += purged
        del self._sessions[session_id]
        self._closed[session_id] = session.stats()
        while len(self._closed) > CLOSED_SESSION_RECORDS:
            self._closed.popitem(last=False)
        self.metrics.counter("sessions_closed").increment()
        self.metrics.gauge("open_sessions").add(-1)
        self.metrics.events.emit(
            "session_close", session_id=session_id, purged=purged
        )

    def _get(self, session_id: str) -> Session:
        session = self._sessions.get(session_id)
        if session is None:
            if session_id in self._closed:
                raise SessionClosedError(
                    f"session {session_id!r} is closed"
                )
            raise UnknownSessionError(
                f"unknown session id {session_id!r}"
            )
        return session

    def session_stats(self, session_id: str) -> Dict[str, Any]:
        record = self._closed.get(session_id)
        if record is not None:
            return dict(record)
        return self._get(session_id).stats()

    # -- data path ------------------------------------------------------
    def submit(self, session_id: str, raw_frame: np.ndarray) -> bool:
        """Feed one raw IF frame; ``True`` if a window was enqueued.

        A malformed frame (wrong shape, NaN/Inf, non-numeric dtype) is
        quarantined into the dead-letter log and burns the session's
        error budget instead of raising, unless
        ``ServingConfig.strict_frames`` asks for the exception.
        """
        session = self._get(session_id)
        try:
            request = session.feed(raw_frame)
        except FrameShapeError as error:
            self._quarantine_frame(session, error)
            return False
        return self._enqueue(session, request)

    def submit_cube(
        self, session_id: str, cube_frame: np.ndarray
    ) -> bool:
        """Feed one already-preprocessed ``(V, D, A)`` cube frame."""
        session = self._get(session_id)
        try:
            request = session.feed_cube(cube_frame)
        except FrameShapeError as error:
            self._quarantine_frame(session, error)
            return False
        return self._enqueue(session, request)

    def _quarantine_frame(
        self, session: Session, error: FrameShapeError
    ) -> None:
        """Dead-letter one rejected ingest frame; re-raise when strict."""
        session.quarantined += 1
        session.budget.record_failure()
        self.dead_letters.record(
            session_id=session.session_id,
            frame_index=session.window.frame_index + 1,
            stage="ingest",
            reason=str(error),
        )
        self.metrics.counter("frames_quarantined").increment()
        self.metrics.events.emit(
            "frame_quarantined",
            session_id=session.session_id,
            reason=str(error),
        )
        if self.config.strict_frames:
            raise error

    def _enqueue(
        self, session: Session, request: Optional[SegmentRequest]
    ) -> bool:
        self.metrics.counter("frames_in").increment()
        if request is None:
            return False
        if self.queue.full:
            # Single-threaded backpressure: the producer *is* the
            # consumer's thread, so make room by serving a batch now
            # instead of deadlocking on the condition variable. Its
            # poses are held for the caller's next step()/drain()
            # (step() returns what was held before, too).
            self._held = self.step()
            self._held_unserved = self.last_unserved
        try:
            self.queue.put(request)
        except QueueFullError:
            session.dropped += 1
            self.metrics.counter("rejected").increment()
            self.metrics.events.emit(
                "reject", session_id=session.session_id,
                frame_index=request.frame_index,
            )
            raise
        self.metrics.gauge("queue_depth").set(len(self.queue))
        return True

    def step(self) -> List[PoseResult]:
        """Serve one micro-batch from the queue (may be empty).

        Requests the batcher had to quarantine (invalid window, forward
        that exhausted its retries) are missing from the results; their
        sessions' error budgets are charged here so per-session health
        reflects them. Poses served by an inline step while a full
        queue made room come first.
        """
        held, self._held = self._held, []
        held_unserved, self._held_unserved = self._held_unserved, []
        batch = self.queue.pop_batch(self.config.max_batch_size)
        if not batch:
            self.last_unserved = held_unserved
            return held
        # Stage-latency ledger: batch-wait is how long each request sat
        # in the queue before its forward started; forward is the fused
        # batcher pass. Keeping both as separate histograms makes
        # queueing delay separable from compute in stats()/Prometheus.
        forward_start = time.perf_counter()
        batch_wait = self.metrics.histogram("stage.batch_wait_s")
        for request in batch:
            batch_wait.observe(max(0.0, forward_start - request.enqueued_at))
        results = self.batcher.run(batch)
        self.metrics.histogram("stage.forward_s").observe(
            time.perf_counter() - forward_start
        )
        served = {(r.session_id, r.frame_index) for r in results}
        unserved: List[tuple] = []
        for result in results:
            session = self._sessions.get(result.session_id)
            if session is not None:
                session.results_out += 1
                session.budget.record_success()
        for request in batch:
            if (request.session_id, request.frame_index) in served:
                continue
            unserved.append((request.session_id, request.frame_index))
            session = self._sessions.get(request.session_id)
            if session is not None:
                session.quarantined += 1
                session.budget.record_failure()
        self.last_unserved = held_unserved + unserved
        self.metrics.gauge("queue_depth").set(len(self.queue))
        return held + results

    def drain(self) -> List[PoseResult]:
        """Serve micro-batches until the queue is empty."""
        results = self.step()
        while len(self.queue) > 0:
            results.extend(self.step())
        return results

    # -- health ---------------------------------------------------------
    def health(self) -> HealthState:
        """Worst health across open sessions and the compiled-path
        breaker (an open/half-open breaker means the service is serving
        degraded eager results, never better than ``DEGRADED``)."""
        states = [session.health() for session in self._sessions.values()]
        overall = HealthState.worst(*states)
        if self.breaker.state != "closed":
            overall = HealthState.worst(overall, HealthState.DEGRADED)
        return overall

    def _publish_health(self, registry: MetricsRegistry) -> None:
        registry.gauge("serving.health").set(self.health().code)

    # -- observability --------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """One snapshot of every counter, gauge, histogram and cache."""
        snapshot = self.metrics.snapshot()
        snapshot["queue"] = {
            "depth": len(self.queue),
            "capacity": self.queue.capacity,
            "rejected": self.queue.rejected,
            "by_session": self.queue.depth_by_session(),
        }
        if self.batcher.cache is not None:
            snapshot["cache"] = self.batcher.cache.stats()
        snapshot["plan_cache"] = PLAN_CACHE.stats()
        snapshot["health"] = self.health().value
        snapshot["breaker"] = self.breaker.stats()
        snapshot["dead_letters"] = {
            **self.dead_letters.stats(),
            "tail": self.dead_letters.tail(5),
        }
        sessions = {sid: dict(rec) for sid, rec in self._closed.items()}
        for sid, session in self._sessions.items():
            sessions[sid] = session.stats()
        snapshot["sessions"] = sessions
        return snapshot

    def prometheus(self) -> str:
        """Prometheus text exposition of this server's registry."""
        return self.metrics.to_prometheus()
