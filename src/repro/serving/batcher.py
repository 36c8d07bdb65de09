"""Micro-batching: one forward pass for many sessions' windows.

Per-session streaming inference runs the network with batch size 1 and
pays the full python/layer dispatch overhead per frame. The batcher stacks
every ready window across sessions into a single ``(B, st, V, D, A)``
tensor and regresses all poses in one call -- the classic serving trick
that turns per-request overhead into per-batch overhead. An optional
content-hash cache short-circuits windows the model has already seen.

Failure handling is per-request, not per-batch (see DESIGN.md
"Resilience"): malformed windows are quarantined into the
:class:`~repro.resilience.DeadLetterLog` instead of poisoning the
batch, a failed batched forward is salvaged request-by-request under a
:class:`~repro.resilience.RetryPolicy`, and the compiled inference
plan runs behind a :class:`~repro.resilience.CircuitBreaker` that
degrades to the eager ``no_grad`` forward when the plan misbehaves
(``InferenceCompileError`` or non-finite output).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.regressor import HandJointRegressor
from repro.errors import (
    InferenceCompileError,
    InjectedFaultError,
    ModelError,
    RetryExhaustedError,
    ServingError,
)
from repro.obs import trace
from repro.resilience import (
    CircuitBreaker,
    DeadLetterLog,
    FaultInjector,
    RetryPolicy,
)
from repro.serving.cache import SegmentCache, segment_key
from repro.obs.metrics import MetricsRegistry
from repro.serving.session import SegmentRequest

# Exceptions a batched forward may raise that warrant salvaging the
# batch request-by-request rather than failing every caller.
_TRANSIENT_FORWARD_ERRORS = (
    InjectedFaultError,
    ModelError,
    FloatingPointError,
)


@dataclass
class PoseResult:
    """One regressed pose, tagged with its origin and serving metadata."""

    session_id: str
    frame_index: int
    joints: np.ndarray
    latency_s: float
    cached: bool = False
    batch_size: int = 1
    corr_id: str = ""


class MicroBatcher:
    """Stacks segment requests and runs them as one batched forward.

    Parameters
    ----------
    regressor:
        The shared joint-regression network (its ``predict`` accepts a
        leading batch dimension).
    max_batch_size:
        Upper bound on the number of windows fused into one forward.
    cache:
        Optional :class:`SegmentCache`; byte-identical windows skip the
        network entirely.
    metrics:
        Optional registry receiving batch/latency/cache instruments.
    breaker:
        Optional :class:`CircuitBreaker` guarding the compiled plan;
        when open, batches run the eager ``no_grad`` forward instead.
    dead_letters:
        Optional :class:`DeadLetterLog` receiving quarantined requests
        (invalid windows, forwards that exhausted their retries).
    retry:
        Policy for per-request salvage after a batched forward fails
        (default: three immediate attempts, no backoff sleep -- the
        serving loop must not stall).
    fault_injector:
        Optional :class:`FaultInjector` for chaos testing; injects
        delays/failures in front of the forward pass.
    """

    def __init__(
        self,
        regressor: HandJointRegressor,
        max_batch_size: int = 16,
        cache: Optional[SegmentCache] = None,
        metrics: Optional[MetricsRegistry] = None,
        breaker: Optional[CircuitBreaker] = None,
        dead_letters: Optional[DeadLetterLog] = None,
        retry: Optional[RetryPolicy] = None,
        fault_injector: Optional[FaultInjector] = None,
    ) -> None:
        if max_batch_size < 1:
            raise ServingError("max_batch_size must be >= 1")
        self.regressor = regressor
        self.max_batch_size = max_batch_size
        self.cache = cache
        self.metrics = metrics
        self.breaker = breaker
        self.dead_letters = dead_letters
        self.retry = (
            retry
            if retry is not None
            else RetryPolicy(
                max_attempts=3, base_delay_s=0.0, max_delay_s=0.0,
                jitter=0.0,
            )
        )
        self.fault_injector = fault_injector

    # -- degradation ladder --------------------------------------------
    @staticmethod
    def _invalid_reason(segment: np.ndarray) -> Optional[str]:
        """Why this window must not reach the network (``None`` if ok)."""
        segment = np.asarray(segment)
        if segment.ndim != 4:
            return f"expected a (st, V, D, A) window, got {segment.shape}"
        if not np.issubdtype(segment.dtype, np.number):
            return f"non-numeric dtype {segment.dtype}"
        if not np.all(np.isfinite(segment)):
            return "non-finite values (NaN/Inf) in window"
        return None

    def _quarantine(
        self, request: SegmentRequest, stage: str, reason: str
    ) -> None:
        if self.dead_letters is not None:
            self.dead_letters.record(
                session_id=request.session_id,
                frame_index=request.frame_index,
                stage=stage,
                reason=reason,
                corr_id=request.corr_id,
            )
        if self.metrics is not None:
            self.metrics.counter("quarantined").increment()
            self.metrics.events.emit(
                "quarantine",
                session_id=request.session_id,
                frame_index=request.frame_index,
                stage=stage,
                reason=reason,
            )

    def _forward(self, stacked: np.ndarray) -> np.ndarray:
        """One guarded forward pass over ``stacked`` windows.

        The degradation ladder: compiled plan (behind the breaker) ->
        eager ``no_grad`` forward. Injected chaos faults surface here
        so callers exercise the same salvage path as real failures.
        """
        if self.fault_injector is not None:
            self.fault_injector.maybe_delay_forward()
            self.fault_injector.maybe_fail_forward()
        if self.breaker is None:
            return self.regressor.predict(stacked)
        if self.breaker.allow():
            reason = None
            try:
                if self.fault_injector is not None:
                    self.fault_injector.maybe_fail_compile()
                out = self.regressor.predict(stacked, use_compiled=True)
                if np.all(np.isfinite(out)):
                    self.breaker.record_success()
                    return out
                reason = "non-finite compiled output"
            except InferenceCompileError as error:
                reason = f"compile failure: {error}"
            self.breaker.record_failure()
            if self.metrics is not None:
                self.metrics.counter("compiled_fallbacks").increment()
                self.metrics.events.emit(
                    "compiled_fallback", reason=reason,
                    breaker=self.breaker.state,
                )
        elif self.metrics is not None:
            self.metrics.counter("eager_batches").increment()
        return self.regressor.predict(stacked, use_compiled=False)

    # ------------------------------------------------------------------
    def run(self, requests: Sequence[SegmentRequest]) -> List[PoseResult]:
        """Serve ``requests`` (at most ``max_batch_size``) in one pass.

        Invalid or unsalvageable requests are quarantined (dead-letter
        log + ``quarantined`` counter) and simply absent from the
        returned results; the rest of the batch is unaffected.
        """
        if not requests:
            return []
        if len(requests) > self.max_batch_size:
            raise ServingError(
                f"batch of {len(requests)} exceeds max_batch_size="
                f"{self.max_batch_size}"
            )
        admitted: List[SegmentRequest] = []
        for request in requests:
            reason = self._invalid_reason(request.segment)
            if reason is None:
                admitted.append(request)
            else:
                self._quarantine(request, "batch-validate", reason)
        requests = admitted
        if not requests:
            return []

        joints_by_slot: List[Optional[np.ndarray]] = [None] * len(requests)
        cached_flags = [False] * len(requests)
        miss_slots: List[int] = []
        keys: List[Optional[str]] = [None] * len(requests)
        # key -> slots that ride along on the first occurrence's forward
        # row (within-batch dedup: identical windows run the net once).
        followers: dict = {}

        if self.cache is not None:
            for slot, request in enumerate(requests):
                key = segment_key(request.segment)
                keys[slot] = key
                if key in followers:
                    followers[key].append(slot)
                    cached_flags[slot] = True
                    continue
                hit = self.cache.get(key)
                if hit is not None:
                    joints_by_slot[slot] = hit
                    cached_flags[slot] = True
                else:
                    followers[key] = []
                    miss_slots.append(slot)
        else:
            miss_slots = list(range(len(requests)))

        failed_slots: List[int] = []
        if miss_slots:
            with trace.span(
                "serving.batch.forward", batch=len(miss_slots)
            ):
                stacked = np.stack(
                    [requests[slot].segment for slot in miss_slots]
                )
                try:
                    predictions = self._forward(stacked)
                except _TRANSIENT_FORWARD_ERRORS:
                    predictions = None
                    if self.metrics is not None:
                        self.metrics.counter(
                            "batch_forward_failures"
                        ).increment()
            if predictions is None:
                # The fused forward died: salvage request-by-request so
                # one poisoned (or unlucky) window cannot take down the
                # whole batch.
                predictions = self._salvage(
                    requests, miss_slots, failed_slots
                )
            for row, slot in enumerate(miss_slots):
                if predictions[row] is None:
                    continue
                joints_by_slot[slot] = predictions[row]
                if self.cache is not None and keys[slot] is not None:
                    self.cache.put(keys[slot], predictions[row])
                    for follower in followers.get(keys[slot], ()):
                        joints_by_slot[follower] = predictions[row]
            # Followers of a failed leader never got a prediction.
            for slot, request in enumerate(requests):
                if joints_by_slot[slot] is None and slot not in miss_slots:
                    failed_slots.append(slot)
                    self._quarantine(
                        request, "forward",
                        "deduplicated leader request failed",
                    )

        now = time.perf_counter()
        results = [
            PoseResult(
                session_id=request.session_id,
                frame_index=request.frame_index,
                joints=joints_by_slot[slot],
                latency_s=now - request.enqueued_at,
                cached=cached_flags[slot],
                batch_size=len(requests),
                corr_id=request.corr_id,
            )
            for slot, request in enumerate(requests)
            if joints_by_slot[slot] is not None
        ]

        if self.metrics is not None:
            served_cached = sum(
                1 for slot, flag in enumerate(cached_flags)
                if flag and joints_by_slot[slot] is not None
            )
            self.metrics.counter("batches").increment()
            self.metrics.counter("poses").increment(len(results))
            self.metrics.counter("cache_hits").increment(served_cached)
            self.metrics.counter("cache_misses").increment(len(miss_slots))
            self.metrics.histogram("batch_size").observe(len(requests))
            latency = self.metrics.histogram("latency_s")
            for result in results:
                latency.observe(result.latency_s)
            self.metrics.events.emit(
                "batch_served",
                batch_size=len(requests),
                cached=served_cached,
                failed=len(failed_slots),
                corr_ids=[result.corr_id for result in results],
            )
        return results

    def _salvage(
        self,
        requests: Sequence[SegmentRequest],
        miss_slots: List[int],
        failed_slots: List[int],
    ) -> List[Optional[np.ndarray]]:
        """Per-request recovery after a failed batched forward.

        Each miss runs alone under the retry policy; a request that
        still fails is quarantined and reported as ``None`` in the
        returned row list (aligned with ``miss_slots``).
        """
        rows: List[Optional[np.ndarray]] = []
        for slot in miss_slots:
            request = requests[slot]
            try:
                single = self.retry.call(
                    self._forward,
                    request.segment[None],
                    retry_on=_TRANSIENT_FORWARD_ERRORS,
                )
                rows.append(single[0])
                if self.metrics is not None:
                    self.metrics.counter("forward_salvaged").increment()
            except RetryExhaustedError as error:
                failed_slots.append(slot)
                self._quarantine(request, "forward", str(error))
                rows.append(None)
        return rows
