"""The gateway dispatcher: sessions in the front, worker processes behind.

:class:`Gateway` is the process-pool serving tier. It admits client
sessions, pins each one to a worker (sticky affinity, so the session's
sliding window lives in exactly one process), moves radar frames into
the workers through zero-copy shared-memory rings, and collects acks
and poses off the response rings. On top of the data path it runs the
control plane:

* **liveness** -- every worker bumps a heartbeat slot in a small shared
  segment; a stale heartbeat or a non-``None`` ``Process.exitcode``
  marks the worker dead;
* **recovery** -- a dead worker is restarted with fresh rings (the old
  segment may hold a half-written slot), its sessions stay pinned to
  the slot and lazily reopen, unacked in-flight frames are **replayed**
  into the restarted worker in order, and acked-but-unanswered frames
  are **dead-lettered** -- every clean frame is answered or accounted,
  never silently lost;
* **aggregation** -- worker stats snapshots (requested over the control
  pipes) merge into one ``health()`` ladder, one ``stats()`` tree and
  one Prometheus exposition;
* **distributed tracing** -- every forwarded frame is wrapped in a
  dispatcher-side ``gateway.submit`` span whose context rides in the
  ring slot header; workers ship their finished spans (and optional
  sampling profiles) back with stats replies and the final ``bye``, and
  :meth:`Gateway.export_chrome` merges the dispatcher's and every
  worker's spans into one Chrome trace with per-process lanes. A
  per-frame stage-latency ledger (submit / ring-wait / ingest /
  batch-wait / forward / pose-return) aggregates into per-stage
  histograms surfaced by ``stats()["stage_latency"]`` and Prometheus.

The dispatcher itself is single-threaded: callers interleave
``submit``/``submit_cube`` with ``pump()`` exactly like the in-process
:class:`~repro.serving.InferenceServer`'s ``submit``/``step`` loop.
Nothing polls on a timer. Each worker slot owns a request doorbell and
the pool shares one response doorbell (eventfds, see
:mod:`repro.gateway.ring`); a caller with nothing to do parks on
:attr:`Gateway.response_doorbell` for at most
:attr:`Gateway.heartbeat_interval_s` and then calls ``pump()``, as
:meth:`Gateway.drain` and the netfront pump loop do. Workers are
forked, which is how they inherit the doorbells.
"""

from __future__ import annotations

import itertools
import json
import multiprocessing
import os
import select
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field, replace
from multiprocessing import shared_memory
from typing import Any, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.config import DspConfig, ModelConfig, RadarConfig
from repro.errors import (
    GatewayError,
    QueueFullError,
    UnknownSessionError,
    WorkerCrashedError,
)
from repro.gateway.ring import (
    ACK_ENQUEUED,
    ACK_QUARANTINED,
    KIND_ACK,
    KIND_CLOSE,
    KIND_CLOSED,
    KIND_FRAME_CUBE,
    KIND_FRAME_RAW,
    KIND_POSE,
    KIND_UNSERVED,
    SLOT_HEADER_BYTES,
    ShmRing,
    drain_doorbell,
    encode_session_id,
    make_doorbell,
    ring_doorbell,
)
from repro.gateway.worker import WorkerConfig, worker_main
from repro.obs import trace as obs_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import merge_profiles
from repro.resilience import DeadLetterLog, HealthState
from repro.serving import ServingConfig
from repro.serving.batcher import PoseResult

_gateway_counter = itertools.count()


@dataclass
class GatewayConfig:
    """Tunables of the multi-process serving tier.

    Workers are always forked (they inherit the doorbell eventfds that
    way), so the gateway runs where ``fork`` exists: Linux.
    """

    workers: int = 2
    ring_slots: int = 64
    slot_bytes: int = 0  # 0: sized automatically from the radar/dsp shapes
    heartbeat_timeout_s: float = 5.0
    max_restarts: int = 8
    serving: ServingConfig = field(default_factory=ServingConfig)
    seed: int = 0
    weights_path: Optional[str] = None
    # Pre-compiled plan artifact (``mmhand plan export``); workers load
    # it at spawn instead of recording/refolding the network.
    plan_path: Optional[str] = None
    # Chaos passthrough (worker-local fault injectors).
    chaos_frame_rate: float = 0.0
    chaos_forward_rate: float = 0.0
    chaos_compile_fail: bool = False
    chaos_seed: int = 0
    # Sampling-profiler rate inside each worker (0 = disabled);
    # profiles ship back over the control pipe and merge into one
    # flamegraph via Gateway.merged_profile().
    profile_hz: float = 0.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise GatewayError("workers must be >= 1")
        if self.ring_slots < 2:
            raise GatewayError("ring_slots must be >= 2")
        if self.heartbeat_timeout_s <= 0:
            raise GatewayError("heartbeat_timeout_s must be positive")
        if self.max_restarts < 0:
            raise GatewayError("max_restarts must be >= 0")


@dataclass
class _InFlight:
    """One frame pushed to a worker and not yet acknowledged.

    Carries the frame's trace context so a crash replay re-propagates
    the *original* ``gateway.submit`` span -- a replayed frame's
    worker-side spans stay parented to the submit that first saw it.
    """

    session_id: str
    frame_id: int
    kind: int
    payload: np.ndarray
    pushed_at: float
    trace_id: int = 0
    parent_span_id: int = 0


class _WorkerHandle:
    """Dispatcher-side state of one worker slot."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.generation = 0
        self.process: Optional[multiprocessing.Process] = None
        self.request_ring: Optional[ShmRing] = None
        self.response_ring: Optional[ShmRing] = None
        # Rung after every push to request_ring; kept across restarts.
        self.doorbell: Optional[int] = None
        self.conn = None
        self.sessions: set = set()
        # Closes not yet pushed because the request ring was full;
        # every pump retries them in order.
        self.pending_closes: Deque[str] = deque()
        # (session_id, frame_id) -> _InFlight, insertion-ordered so a
        # crash replay preserves per-session frame order.
        self.inflight: "OrderedDict[Tuple[str, int], _InFlight]" = (
            OrderedDict()
        )
        # Acked-as-enqueued frames awaiting their pose: -> submit time.
        self.awaiting_pose: Dict[Tuple[str, int], float] = {}
        self.restarts = 0
        self.started_at = 0.0
        self.recovered = True
        self.last_stats: Optional[Dict[str, Any]] = None

    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


class Gateway:
    """Multi-process serving tier with zero-copy shared-memory ingest."""

    def __init__(
        self,
        radar: Optional[RadarConfig] = None,
        dsp: Optional[DspConfig] = None,
        model: Optional[ModelConfig] = None,
        config: Optional[GatewayConfig] = None,
    ) -> None:
        self.radar = radar if radar is not None else RadarConfig()
        self.dsp = dsp if dsp is not None else DspConfig()
        self.model = model if model is not None else ModelConfig()
        self.config = config if config is not None else GatewayConfig()
        self._ctx = multiprocessing.get_context("fork")
        self._id = f"gw{next(_gateway_counter)}"
        self.metrics = MetricsRegistry()
        self.metrics.register_collector(self._publish_gauges)
        self.dead_letters = DeadLetterLog(capacity=4096)
        self._tracer = obs_trace.get_tracer()
        # Spans shipped back from workers (bounded; merged into one
        # Chrome trace by export_chrome) and the latest profile per
        # worker generation (lane name -> profile dict).
        self._worker_spans: Deque[Dict[str, Any]] = deque(maxlen=262144)
        self._worker_profiles: Dict[str, Dict[str, Any]] = {}
        # Dead letters recorded inside workers (quarantined frames,
        # forwards that exhausted their retries), shipped like spans.
        self._worker_dead_letters: Deque[Dict[str, Any]] = deque(
            maxlen=4096
        )
        self._process_names: Dict[int, str] = {
            os.getpid(): "dispatcher"
        }
        self._workers = [
            _WorkerHandle(i) for i in range(self.config.workers)
        ]
        self._heartbeat_shm: Optional[shared_memory.SharedMemory] = None
        self._heartbeat: Optional[np.ndarray] = None
        self._response_doorbell: Optional[int] = None
        # Registry of live sessions; a closed one is forgotten once it
        # is settled (see _forget_if_settled), so it stays bounded.
        self._sessions: Dict[str, int] = {}  # session id -> worker index
        self._closed_sessions: set = set()
        self._frame_ids: Dict[str, int] = {}
        self._session_counter = itertools.count()
        # Poses collected by a pump made inside submit, handed out by
        # the caller's next pump().
        self._held: List[PoseResult] = []
        self._started = False
        self._slot_bytes = self._resolve_slot_bytes()

    # -- sizing ---------------------------------------------------------
    def _resolve_slot_bytes(self) -> int:
        if self.config.slot_bytes:
            return self.config.slot_bytes
        # Raw IF frames off the simulator are complex128 (16 B/elem).
        raw_bytes = 16 * (
            self.radar.num_virtual_antennas
            * self.radar.chirp_loops
            * self.radar.samples_per_chirp
        )
        cube_bytes = 8 * (
            self.dsp.doppler_bins
            * self.dsp.range_bins
            * self.dsp.angle_bins_total
        )
        payload = max(raw_bytes, cube_bytes, 21 * 3 * 8)
        return SLOT_HEADER_BYTES + payload

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "Gateway":
        if self._started:
            return self
        size = max(self.config.workers * 8, 8)
        self._heartbeat_shm = shared_memory.SharedMemory(
            create=True, size=size
        )
        self._heartbeat = np.ndarray(
            (self.config.workers,),
            dtype=np.float64,
            buffer=self._heartbeat_shm.buf,
        )
        # Liveness deadlines run on the monotonic clock (system-wide on
        # Linux, shared with the workers' beat()): an NTP step or DST
        # jump on the wall clock must never mass-expire heartbeats and
        # kill a healthy pool. Wall time appears only in logs/traces.
        self._heartbeat[:] = time.monotonic()
        self._response_doorbell = make_doorbell()
        for handle in self._workers:
            handle.doorbell = make_doorbell()
        for handle in self._workers:
            self._launch(handle)
        self._started = True
        self._await_first_heartbeats()
        return self

    def _await_first_heartbeats(self, timeout_s: float = 10.0) -> None:
        """Block briefly until every worker proves live, so a freshly
        ``start()``-ed gateway reports HEALTHY instead of the
        not-yet-proven-recovered DEGRADED clamp."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            self.pump(check_liveness=True)
            if all(handle.recovered for handle in self._workers):
                return
            time.sleep(0.005)

    @property
    def response_doorbell(self) -> Optional[int]:
        """Eventfd that turns readable when any worker pushed a
        response; ``pump()`` silences it before draining the rings."""
        return self._response_doorbell

    @property
    def heartbeat_interval_s(self) -> float:
        """Worker beat period: the longest anyone parks on a doorbell,
        so liveness checks keep running on an idle pool."""
        return WorkerConfig.heartbeat_interval_s

    def __enter__(self) -> "Gateway":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def _worker_config(self) -> WorkerConfig:
        return WorkerConfig(
            radar=self.radar,
            dsp=self.dsp,
            model=self.model,
            serving=replace(self.config.serving),
            seed=self.config.seed,
            weights_path=self.config.weights_path,
            plan_path=self.config.plan_path,
            chaos_frame_rate=self.config.chaos_frame_rate,
            chaos_forward_rate=self.config.chaos_forward_rate,
            chaos_compile_fail=self.config.chaos_compile_fail,
            chaos_seed=self.config.chaos_seed,
            profile_hz=self.config.profile_hz,
        )

    def _launch(self, handle: _WorkerHandle) -> None:
        handle.generation += 1
        request_ring = ShmRing.create(
            self.config.ring_slots, self._slot_bytes
        )
        response_ring = ShmRing.create(
            self.config.ring_slots, self._slot_bytes
        )
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=worker_main,
            args=(
                handle.index,
                request_ring.name,
                response_ring.name,
                self._heartbeat_shm.name,
                handle.doorbell,
                self._response_doorbell,
                child_conn,
                self._worker_config(),
            ),
            name=f"{self._id}-worker-{handle.index}"
                 f".g{handle.generation}",
            daemon=True,
        )
        if self._heartbeat is not None:
            self._heartbeat[handle.index] = time.monotonic()
        process.start()
        child_conn.close()
        handle.process = process
        handle.request_ring = request_ring
        handle.response_ring = response_ring
        handle.conn = parent_conn
        handle.started_at = time.monotonic()
        handle.recovered = False
        if process.pid is not None:
            lane = f"worker-{handle.index}"
            if handle.generation > 1:
                lane += f".g{handle.generation}"
            self._process_names[process.pid] = lane
        self.metrics.events.emit(
            "worker_start", worker=handle.index,
            generation=handle.generation, pid=process.pid,
        )

    def _absorb_obs(self, handle: "_WorkerHandle", payload: Any) -> None:
        """Bank spans, profile and dead letters a worker shipped over
        the control pipe."""
        if not isinstance(payload, dict):
            return
        spans = payload.get("trace_spans")
        if spans:
            self._worker_spans.extend(spans)
        letters = payload.get("dead_letter_records")
        if letters:
            self._worker_dead_letters.extend(letters)
        profile = payload.get("profile")
        if profile:
            lane = f"worker-{handle.index}"
            if handle.generation > 1:
                lane += f".g{handle.generation}"
            self._worker_profiles[lane] = profile

    def _absorb_control_message(
        self, handle: "_WorkerHandle", kind: str, payload: Any
    ) -> None:
        if kind == "stats" and isinstance(payload, dict):
            self._absorb_obs(
                handle,
                {
                    "trace_spans": payload.pop("trace_spans", None),
                    "profile": payload.pop("profile", None),
                    "dead_letter_records": payload.pop(
                        "dead_letter_records", None
                    ),
                },
            )
            handle.last_stats = payload
        elif kind == "bye":
            self._absorb_obs(handle, payload)

    def shutdown(self, timeout_s: float = 5.0) -> None:
        """Stop workers and release every shared segment."""
        for handle in self._workers:
            if handle.conn is not None:
                try:
                    handle.conn.send("shutdown")
                except (BrokenPipeError, OSError):
                    pass
        deadline = time.monotonic() + timeout_s
        # Collect each worker's farewell (buffered spans, final
        # profile) before joining; a worker that died uncleanly simply
        # has nothing to say.
        for handle in self._workers:
            conn = handle.conn
            if conn is None:
                continue
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                try:
                    if not conn.poll(min(0.5, remaining)):
                        break
                    kind, _index, payload = conn.recv()
                except (EOFError, OSError):
                    break
                self._absorb_control_message(handle, kind, payload)
                if kind == "bye":
                    break
        for handle in self._workers:
            if handle.process is None:
                continue
            handle.process.join(max(0.05, deadline - time.monotonic()))
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(1.0)
            self._teardown_worker_ipc(handle)
        if self._heartbeat_shm is not None:
            self._heartbeat = None
            self._heartbeat_shm.close()
            try:
                self._heartbeat_shm.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass
            self._heartbeat_shm = None
        for fd in [self._response_doorbell] + [
            handle.doorbell for handle in self._workers
        ]:
            if fd is not None:
                os.close(fd)
        self._response_doorbell = None
        for handle in self._workers:
            handle.doorbell = None
        self._started = False

    def _teardown_worker_ipc(self, handle: _WorkerHandle) -> None:
        for ring in (handle.request_ring, handle.response_ring):
            if ring is not None:
                ring.close()
                ring.unlink()
        handle.request_ring = None
        handle.response_ring = None
        if handle.conn is not None:
            handle.conn.close()
            handle.conn = None

    # -- session management ---------------------------------------------
    def open_session(self, session_id: Optional[str] = None) -> str:
        """Admit a client stream, pinning it to the least-loaded worker."""
        self._require_started()
        if session_id is None:
            session_id = f"{self._id}-s{next(self._session_counter)}"
        encode_session_id(session_id)  # validates header width
        if session_id in self._sessions:
            raise GatewayError(
                f"session id {session_id!r} already exists"
            )
        handle = min(self._workers, key=lambda h: len(h.sessions))
        handle.sessions.add(session_id)
        self._sessions[session_id] = handle.index
        self._closed_sessions.discard(session_id)
        self._frame_ids[session_id] = -1
        self.metrics.counter("gateway.sessions_opened").increment()
        return session_id

    def close_session(self, session_id: str) -> None:
        handle = self._handle_for(session_id)
        if session_id in self._closed_sessions:
            return
        self._closed_sessions.add(session_id)
        handle.pending_closes.append(session_id)
        self._push_closes(handle)
        self.metrics.counter("gateway.sessions_closed").increment()

    def _push_closes(self, handle: _WorkerHandle) -> None:
        """Push the worker's queued closes in order; whatever a full
        ring refuses waits for the next pump."""
        while handle.pending_closes and self._push(
            handle, KIND_CLOSE, handle.pending_closes[0], 0
        ):
            handle.pending_closes.popleft()

    def session_to_worker(self) -> Dict[str, int]:
        """Sticky session->worker assignment (for tests/operators)."""
        return dict(self._sessions)

    def _handle_for(self, session_id: str) -> _WorkerHandle:
        index = self._sessions.get(session_id)
        if index is None:
            raise UnknownSessionError(
                f"unknown session id {session_id!r}"
            )
        return self._workers[index]

    def _forget_if_settled(
        self, handle: _WorkerHandle, session_id: str
    ) -> None:
        """Drop a closed session from the registry once its worker
        confirmed the close and none of its frames is in flight or
        awaiting a pose -- nothing can refer to it any more."""
        if (
            session_id not in self._closed_sessions
            or session_id in handle.sessions
        ):
            return
        for key in itertools.chain(handle.inflight, handle.awaiting_pose):
            if key[0] == session_id:
                return
        self._sessions.pop(session_id, None)
        self._closed_sessions.discard(session_id)
        self._frame_ids.pop(session_id, None)

    def _require_started(self) -> None:
        if not self._started:
            raise GatewayError(
                "gateway is not running; call start() first"
            )

    # -- data path ------------------------------------------------------
    def _push(
        self, handle: _WorkerHandle, kind: int, session_id: str,
        frame_id: int, payload: Optional[np.ndarray] = None,
        trace_id: int = 0, parent_span_id: int = 0,
    ) -> bool:
        """Push to a worker's request ring, then ring its doorbell;
        ``False`` if the ring is full or the worker is mid-restart."""
        ring = handle.request_ring
        if ring is None or not ring.push(
            kind, session_id, frame_id, payload,
            trace_id=trace_id, parent_span_id=parent_span_id,
            enqueue_ts=time.monotonic(),
        ):
            return False
        ring_doorbell(handle.doorbell)
        return True

    def submit(self, session_id: str, raw_frame: np.ndarray) -> bool:
        """Forward one raw IF frame to the session's worker."""
        return self._forward(session_id, KIND_FRAME_RAW, raw_frame)

    def submit_cube(
        self, session_id: str, cube_frame: np.ndarray
    ) -> bool:
        """Forward one preprocessed ``(V, D, A)`` cube frame."""
        return self._forward(session_id, KIND_FRAME_CUBE, cube_frame)

    def _forward(
        self, session_id: str, kind: int, frame: np.ndarray
    ) -> bool:
        self._require_started()
        handle = self._handle_for(session_id)
        if session_id in self._closed_sessions:
            raise GatewayError(
                f"session {session_id!r} is closed"
            )
        frame = np.ascontiguousarray(frame)
        frame_id = self._frame_ids[session_id] + 1
        submit_start = time.perf_counter()
        # The submit span is the frame's trace root on the dispatcher
        # side; its (trace_id, span_id) rides in the slot header so the
        # worker's spans join this trace across the process boundary.
        with self._tracer.span(
            "gateway.submit", session=session_id, frame_id=frame_id
        ) as span:
            trace_id = span.trace_id if span is not None else 0
            parent_span_id = span.span_id if span is not None else 0
            if not self._push(
                handle, kind, session_id, frame_id, frame,
                trace_id, parent_span_id,
            ):
                # Ring full (or the worker is mid-restart): give the
                # pool one pump to drain, then apply explicit
                # backpressure.
                self._held = self.pump()  # includes what _held had
                handle = self._handle_for(session_id)
                if not self._push(
                    handle, kind, session_id, frame_id, frame,
                    trace_id, parent_span_id,
                ):
                    self.metrics.counter(
                        "gateway.ring_rejects"
                    ).increment()
                    raise QueueFullError(
                        f"worker {handle.index} request ring is full "
                        f"({self.config.ring_slots} slots); rejecting "
                        f"frame {frame_id} of {session_id!r}"
                    )
        self.metrics.histogram("gateway.stage.submit_s").observe(
            time.perf_counter() - submit_start
        )
        self._frame_ids[session_id] = frame_id
        handle.inflight[(session_id, frame_id)] = _InFlight(
            session_id=session_id, frame_id=frame_id, kind=kind,
            payload=frame, pushed_at=time.perf_counter(),
            trace_id=trace_id, parent_span_id=parent_span_id,
        )
        self.metrics.counter("gateway.frames_forwarded").increment()
        return True

    # -- response path --------------------------------------------------
    def pump(self, check_liveness: bool = True) -> List[PoseResult]:
        """Drain every worker's response ring; detect/recover crashes.

        Returns the poses that arrived during this pump, in arrival
        order. It is the gateway's event loop tick: call it whenever
        :attr:`response_doorbell` turns readable, and at least once per
        :attr:`heartbeat_interval_s` so crashes are noticed.
        """
        self._require_started()
        # Silence the doorbell before draining: a response pushed after
        # this rings again, so the caller's next park cannot miss it.
        drain_doorbell(self._response_doorbell)
        results, self._held = self._held, []
        for handle in self._workers:
            results.extend(self._drain_worker(handle))
            self._push_closes(handle)
        if check_liveness:
            for handle in self._workers:
                if self._worker_is_dead(handle):
                    self._recover_worker(handle, results)
                elif not handle.recovered:
                    beat = (
                        self._heartbeat[handle.index]
                        if self._heartbeat is not None else 0.0
                    )
                    if beat >= handle.started_at:
                        handle.recovered = True
        return results

    def _drain_worker(
        self, handle: _WorkerHandle, limit: Optional[int] = None
    ) -> List[PoseResult]:
        results: List[PoseResult] = []
        ring = handle.response_ring
        if ring is None:
            return results
        budget = limit if limit is not None else 4 * self.config.ring_slots
        for _ in range(budget):
            message = ring.pop()
            if message is None:
                break
            sid = message.session_id
            key = (sid, message.frame_id)
            if message.kind == KIND_ACK:
                entry = handle.inflight.pop(key, None)
                self.metrics.counter("gateway.acks").increment()
                if message.flags == ACK_ENQUEUED:
                    handle.awaiting_pose[key] = (
                        entry.pushed_at
                        if entry is not None
                        else time.perf_counter()
                    )
                elif message.flags == ACK_QUARANTINED:
                    self.metrics.counter(
                        "gateway.frames_quarantined"
                    ).increment()
            elif message.kind == KIND_POSE:
                pushed_at = handle.awaiting_pose.pop(
                    key, time.perf_counter()
                )
                results.append(
                    PoseResult(
                        session_id=message.session_id,
                        frame_index=message.frame_id,
                        joints=message.payload,
                        latency_s=time.perf_counter() - pushed_at,
                        corr_id=(
                            f"{message.session_id}#{message.frame_id}"
                        ),
                    )
                )
                self.metrics.counter("gateway.poses").increment()
                self.metrics.histogram("gateway.latency_s").observe(
                    results[-1].latency_s
                )
                if message.enqueue_ts > 0:
                    # Pose-return stage: time the answer sat on the
                    # response ring before this pump collected it (the
                    # worker stamped it on the same monotonic clock).
                    returned_at = time.monotonic()
                    self.metrics.histogram(
                        "gateway.stage.pose_return_s"
                    ).observe(max(0.0, returned_at - message.enqueue_ts))
                    if message.trace_id:
                        self._tracer.record(
                            "gateway.pose_return",
                            self._tracer.rel_from_monotonic(
                                message.enqueue_ts
                            ),
                            self._tracer.rel_from_monotonic(returned_at),
                            trace_id=message.trace_id,
                            parent_id=message.parent_span_id or None,
                            correlation_id=results[-1].corr_id,
                            frame_id=message.frame_id,
                            session=message.session_id,
                        )
            elif message.kind == KIND_UNSERVED:
                handle.awaiting_pose.pop(key, None)
                self.dead_letters.record(
                    session_id=message.session_id,
                    frame_index=message.frame_id,
                    stage="worker-forward",
                    reason="request quarantined during batch forward",
                    corr_id=(
                        f"{message.session_id}#{message.frame_id}"
                    ),
                )
                self.metrics.counter("gateway.unserved").increment()
            elif message.kind == KIND_CLOSED:
                handle.sessions.discard(sid)
            self._forget_if_settled(handle, sid)
        else:
            # Budget spent with messages possibly left: re-ring so the
            # caller's next park returns at once instead of a heartbeat
            # later.
            ring_doorbell(self._response_doorbell)
        return results

    # -- crash recovery -------------------------------------------------
    def _worker_is_dead(self, handle: _WorkerHandle) -> bool:
        if handle.process is None:
            return False
        if not handle.process.is_alive():
            return True
        if self._heartbeat is None:
            return False
        age = time.monotonic() - self._heartbeat[handle.index]
        return age > self.config.heartbeat_timeout_s

    def _recover_worker(
        self, handle: _WorkerHandle, results: List[PoseResult]
    ) -> None:
        """Restart a dead worker; replay or dead-letter its in-flight.

        Order matters: drain the old response ring first (acks/poses
        published before the crash are still valid, and land in
        ``results``), then account every remaining in-flight frame,
        then bring up the replacement.
        """
        exitcode = (
            handle.process.exitcode if handle.process is not None else None
        )
        self.metrics.counter("gateway.worker_deaths").increment()
        self.metrics.events.emit(
            "worker_death", worker=handle.index, exitcode=exitcode,
            generation=handle.generation,
        )
        results.extend(self._drain_worker(handle))
        # Frames the dead worker acked as enqueued but never answered:
        # their window/queue state died with the process.
        for (sid, fid) in list(handle.awaiting_pose):
            self.dead_letters.record(
                session_id=sid, frame_index=fid, stage="worker-crash",
                reason=f"worker {handle.index} died (exit {exitcode}) "
                       "before serving the segment",
                corr_id=f"{sid}#{fid}",
            )
            self.metrics.counter(
                "gateway.crash_dead_letters"
            ).increment()
        handle.awaiting_pose.clear()
        replay = []
        for entry in handle.inflight.values():
            if entry.session_id in self._closed_sessions:
                # Closed before the crash: nobody waits for the frame,
                # and the fresh worker will never see the session.
                self.dead_letters.record(
                    session_id=entry.session_id,
                    frame_index=entry.frame_id,
                    stage="worker-crash",
                    reason=f"worker {handle.index} died (exit "
                           f"{exitcode}) after the session closed",
                    corr_id=f"{entry.session_id}#{entry.frame_id}",
                )
            else:
                replay.append(entry)
        handle.inflight.clear()
        # The dead worker can no longer confirm pending closes, and
        # its replacement never sees those sessions.
        handle.pending_closes.clear()
        for sid in handle.sessions & self._closed_sessions:
            handle.sessions.discard(sid)
            self._forget_if_settled(handle, sid)

        if handle.process is not None:
            handle.process.join(0.1)
        self._teardown_worker_ipc(handle)
        if handle.restarts >= self.config.max_restarts:
            handle.process = None
            for entry in replay:
                self.dead_letters.record(
                    session_id=entry.session_id,
                    frame_index=entry.frame_id,
                    stage="worker-crash",
                    reason=f"worker {handle.index} exceeded "
                           f"{self.config.max_restarts} restarts",
                    corr_id=f"{entry.session_id}#{entry.frame_id}",
                )
            raise WorkerCrashedError(
                f"worker {handle.index} died (exit {exitcode}) and "
                f"exceeded its restart budget of "
                f"{self.config.max_restarts}"
            )
        handle.restarts += 1
        self.metrics.counter("gateway.worker_restarts").increment()
        self._launch(handle)
        # Replay unacked frames in original order into the fresh worker
        # (its windows restart empty; the frames are re-acked normally).
        for entry in replay:
            # Replays re-propagate the frame's original trace context:
            # the restarted worker's spans stay parented to the submit
            # span that first forwarded the frame.
            if self._push(
                handle, entry.kind, entry.session_id, entry.frame_id,
                entry.payload, entry.trace_id, entry.parent_span_id,
            ):
                handle.inflight[
                    (entry.session_id, entry.frame_id)
                ] = entry
                self.metrics.counter("gateway.frames_replayed").increment()
            else:  # pragma: no cover - ring sized >= inflight bound
                self.dead_letters.record(
                    session_id=entry.session_id,
                    frame_index=entry.frame_id,
                    stage="worker-crash",
                    reason="replay ring full after restart",
                    corr_id=f"{entry.session_id}#{entry.frame_id}",
                )
        self.metrics.events.emit(
            "worker_restart", worker=handle.index,
            generation=handle.generation, replayed=len(replay),
        )

    # -- draining -------------------------------------------------------
    def drain(self, timeout_s: float = 30.0) -> List[PoseResult]:
        """Pump until no frame is in flight (or the deadline passes),
        parking on the response doorbell between pumps."""
        deadline = time.monotonic() + timeout_s
        results: List[PoseResult] = []
        while True:
            results.extend(self.pump())
            if not self.outstanding():
                return results
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            select.select(
                [self._response_doorbell], [], [],
                min(remaining, self.heartbeat_interval_s),
            )
        raise GatewayError(
            f"drain timed out after {timeout_s:.1f}s with "
            f"{sum(len(h.inflight) for h in self._workers)} unacked and "
            f"{sum(len(h.awaiting_pose) for h in self._workers)} "
            "unanswered frames"
        )

    def outstanding(self) -> int:
        """Frames forwarded but not yet answered (ack/pose pending)."""
        return sum(
            len(handle.inflight) + len(handle.awaiting_pose)
            for handle in self._workers
        )

    # -- aggregated observability ---------------------------------------
    def request_stats(self, timeout_s: float = 2.0) -> None:
        """Ask every live worker for a fresh stats snapshot."""
        pending = []
        for handle in self._workers:
            if handle.conn is None or not handle.alive():
                continue
            try:
                handle.conn.send("stats")
                pending.append(handle)
            except (BrokenPipeError, OSError):
                continue
        deadline = time.monotonic() + timeout_s
        for handle in pending:
            remaining = max(0.0, deadline - time.monotonic())
            try:
                if handle.conn.poll(remaining):
                    kind, _index, payload = handle.conn.recv()
                    self._absorb_control_message(handle, kind, payload)
            except (EOFError, OSError):  # pragma: no cover
                continue

    def health(self) -> HealthState:
        """Aggregated ladder: worst worker-reported health, clamped to
        at least DEGRADED while any worker is dead or not yet proven
        recovered after a restart."""
        states = [HealthState.HEALTHY]
        degraded = False
        for handle in self._workers:
            if not handle.alive() or not handle.recovered:
                degraded = True
            if handle.last_stats is not None:
                reported = handle.last_stats.get("health")
                if reported is not None:
                    states.append(HealthState(reported))
        overall = HealthState.worst(*states)
        if degraded:
            overall = HealthState.worst(overall, HealthState.DEGRADED)
        return overall

    def _publish_gauges(self, registry: MetricsRegistry) -> None:
        registry.gauge("gateway.health").set(self.health().code)
        registry.gauge("gateway.open_sessions").set(
            len(self._sessions) - len(self._closed_sessions)
        )
        for handle in self._workers:
            if handle.request_ring is not None:
                registry.gauge(
                    f"gateway.ring_occupancy.w{handle.index}"
                ).set(handle.request_ring.occupancy())
            registry.gauge(
                f"gateway.worker_alive.w{handle.index}"
            ).set(1.0 if handle.alive() else 0.0)
        # Merge worker counters into the dispatcher registry so one
        # scrape shows pool-wide totals (refreshed by request_stats()).
        merged: Dict[str, float] = {}
        for handle in self._workers:
            if not handle.last_stats:
                continue
            for name, value in handle.last_stats.get(
                "counters", {}
            ).items():
                merged[name] = merged.get(name, 0.0) + float(value)
        for name, value in merged.items():
            registry.gauge(f"workers.{name}").set(value)
        # Mirror the merged stage-latency ledger as gauges so one
        # Prometheus scrape of the dispatcher shows pool-wide stage
        # timings (the dispatcher-side stages are real histograms in
        # this registry already).
        for stage, entry in self.stage_latency().items():
            for key in ("mean", "p95", "max"):
                registry.gauge(f"stage.{stage}.{key}_s").set(entry[key])
            registry.gauge(f"stage.{stage}.count").set(entry["count"])

    # Worker-side ledger stages (shipped in worker stats histograms)
    # and dispatcher-side stages (this registry's own histograms).
    _WORKER_STAGES = {
        "stage.ring_wait_s": "ring_wait",
        "stage.ingest_s": "ingest",
        "stage.batch_wait_s": "batch_wait",
        "stage.forward_s": "forward",
    }
    _DISPATCHER_STAGES = {
        "gateway.stage.submit_s": "submit",
        "gateway.stage.pose_return_s": "pose_return",
        "gateway.latency_s": "e2e",
    }

    def stage_latency(self) -> Dict[str, Dict[str, float]]:
        """The per-frame stage ledger, merged across the pool.

        Maps stage name (``submit``/``ring_wait``/``ingest``/
        ``batch_wait``/``forward``/``pose_return``/``e2e``) to merged
        count/sum/mean and worst-case p95/max. Worker-side stages come
        from the histograms in each worker's latest stats snapshot
        (refresh with :meth:`request_stats`); quantiles are maxed, not
        averaged, so the merged view never understates the tail.
        """
        stages: Dict[str, Dict[str, float]] = {}

        def absorb(stage: str, summary: Dict[str, float]) -> None:
            if not summary or not summary.get("count"):
                return
            entry = stages.setdefault(
                stage,
                {"count": 0, "sum": 0.0, "mean": 0.0, "p50": 0.0,
                 "p95": 0.0, "max": 0.0},
            )
            entry["count"] += summary["count"]
            entry["sum"] += summary["sum"]
            entry["p50"] = max(entry["p50"], summary["p50"])
            entry["p95"] = max(entry["p95"], summary["p95"])
            entry["max"] = max(entry["max"], summary["max"])

        for handle in self._workers:
            if not handle.last_stats:
                continue
            histograms = handle.last_stats.get("histograms", {})
            for name, stage in self._WORKER_STAGES.items():
                absorb(stage, histograms.get(name, {}))
        with self.metrics._lock:
            own = dict(self.metrics._histograms)
        for name, stage in self._DISPATCHER_STAGES.items():
            if name in own:
                absorb(stage, own[name].summary())
        for entry in stages.values():
            if entry["count"]:
                entry["mean"] = entry["sum"] / entry["count"]
        return stages

    def stats(
        self, refresh: bool = True, timeout_s: float = 2.0
    ) -> Dict[str, Any]:
        """One merged snapshot of the dispatcher and every worker."""
        if refresh and self._started:
            self.request_stats(timeout_s=timeout_s)
        snapshot = self.metrics.snapshot()
        snapshot["health"] = self.health().value
        snapshot["stage_latency"] = self.stage_latency()
        snapshot["dead_letters"] = {
            **self.dead_letters.stats(),
            "tail": self.dead_letters.tail(5),
        }
        snapshot["sessions"] = {
            sid: {
                "worker": index,
                "frames": self._frame_ids.get(sid, -1) + 1,
                "closed": sid in self._closed_sessions,
            }
            for sid, index in self._sessions.items()
        }
        snapshot["workers"] = {}
        for handle in self._workers:
            entry: Dict[str, Any] = {
                "alive": handle.alive(),
                "pid": (
                    handle.process.pid if handle.process else None
                ),
                "generation": handle.generation,
                "restarts": handle.restarts,
                "sessions": len(handle.sessions),
                "inflight": len(handle.inflight),
                "awaiting_pose": len(handle.awaiting_pose),
            }
            if handle.request_ring is not None:
                entry["request_ring"] = handle.request_ring.stats()
            if handle.response_ring is not None:
                entry["response_ring"] = handle.response_ring.stats()
            if handle.last_stats is not None:
                entry["serving"] = {
                    "health": handle.last_stats.get("health"),
                    "counters": handle.last_stats.get("counters", {}),
                }
                worker = handle.last_stats.get("worker", {})
                entry["plan_artifact"] = worker.get("plan_artifact")
                entry["blas_threads"] = worker.get("blas_threads")
            snapshot["workers"][handle.index] = entry
        return snapshot

    def prometheus(self) -> str:
        """Merged Prometheus exposition of the whole pool."""
        return self.metrics.to_prometheus()

    # -- distributed trace / profile export -----------------------------
    def trace_records(self) -> List[Dict[str, Any]]:
        """Every span this gateway knows about, dispatcher + workers.

        Worker spans arrive with stats replies and shutdown byes; call
        :meth:`request_stats` (or :meth:`stats`) first to pull the
        latest batch from live workers.
        """
        records = list(self._worker_spans)
        records.extend(self._tracer.spans())
        return records

    def export_chrome(self, path: str) -> str:
        """Merge dispatcher and worker spans into one Chrome trace.

        Each process gets its own named lane (``dispatcher``,
        ``worker-0``, ...) via metadata events; spans align on their
        wall-clock timestamps, and worker-side forward spans point at
        their dispatcher-side submit parents through the propagated
        context.
        """
        return obs_trace.export_chrome_merged(
            path, self.trace_records(), dict(self._process_names)
        )

    def export_dead_letters(self, path: str) -> int:
        """Write the pool's dead letters as JSONL; returns the count.

        The dispatcher's own records (frames never answered) come
        first, then those shipped by workers (quarantined frames,
        requests whose forward exhausted its retries). Worker records
        arrive with stats replies and shutdown byes.
        """
        records = self.dead_letters.tail() + list(self._worker_dead_letters)
        with open(path, "w") as fh:
            for record in records:
                fh.write(json.dumps(record) + "\n")
        return len(records)

    def merged_profile(
        self, extra: Optional[Dict[str, Dict[str, Any]]] = None
    ) -> Dict[str, Any]:
        """All workers' sampling profiles merged under per-lane roots.

        ``extra`` adds more lanes (the CLI passes the dispatcher's own
        profiler dict as ``{"dispatcher": ...}``).
        """
        parts: Dict[str, Dict[str, Any]] = dict(self._worker_profiles)
        if extra:
            parts.update(extra)
        return merge_profiles(parts)
