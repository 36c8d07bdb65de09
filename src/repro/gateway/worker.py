"""The gateway worker process: one full serving stack per core.

Each worker attaches to its two shared-memory rings, builds the
*existing* serving stack (CubeBuilder + HandJointRegressor behind the
compiled-plan circuit breaker, quarantine, per-session error budgets --
an unmodified :class:`~repro.serving.InferenceServer`) and loops:

* pull frames off the request ring (the payload was memcpy'd into
  shared memory by the dispatcher -- nothing was pickled),
* feed them into worker-local sessions (sticky session->worker affinity
  means a session's :class:`~repro.serving.FrameWindow` lives entirely
  in one worker),
* acknowledge **every** frame on the response ring (absorbed /
  enqueued / quarantined), and ship each regressed pose back with the
  dispatcher's frame id; under chaos (``WorkerConfig.chaos_*``) each
  frame first passes the worker's seeded ``FaultInjector``, and a
  corrupted or dropped one is acked as quarantined,
* bump a heartbeat slot and answer control-pipe requests (stats
  snapshots, shutdown),
* park, when there is nothing to do, in ``select`` on its request
  doorbell and control pipe, waking at least once per heartbeat period.

A worker is forked from the dispatcher and inherits its doorbell
eventfds that way. It runs OpenBLAS on one thread: processes are the
unit of parallelism, and a BLAS pool per worker would oversubscribe
the cores the pool shares.

The control pipe carries only small picklable metadata (stats dicts,
shutdown commands); array payloads move exclusively through the rings.

Distributed tracing: every frame arrives with the dispatcher's trace
context (``trace_id``/``parent_span_id``/``enqueue_ts``) in the ring
slot header. The worker records a ``gateway.ring_wait`` span covering
the time the frame sat in the ring, opens its ingest span *under* the
propagated context, and attributes each batched forward back to the
frames it served as per-frame ``worker.forward`` spans parented to the
dispatcher-side submit span. Completed spans buffer in the worker's
process-local tracer and ship back (as plain dicts) with every stats
reply and with the final ``bye``, as do the worker's new dead letters
-- the control pipe stays metadata-only. An optional sampling profiler
(``WorkerConfig.profile_hz``) rides along the same way.
"""

from __future__ import annotations

import ctypes
import glob
import os
import select
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.config import DspConfig, ModelConfig, RadarConfig
from repro.gateway.ring import (
    ACK_ENQUEUED,
    ACK_QUARANTINED,
    ACK_WINDOW,
    KIND_ACK,
    KIND_CLOSE,
    KIND_CLOSED,
    KIND_FRAME_CUBE,
    KIND_FRAME_RAW,
    KIND_POSE,
    KIND_UNSERVED,
    ShmRing,
    drain_doorbell,
    ring_doorbell,
)
from repro.obs import trace as obs_trace
from repro.obs.profiler import SamplingProfiler
from repro.serving import ServingConfig


@dataclass
class WorkerConfig:
    """Everything a worker needs to rebuild the serving stack.

    Must stay picklable (it crosses the process boundary at spawn
    time); holds only configs and scalars, never arrays or live
    objects.
    """

    radar: RadarConfig = field(default_factory=RadarConfig)
    dsp: DspConfig = field(default_factory=DspConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    serving: ServingConfig = field(default_factory=ServingConfig)
    seed: int = 0
    weights_path: Optional[str] = None
    plan_path: Optional[str] = None
    heartbeat_interval_s: float = 0.05
    # Sampling profiler rate inside the worker (0 = disabled); the
    # profile ships back with stats replies and the final bye.
    profile_hz: float = 0.0
    # Chaos knobs (forwarded to a worker-local FaultInjector).
    chaos_frame_rate: float = 0.0
    chaos_forward_rate: float = 0.0
    chaos_compile_fail: bool = False
    chaos_seed: int = 0

    def wants_chaos(self) -> bool:
        return (
            self.chaos_frame_rate > 0
            or self.chaos_forward_rate > 0
            or self.chaos_compile_fail
        )


def _build_server(config: WorkerConfig):
    import dataclasses

    from repro.core.regressor import HandJointRegressor
    from repro.dsp.radar_cube import CubeBuilder
    from repro.resilience import FaultInjector
    from repro.serving import InferenceServer

    serving = config.serving
    # The serving loop drains the queue before it can fill, so no
    # request admitted to a worker ever waits for room there --
    # backpressure is the request ring filling up, which the dispatcher
    # surfaces to its callers.
    if serving.queue_capacity <= serving.max_batch_size:
        serving = dataclasses.replace(
            serving, queue_capacity=2 * serving.max_batch_size
        )
    config = dataclasses.replace(config, serving=serving)
    regressor = HandJointRegressor(
        config.dsp, config.model, seed=config.seed
    )
    if config.weights_path is not None:
        from repro.nn.serialization import load_state

        load_state(regressor, config.weights_path)
    regressor.eval()
    if config.plan_path is not None:
        # Load the pre-compiled plan artifact instead of tracing and
        # folding in every worker process: N workers spawn against one
        # exported plan (folded weights, memory plans).
        from repro.errors import SerializationError
        from repro.nn.serialization import (
            attach_plan,
            load_plan,
            plan_matches_config,
        )
        from repro.obs.logging import get_logger

        compiled, plan_meta = load_plan(config.plan_path, with_meta=True)
        if plan_meta.get("config", {}).get("dsp") and not (
            plan_matches_config(plan_meta, config.dsp, config.model)
        ):
            raise SerializationError(
                f"plan artifact {config.plan_path} was exported for a "
                "different dsp/model config than this worker's"
            )
        attach_plan(regressor, compiled)
        get_logger("gateway.worker").info(
            "plan_artifact_loaded",
            path=config.plan_path,
            ops=len(compiled.plan.ops),
            memory_plans=len(compiled._memory_plans),
        )
    injector = None
    if config.wants_chaos():
        injector = FaultInjector(
            frame_corrupt_rate=config.chaos_frame_rate,
            forward_fail_rate=config.chaos_forward_rate,
            compile_fail=config.chaos_compile_fail,
            seed=config.chaos_seed,
        )
    builder = CubeBuilder(config.radar, config.dsp)
    return InferenceServer(
        builder, regressor, config.serving, fault_injector=injector
    )


def limit_blas_threads() -> Optional[int]:
    """Pin numpy's bundled OpenBLAS to one thread; return its count.

    Environment variables are read when numpy loads, which in a forked
    worker already happened in the dispatcher, so the count is set
    through the library's own entry point. ``None`` when numpy carries
    no such OpenBLAS build.
    """
    import numpy

    libs = os.path.join(
        os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs"
    )
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        setter = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        getter = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        if setter is None or getter is None:
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], None
        getter.argtypes, getter.restype = [], ctypes.c_int
        setter(1)
        return int(getter())
    return None


def _push_blocking(
    ring: ShmRing, doorbell: int, kind, session_id, frame_id,
    payload=None, flags=0, deadline_s: float = 5.0, trace_id: int = 0,
    parent_span_id: int = 0,
) -> bool:
    """Push a response and ring the dispatcher's doorbell, briefly
    yielding while the dispatcher drains a full ring.

    Gives up (dropping the message) after ``deadline_s`` so a dead
    dispatcher cannot wedge the worker; the dispatcher notices the gap
    through its in-flight accounting. Responses are stamped with a
    fresh monotonic ``enqueue_ts`` so the dispatcher can measure
    response-ring wait (the pose-return stage), and echo the frame's
    original trace context so the dispatcher can finish the frame's
    trace without remembering it.
    """
    deadline = time.perf_counter() + deadline_s
    while not ring.push(
        kind, session_id, frame_id, payload, flags,
        trace_id=trace_id, parent_span_id=parent_span_id,
        enqueue_ts=time.monotonic(),
    ):
        if time.perf_counter() >= deadline:
            return False
        time.sleep(0.0002)
    ring_doorbell(doorbell)
    return True


def worker_main(
    worker_index: int,
    request_ring_name: str,
    response_ring_name: str,
    heartbeat_name: str,
    request_doorbell: int,
    response_doorbell: int,
    conn,
    config: WorkerConfig,
) -> None:
    """Entry point run inside each gateway worker process.

    ``request_doorbell`` rings when the dispatcher pushed to this
    worker's request ring; ``response_doorbell`` (shared by the pool)
    is rung after every push to the response ring. Both are eventfds
    inherited over fork.
    """
    blas_threads = limit_blas_threads()
    request_ring = ShmRing.attach(request_ring_name)
    response_ring = ShmRing.attach(response_ring_name)
    heartbeat_shm = None
    heartbeat = None
    try:
        from multiprocessing import shared_memory

        # Attaching re-registers the name with the tracker shared with
        # the dispatcher -- a set-add no-op; see ShmRing.attach.
        heartbeat_shm = shared_memory.SharedMemory(name=heartbeat_name)
        heartbeat = np.ndarray(
            (max(worker_index + 1, 1),),
            dtype=np.float64,
            buffer=heartbeat_shm.buf,
        )
    except FileNotFoundError:  # pragma: no cover - heartbeat optional
        heartbeat = None

    server = _build_server(config)
    serving = config.serving
    opened: Dict[str, bool] = {}
    # Worker-local frame counter per session: Session.feed_cube labels
    # segments with the *worker's* frame index (frames the window
    # actually absorbed); this maps those back to dispatcher frame ids.
    local_index: Dict[str, int] = {}
    pose_ids: Dict[Tuple[str, int], int] = {}
    # Trace context of every enqueued-but-unserved frame, keyed like
    # pose_ids: (trace_id, parent_span_id, enqueue perf_counter).
    pending_ctx: Dict[Tuple[str, int], Tuple[int, int, float]] = {}
    tracer = obs_trace.get_tracer()
    # A forked worker inherits the dispatcher's finished-span buffer;
    # drop it so those spans are not shipped back as duplicates.
    tracer.clear()
    profiler: Optional[SamplingProfiler] = None
    if config.profile_hz > 0:
        profiler = SamplingProfiler(hz=config.profile_hz).start()
    injector = server.fault_injector
    last_beat = 0.0
    running = True
    letters_shipped = 0

    def obs_payload() -> dict:
        """Spans, profile and new dead letters to ship over the control
        pipe."""
        nonlocal letters_shipped
        letters = server.dead_letters
        fresh = min(letters.total - letters_shipped, len(letters))
        letters_shipped = letters.total
        return {
            "trace_spans": tracer.drain(),
            "profile": profiler.to_dict() if profiler else None,
            "dead_letter_records": letters.tail(fresh) if fresh else [],
        }

    def corrupt(sid: str, payload):
        """Chaos: maybe corrupt one frame; dead-letter an injected drop
        (the frame never reaches its session)."""
        payload, _ = injector.corrupt_frame(payload)
        if payload is None:
            server.dead_letters.record(
                session_id=sid,
                frame_index=local_index[sid] + 1,
                stage="ingest",
                reason="injected frame drop",
            )
        return payload

    def beat() -> None:
        nonlocal last_beat
        # Monotonic, matching the dispatcher's liveness deadline clock
        # (CLOCK_MONOTONIC is system-wide, so the comparison is valid
        # across processes); wall-clock jumps must not fake staleness.
        now = time.monotonic()
        if heartbeat is not None and (
            now - last_beat >= config.heartbeat_interval_s
        ):
            heartbeat[worker_index] = now
            last_beat = now

    def flush_results() -> None:
        step_start = time.perf_counter()
        results = server.step()
        step_end = time.perf_counter()
        for result in results:
            key = (result.session_id, result.frame_index)
            frame_id = pose_ids.pop(key, result.frame_index)
            ctx = pending_ctx.pop(key, None)
            if ctx is not None:
                # Attribute the fused forward back to this frame: a
                # per-frame span parented (via the propagated context)
                # to the dispatcher-side submit span.
                tracer.record(
                    "worker.forward",
                    tracer.rel_from_perf(step_start),
                    tracer.rel_from_perf(step_end),
                    trace_id=ctx[0] or None,
                    parent_id=ctx[1] or None,
                    correlation_id=result.corr_id,
                    frame_id=frame_id,
                    session=result.session_id,
                    batch=result.batch_size,
                    cached=result.cached,
                    batch_wait_s=max(0.0, step_start - ctx[2]),
                )
            _push_blocking(
                response_ring, response_doorbell, KIND_POSE,
                result.session_id, frame_id,
                np.ascontiguousarray(result.joints),
                trace_id=ctx[0] if ctx else 0,
                parent_span_id=ctx[1] if ctx else 0,
            )
        for session_id, frame_index in server.last_unserved:
            key = (session_id, frame_index)
            frame_id = pose_ids.pop(key, frame_index)
            ctx = pending_ctx.pop(key, None)
            _push_blocking(
                response_ring, response_doorbell, KIND_UNSERVED,
                session_id, frame_id,
                trace_id=ctx[0] if ctx else 0,
                parent_span_id=ctx[1] if ctx else 0,
            )

    beat()
    while running:
        # Wake protocol: silence the doorbell, then pop. A push that
        # lands after the drain rings again, so parking below on an
        # empty ring cannot miss it.
        drain_doorbell(request_doorbell)
        message = request_ring.pop()
        if message is not None:
            sid = message.session_id
            if message.kind == KIND_CLOSE:
                if sid in opened:
                    # Closing purges the session's queued windows, whose
                    # frames were acked as enqueued: serve them first so
                    # every such ack still gets its pose.
                    if len(server.queue) > 0:
                        flush_results()
                    server.close_session(sid)
                    opened.pop(sid, None)
                    local_index.pop(sid, None)
                _push_blocking(
                    response_ring, response_doorbell, KIND_CLOSED, sid,
                    message.frame_id,
                )
            elif message.kind in (KIND_FRAME_RAW, KIND_FRAME_CUBE):
                if sid not in opened:
                    server.open_session(sid)
                    opened[sid] = True
                    local_index.setdefault(sid, -1)
                # Keep the queue below the inline-step threshold so
                # every pose comes out of flush_results() with its
                # dispatcher frame id attached.
                if len(server.queue) >= serving.max_batch_size:
                    flush_results()
                # Stage ledger: ring-wait is the dequeue instant minus
                # the dispatcher's enqueue stamp in the slot header,
                # both on the system-wide monotonic clock.
                dequeued_at = time.monotonic()
                if message.enqueue_ts > 0:
                    ring_wait = max(0.0, dequeued_at - message.enqueue_ts)
                    server.metrics.histogram(
                        "stage.ring_wait_s"
                    ).observe(ring_wait)
                    if message.trace_id:
                        tracer.record(
                            "gateway.ring_wait",
                            tracer.rel_from_monotonic(message.enqueue_ts),
                            tracer.rel_from_monotonic(dequeued_at),
                            trace_id=message.trace_id,
                            parent_id=message.parent_span_id or None,
                            frame_id=message.frame_id,
                            session=sid,
                        )
                payload = message.payload
                if injector is not None and (
                    payload := corrupt(sid, payload)
                ) is None:
                    flag = ACK_QUARANTINED
                else:
                    before = server.session_stats(sid)["quarantined"]
                    ingest_start = time.perf_counter()
                    with tracer.remote_context(
                        message.trace_id, message.parent_span_id
                    ):
                        with tracer.span(
                            "worker.ingest", session=sid,
                            frame_id=message.frame_id,
                        ):
                            if message.kind == KIND_FRAME_RAW:
                                enqueued = server.submit(sid, payload)
                            else:
                                enqueued = server.submit_cube(
                                    sid, payload
                                )
                    server.metrics.histogram("stage.ingest_s").observe(
                        time.perf_counter() - ingest_start
                    )
                    if server.session_stats(sid)["quarantined"] > before:
                        flag = ACK_QUARANTINED
                    else:
                        local_index[sid] += 1
                        if enqueued:
                            flag = ACK_ENQUEUED
                            pose_ids[(sid, local_index[sid])] = (
                                message.frame_id
                            )
                            pending_ctx[(sid, local_index[sid])] = (
                                message.trace_id,
                                message.parent_span_id,
                                time.perf_counter(),
                            )
                        else:
                            flag = ACK_WINDOW
                _push_blocking(
                    response_ring, response_doorbell, KIND_ACK, sid,
                    message.frame_id, flags=flag,
                    trace_id=message.trace_id,
                    parent_span_id=message.parent_span_id,
                )
        if len(server.queue) >= serving.max_batch_size:
            flush_results()
        elif message is None:
            if len(server.queue) > 0:
                flush_results()
            else:
                # Idle: park until the dispatcher rings, the control
                # pipe speaks, or the next heartbeat is due.
                select.select(
                    [request_doorbell, conn], [], [],
                    config.heartbeat_interval_s,
                )

        beat()
        # Control pipe: stats requests and shutdown. Never blocks.
        while conn.poll(0):
            try:
                command = conn.recv()
            except (EOFError, OSError):
                running = False
                break
            if command == "shutdown":
                running = False
            elif command == "stats":
                stats = server.stats()
                stats["worker"] = {
                    "index": worker_index,
                    "pid": os.getpid(),
                    "request_ring": request_ring.stats(),
                    "response_ring": response_ring.stats(),
                    "plan_artifact": config.plan_path,
                    "blas_threads": blas_threads,
                }
                stats.update(obs_payload())
                try:
                    conn.send(("stats", worker_index, stats))
                except (BrokenPipeError, OSError):
                    running = False
        if os.getppid() == 1:
            # The dispatcher died and we were re-parented to init;
            # there is nobody left to serve.
            running = False

    # Drain what is already queued so acked frames get answered even on
    # a graceful shutdown.
    flush_results()
    if profiler is not None:
        profiler.stop()
    try:
        conn.send(("bye", worker_index, obs_payload()))
    except (BrokenPipeError, OSError):  # pragma: no cover
        pass
    request_ring.close()
    response_ring.close()
    if heartbeat_shm is not None:
        heartbeat = None
        heartbeat_shm.close()
