"""Tests of the multi-process serving gateway (:mod:`repro.gateway`):
shared-memory ring semantics, the zero-copy ingest guarantee, pose
parity with the in-process server, sticky session affinity, frame
accounting under load, SIGKILL crash recovery, doorbell wakeups, the
bounded session registry and the monotonic stage clock."""

import json
import os
import pickle
import select
import signal
import time

import numpy as np
import pytest

from repro.config import DspConfig, ModelConfig, RadarConfig
from repro.errors import (
    GatewayError,
    QueueFullError,
    RingLayoutError,
    UnknownSessionError,
)
from repro.gateway import (
    Gateway,
    GatewayConfig,
    LoadgenConfig,
    ShmRing,
    run_loadgen,
)
from repro.gateway.ring import (
    KIND_FRAME_CUBE,
    KIND_POSE,
    SLOT_HEADER_BYTES,
)
from repro.resilience import HealthState
from repro.serving import ServingConfig


@pytest.fixture(scope="module")
def configs():
    """Small-but-real stack: every frame does model work."""
    radar = RadarConfig(samples_per_chirp=32, chirp_loops=8)
    dsp = DspConfig(
        range_bins=16, doppler_bins=4, azimuth_bins=8, elevation_bins=8,
        segment_frames=2,
    )
    model = ModelConfig(
        base_channels=4, hourglass_depth=1, num_blocks=1, feature_dim=16,
        lstm_hidden=16,
    )
    return radar, dsp, model


def _cube_frames(dsp, count, seed=0):
    rng = np.random.default_rng(seed)
    return np.abs(
        rng.normal(
            size=(
                count,
                dsp.doppler_bins,
                dsp.range_bins,
                dsp.angle_bins_total,
            )
        )
    ).astype(np.float32)


def _gateway_config(workers=1, **kwargs):
    kwargs.setdefault("ring_slots", 32)
    kwargs.setdefault(
        "serving",
        ServingConfig(
            max_batch_size=8, queue_capacity=32, policy="block"
        ),
    )
    kwargs.setdefault("seed", 7)
    return GatewayConfig(workers=workers, **kwargs)


def _feed_all(gateway, session_ids, frames):
    """Feed every frame to every session, pumping through backpressure."""
    results = []
    sent = 0
    for frame in frames:
        for sid in session_ids:
            for _ in range(500):
                try:
                    gateway.submit_cube(sid, frame)
                    sent += 1
                    break
                except QueueFullError:
                    results.extend(gateway.pump())
                    time.sleep(0.001)
            else:  # pragma: no cover - only on a wedged gateway
                pytest.fail("gateway refused a frame for 0.5s")
        results.extend(gateway.pump())
    return sent, results


# ----------------------------------------------------------------------
# ShmRing semantics
# ----------------------------------------------------------------------


def test_ring_roundtrip_and_wraparound():
    ring = ShmRing.create(slots=4, slot_bytes=SLOT_HEADER_BYTES + 1024)
    try:
        payloads = [
            np.arange(12, dtype=np.float32).reshape(3, 4) + i
            for i in range(11)  # > 2 full wraps of a 4-slot ring
        ]
        for i, payload in enumerate(payloads):
            assert ring.push(
                KIND_FRAME_CUBE, "sess", i, payload, flags=i % 3
            )
            message = ring.pop()
            assert message is not None
            assert message.kind == KIND_FRAME_CUBE
            assert message.session_id == "sess"
            assert message.frame_id == i
            assert message.flags == i % 3
            np.testing.assert_array_equal(message.payload, payload)
        assert ring.pop() is None
    finally:
        ring.close()
        ring.unlink()


def test_ring_full_rejects_then_recovers():
    ring = ShmRing.create(slots=2, slot_bytes=SLOT_HEADER_BYTES + 64)
    try:
        assert ring.push(KIND_POSE, "s", 0, np.zeros(3, np.float64))
        assert ring.push(KIND_POSE, "s", 1, np.zeros(3, np.float64))
        assert ring.full
        assert not ring.push(KIND_POSE, "s", 2, np.zeros(3, np.float64))
        assert ring.stats()["full_rejects"] == 1
        assert ring.pop().frame_id == 0
        assert ring.push(KIND_POSE, "s", 2, np.zeros(3, np.float64))
        assert [ring.pop().frame_id, ring.pop().frame_id] == [1, 2]
    finally:
        ring.close()
        ring.unlink()


def test_ring_cross_attach_sees_payload():
    ring = ShmRing.create(slots=4, slot_bytes=SLOT_HEADER_BYTES + 256)
    try:
        other = ShmRing.attach(ring.name)
        payload = np.linspace(0, 1, 32, dtype=np.float32)
        ring.push(KIND_FRAME_CUBE, "abc", 9, payload)
        message = other.pop()
        assert message.frame_id == 9
        np.testing.assert_array_equal(message.payload, payload)
        other.close()
    finally:
        ring.close()
        ring.unlink()


def test_ring_validates_layout_and_ids():
    with pytest.raises(RingLayoutError):
        ShmRing.create(slots=1, slot_bytes=SLOT_HEADER_BYTES + 8)
    with pytest.raises(RingLayoutError):
        ShmRing.create(slots=4, slot_bytes=SLOT_HEADER_BYTES)
    ring = ShmRing.create(slots=2, slot_bytes=SLOT_HEADER_BYTES + 64)
    try:
        with pytest.raises(RingLayoutError):
            ring.push(KIND_POSE, "x" * 33, 0)  # session id too wide
        with pytest.raises(RingLayoutError):
            ring.push(
                KIND_POSE, "s", 0, np.zeros(4, dtype=np.uint16)
            )  # unsupported payload dtype
        with pytest.raises(RingLayoutError):
            ring.push(
                KIND_POSE, "s", 0, np.zeros(1024, dtype=np.float64)
            )  # payload larger than the slot
    finally:
        ring.close()
        ring.unlink()


# ----------------------------------------------------------------------
# The zero-copy guarantee
# ----------------------------------------------------------------------


def test_ring_payload_lives_in_shared_memory():
    """peek() maps the payload in place: its data pointer must lie
    inside the shared segment, not in a private heap copy."""
    ring = ShmRing.create(slots=4, slot_bytes=SLOT_HEADER_BYTES + 1024)
    try:
        segment = np.frombuffer(ring._shm.buf, dtype=np.uint8)
        base = segment.__array_interface__["data"][0]
        payload = np.arange(64, dtype=np.float32)
        ring.push(KIND_FRAME_CUBE, "s", 0, payload)
        message = ring.peek()
        address = message.payload.__array_interface__["data"][0]
        assert base <= address < base + ring._shm.size
        np.testing.assert_array_equal(message.payload, payload)
        ring.commit()
        del message, segment
    finally:
        ring.close()
        ring.unlink()


def test_ring_ingest_never_pickles(monkeypatch):
    """Tripwire: pushing/popping array payloads must not touch any
    pickling entry point (payloads cross as one memcpy)."""
    from multiprocessing import reduction

    def _bomb(*args, **kwargs):  # pragma: no cover - should never run
        raise AssertionError("array payload hit a pickle path")

    monkeypatch.setattr(pickle, "dumps", _bomb)
    monkeypatch.setattr(pickle, "dump", _bomb)
    # The C-level pickle.Pickler type is immutable; the module-level
    # entry points plus multiprocessing's ForkingPickler (the route a
    # pickled IPC payload would actually take) cover the ingest path.
    monkeypatch.setattr(
        reduction.ForkingPickler, "dumps", classmethod(_bomb)
    )
    ring = ShmRing.create(slots=4, slot_bytes=SLOT_HEADER_BYTES + 4096)
    try:
        frames = _cube_frames(
            DspConfig(
                range_bins=4, doppler_bins=2, azimuth_bins=2,
                elevation_bins=2,
            ),
            3,
        )
        for i, frame in enumerate(frames):
            assert ring.push(KIND_FRAME_CUBE, "s", i, frame)
            message = ring.pop()
            np.testing.assert_array_equal(message.payload, frame)
    finally:
        ring.close()
        ring.unlink()


# ----------------------------------------------------------------------
# Gateway end-to-end
# ----------------------------------------------------------------------


def test_gateway_matches_in_process_server(configs):
    """One worker behind the rings produces bit-comparable poses to the
    same stack run in process (same seed => same weights)."""
    from repro.core.regressor import HandJointRegressor
    from repro.dsp.radar_cube import CubeBuilder

    radar, dsp, model = configs
    frames = _cube_frames(dsp, 6, seed=3)

    serving = ServingConfig(
        max_batch_size=8, queue_capacity=32, policy="block"
    )
    regressor = HandJointRegressor(dsp, model, seed=7)
    regressor.eval()
    from repro.serving import InferenceServer

    reference = InferenceServer(
        CubeBuilder(radar, dsp), regressor, serving
    )
    sid = reference.open_session("client-0")
    expected = []
    for frame in frames:
        reference.submit_cube(sid, frame)
        expected.extend(reference.step())
    expected.extend(reference.drain())
    assert expected  # sanity: the reference produced poses

    with Gateway(
        radar, dsp, model, _gateway_config(workers=1)
    ) as gateway:
        sid = gateway.open_session("client-0")
        sent, results = _feed_all(gateway, [sid], frames)
        results.extend(gateway.drain(timeout_s=30))

    assert sent == len(frames)
    got = {r.frame_index: r.joints for r in results}
    want = {r.frame_index: r.joints for r in expected}
    assert got.keys() == want.keys()
    for frame_index, joints in want.items():
        np.testing.assert_allclose(
            got[frame_index], joints, rtol=1e-6, atol=1e-7
        )


def test_gateway_sticky_affinity_and_balance(configs):
    radar, dsp, model = configs
    with Gateway(
        radar, dsp, model, _gateway_config(workers=2)
    ) as gateway:
        sids = [gateway.open_session() for _ in range(6)]
        assignment = gateway.session_to_worker()
        # Least-loaded admission balances 6 sessions 3/3 across 2 workers.
        per_worker = [0, 0]
        for sid in sids:
            per_worker[assignment[sid]] += 1
        assert per_worker == [3, 3]

        frames = _cube_frames(dsp, 4, seed=1)
        _feed_all(gateway, sids, frames)
        gateway.drain(timeout_s=30)
        # Affinity is sticky: the assignment never moved.
        assert gateway.session_to_worker() == assignment

        with pytest.raises(UnknownSessionError):
            gateway.submit_cube("never-opened", frames[0])


def test_gateway_requires_start(configs):
    radar, dsp, model = configs
    gateway = Gateway(radar, dsp, model, _gateway_config(workers=1))
    with pytest.raises(GatewayError):
        gateway.open_session()


def test_gateway_loadgen_accounts_every_frame(configs):
    """Open-loop load run: every submitted frame is acked and every
    expected pose arrives; nothing is silently lost."""
    radar, dsp, model = configs
    with Gateway(
        radar, dsp, model, _gateway_config(workers=2)
    ) as gateway:
        summary = run_loadgen(
            gateway,
            LoadgenConfig(sessions=8, frames_per_session=5, seed=0),
        )
    assert summary["frames_sent"] == 8 * 5
    assert summary["frames_acked"] == summary["frames_sent"]
    assert summary["lost_clean_frames"] == 0
    assert summary["dead_letters"] == 0
    # segment_frames=2 -> (frames - 1) poses per session.
    assert summary["poses"] == 8 * 4
    assert summary["sessions_completed"] == 8
    assert summary["latency_p99_ms"] >= summary["latency_p50_ms"] > 0


def test_gateway_merged_health_and_prometheus(configs):
    radar, dsp, model = configs
    with Gateway(
        radar, dsp, model, _gateway_config(workers=2)
    ) as gateway:
        sid = gateway.open_session()
        _feed_all(gateway, [sid], _cube_frames(dsp, 3, seed=2))
        gateway.drain(timeout_s=30)
        assert gateway.health() is HealthState.HEALTHY
        stats = gateway.stats()
        assert set(stats["workers"]) == {0, 1}
        assert all(
            entry["alive"] for entry in stats["workers"].values()
        )
        # Processes are the unit of parallelism: one BLAS thread each.
        assert all(
            entry["blas_threads"] == 1
            for entry in stats["workers"].values()
        )
        text = gateway.prometheus()
        assert "gateway_health" in text
        assert "gateway_worker_alive_w0" in text
        # Worker-side serving counters surface in the merged exposition.
        assert "workers_poses" in text


# ----------------------------------------------------------------------
# Crash recovery
# ----------------------------------------------------------------------


def test_gateway_sigkill_recovery_accounts_all_frames(configs):
    """SIGKILL a worker mid-stream: the gateway restarts it, replays or
    dead-letters its in-flight frames, degrades and then recovers."""
    radar, dsp, model = configs
    config = _gateway_config(workers=2, heartbeat_timeout_s=2.0)
    with Gateway(radar, dsp, model, config) as gateway:
        sids = [gateway.open_session() for _ in range(4)]
        frames = _cube_frames(dsp, 8, seed=5)
        results = []
        sent = 0
        for frame in frames[:4]:
            for sid in sids:
                gateway.submit_cube(sid, frame)
                sent += 1
            results.extend(gateway.pump())

        victim = gateway._workers[0]
        first_generation = victim.generation
        os.kill(victim.process.pid, signal.SIGKILL)
        victim.process.join(timeout=10)

        saw_degraded = False
        for frame in frames[4:]:
            for sid in sids:
                for _ in range(500):
                    try:
                        gateway.submit_cube(sid, frame)
                        sent += 1
                        break
                    except QueueFullError:
                        results.extend(gateway.pump())
                        time.sleep(0.001)
            results.extend(gateway.pump())
            saw_degraded = saw_degraded or (
                gateway.health() is not HealthState.HEALTHY
            )
        results.extend(gateway.drain(timeout_s=30))

        stats = gateway.stats()
        counters = stats["counters"]
        acked = int(counters["gateway.acks"])
        dead = int(stats["dead_letters"]["total"])
        # Frames acked as enqueued whose worker died before serving them
        # are counted in BOTH acks and dead letters; the crash counter
        # tracks exactly that overlap.
        crash_acked = int(counters.get("gateway.crash_dead_letters", 0))

        # The worker came back under a new generation...
        assert gateway._workers[0].generation > first_generation
        assert gateway._workers[0].alive()
        assert int(counters["gateway.worker_restarts"]) >= 1
        # ...the kill was visible on the health ladder, then healed...
        assert saw_degraded
        assert gateway.health() is HealthState.HEALTHY
        # ...and every clean frame was either acked or dead-lettered.
        assert sent == acked + dead - crash_acked
        # Sessions stayed pinned to the restarted worker index.
        assert set(gateway.session_to_worker().values()) <= {0, 1}
        # Poses kept flowing after the crash.
        assert len(results) > 0


def test_gateway_shutdown_releases_shared_memory(configs):
    radar, dsp, model = configs
    gateway = Gateway(radar, dsp, model, _gateway_config(workers=1))
    gateway.start()
    name = gateway._workers[0].request_ring.name
    pid = gateway._workers[0].process.pid
    gateway.shutdown()
    assert not os.path.exists(f"/dev/shm/{name}")
    # The worker process is gone too.
    with pytest.raises((ProcessLookupError, PermissionError)):
        os.kill(pid, 0)


def test_gateway_drain_with_frames_in_flight_accounts_all(configs):
    """The ``sent == acked + dead_lettered`` invariant must hold on the
    DRAIN path too: fill the rings without pumping, then drain with
    every frame still in flight and check the books balance."""
    radar, dsp, model = configs
    gateway = Gateway(radar, dsp, model, _gateway_config(workers=2))
    gateway.start()
    try:
        sessions = [gateway.open_session() for _ in range(2)]
        frames = _cube_frames(dsp, 6, seed=13)
        sent = 0
        # Stuff the rings WITHOUT pumping: everything stays in flight.
        for frame in frames:
            for sid in sessions:
                try:
                    gateway.submit_cube(sid, frame)
                    sent += 1
                except QueueFullError:
                    pass  # ring full: in-flight pressure achieved
        assert sent > 0
        assert gateway.outstanding() > 0

        results = gateway.drain(timeout_s=30.0)

        assert gateway.outstanding() == 0
        counters = gateway.stats()["counters"]
        acked = int(counters["gateway.acks"])
        dead = int(gateway.dead_letters.stats()["total"])
        assert sent == acked + dead
        assert dead == 0  # nothing malformed: no frame may be lost
        # Every frame past each session's window fill returned a pose.
        per_session = sent // len(sessions)
        assert len(results) == sent - len(sessions) * (
            dsp.segment_frames - 1
        )
        assert per_session > dsp.segment_frames - 1
    finally:
        gateway.shutdown()


def test_gateway_worker_corrupts_frames_under_chaos(configs, tmp_path):
    """``chaos_frame_rate`` acts inside the worker: corrupted and
    dropped frames come back as quarantined acks, each leaves a dead
    letter in the worker, and every submitted frame is still acked."""
    radar, dsp, model = configs
    config = _gateway_config(workers=1, chaos_frame_rate=0.2, chaos_seed=5)
    with Gateway(radar, dsp, model, config) as gateway:
        sessions = [gateway.open_session() for _ in range(2)]
        sent, _ = _feed_all(gateway, sessions, _cube_frames(dsp, 20, seed=17))
        gateway.drain(timeout_s=30.0)
        counters = gateway.stats()["counters"]
    quarantined = int(counters.get("gateway.frames_quarantined", 0))
    assert quarantined > 0
    assert int(counters["gateway.acks"]) == sent
    assert gateway.dead_letters.total == 0
    path = tmp_path / "dead_letters.jsonl"
    assert gateway.export_dead_letters(str(path)) == quarantined
    stages = {
        json.loads(line)["stage"] for line in path.read_text().splitlines()
    }
    assert stages == {"ingest"}


def test_gateway_shutdown_with_frames_in_flight_is_clean(configs):
    """Shutdown with unpumped frames must terminate the workers and
    release shared memory without hanging -- the drain path is the
    graceful route; shutdown is the hard stop and may discard."""
    radar, dsp, model = configs
    gateway = Gateway(radar, dsp, model, _gateway_config(workers=1))
    gateway.start()
    sid = gateway.open_session()
    for frame in _cube_frames(dsp, 4, seed=17):
        try:
            gateway.submit_cube(sid, frame)
        except QueueFullError:
            break
    name = gateway._workers[0].request_ring.name
    pid = gateway._workers[0].process.pid
    start = time.monotonic()
    gateway.shutdown()
    assert time.monotonic() - start < 30.0
    assert not os.path.exists(f"/dev/shm/{name}")
    with pytest.raises((ProcessLookupError, PermissionError)):
        os.kill(pid, 0)


def test_ring_quantized_dtype_roundtrip():
    """float16 and int8 payloads survive the shared-memory ring."""
    ring = ShmRing.create(slots=4, slot_bytes=SLOT_HEADER_BYTES + 512)
    try:
        payloads = [
            (np.linspace(-2, 2, 24).astype(np.float16).reshape(4, 6)),
            (np.arange(-12, 12, dtype=np.int8).reshape(2, 12)),
        ]
        for i, payload in enumerate(payloads):
            assert ring.push(KIND_FRAME_CUBE, "q", i, payload)
            message = ring.pop()
            assert message.payload.dtype == payload.dtype
            np.testing.assert_array_equal(message.payload, payload)
    finally:
        ring.close()
        ring.unlink()


def test_gateway_workers_load_plan_artifact(configs, tmp_path):
    """Workers spawned with ``plan_path`` serve from the artifact (no
    per-worker trace/fold) and still match the in-process reference."""
    from repro.core.regressor import HandJointRegressor
    from repro.dsp.radar_cube import CubeBuilder
    from repro.nn.serialization import regressor_config_meta, save_plan
    from repro.serving import InferenceServer

    radar, dsp, model = configs
    frames = _cube_frames(dsp, 6, seed=3)
    serving = ServingConfig(
        max_batch_size=8, queue_capacity=32, policy="block"
    )

    # Export an artifact from the exact stack the workers will build
    # (same seed => same weights).
    exporter = HandJointRegressor(dsp, model, seed=7)
    exporter.eval()
    rng = np.random.default_rng(0)
    warm = rng.normal(
        size=(4, dsp.segment_frames, dsp.doppler_bins, dsp.range_bins,
              dsp.angle_bins_total)
    ).astype(np.float32)
    exporter.predict(warm)  # the artifact carries this memory plan
    prefix = str(tmp_path / "worker-plan")
    save_plan(
        exporter.compiled(), prefix,
        config=regressor_config_meta(exporter, seed=7),
    )

    reference = InferenceServer(
        CubeBuilder(radar, dsp),
        exporter,
        serving,
    )
    sid = reference.open_session("client-0")
    expected = []
    for frame in frames:
        reference.submit_cube(sid, frame)
        expected.extend(reference.step())
    expected.extend(reference.drain())
    assert expected

    with Gateway(
        radar, dsp, model,
        _gateway_config(workers=1, plan_path=prefix),
    ) as gateway:
        sid = gateway.open_session("client-0")
        sent, results = _feed_all(gateway, [sid], frames)
        results.extend(gateway.drain(timeout_s=30))
        stats = gateway.stats()

    assert sent == len(frames)
    assert stats["workers"][0]["plan_artifact"] == prefix
    got = {r.frame_index: r.joints for r in results}
    want = {r.frame_index: r.joints for r in expected}
    assert got.keys() == want.keys()
    for frame_index, joints in want.items():
        np.testing.assert_allclose(
            got[frame_index], joints, rtol=1e-6, atol=1e-7
        )


def test_gateway_rejects_mismatched_plan_artifact(configs, tmp_path):
    """A worker given an artifact from a different model config dies at
    spawn rather than serving wrong poses."""
    import dataclasses

    from repro.core.regressor import HandJointRegressor
    from repro.nn.serialization import regressor_config_meta, save_plan

    radar, dsp, model = configs
    other_model = dataclasses.replace(model, lstm_hidden=32)
    exporter = HandJointRegressor(dsp, other_model, seed=7)
    exporter.eval()
    exporter.predict(  # records the plan the artifact carries
        np.zeros((1, dsp.segment_frames, dsp.doppler_bins, dsp.range_bins,
                  dsp.angle_bins_total), dtype=np.float32)
    )
    prefix = str(tmp_path / "mismatched-plan")
    save_plan(
        exporter.compiled(), prefix,
        config=regressor_config_meta(exporter, seed=7),
    )

    from repro.errors import WorkerCrashedError

    gateway = Gateway(
        radar, dsp, model,
        _gateway_config(workers=1, max_restarts=0, plan_path=prefix),
    )
    try:
        with pytest.raises(WorkerCrashedError):
            gateway.start()
            deadline = time.time() + 10.0
            while time.time() < deadline:
                # Polling notices the dead worker; with a zero restart
                # budget the crash surfaces as WorkerCrashedError.
                gateway.stats()
                time.sleep(0.05)
            pytest.fail("worker kept running with a mismatched plan")
    finally:
        gateway.shutdown()


# ----------------------------------------------------------------------
# Distributed tracing
# ----------------------------------------------------------------------


def test_ring_slot_header_carries_trace_context():
    """The v2 slot header roundtrips trace id / parent span / enqueue
    timestamp, and defaults to zeros when no context is supplied."""
    ring = ShmRing.create(slots=4, slot_bytes=SLOT_HEADER_BYTES + 256)
    try:
        payload = np.arange(12, dtype=np.float32).reshape(3, 4)
        enqueued = time.time()
        assert ring.push(
            KIND_FRAME_CUBE, "traced", 3, payload,
            trace_id=0xDEADBEEFCAFE, parent_span_id=0x1234_5678_9ABC,
            enqueue_ts=enqueued,
        )
        message = ring.pop()
        assert message.trace_id == 0xDEADBEEFCAFE
        assert message.parent_span_id == 0x1234_5678_9ABC
        assert message.enqueue_ts == pytest.approx(enqueued)
        np.testing.assert_array_equal(message.payload, payload)

        assert ring.push(KIND_FRAME_CUBE, "plain", 4, payload)
        message = ring.pop()
        assert message.trace_id == 0
        assert message.parent_span_id == 0
        assert message.enqueue_ts == 0.0
    finally:
        ring.close()
        ring.unlink()


def test_gateway_merged_trace_parents_worker_spans(configs, tmp_path):
    """One gateway run produces ONE merged trace: every worker-side
    ``worker.forward`` span is parented (via the context propagated in
    the ring header) to its dispatcher-side ``gateway.submit`` span,
    spans arrive from both worker processes, the stage-latency ledger
    fills in, and the Chrome export gets per-process lanes."""
    import json

    from repro.obs import trace as obs_trace

    obs_trace.clear()
    radar, dsp, model = configs
    config = _gateway_config(workers=2, profile_hz=50.0)
    dispatcher_pid = os.getpid()
    with Gateway(radar, dsp, model, config) as gateway:
        sids = [gateway.open_session() for _ in range(4)]
        frames = _cube_frames(dsp, 6, seed=11)
        sent, results = _feed_all(gateway, sids, frames)
        results.extend(gateway.drain(timeout_s=30))
        stats = gateway.stats()  # pulls worker spans + stage ledger
        stages = stats["stage_latency"]
    # Shutdown absorbed each worker's final "bye" payload, so the
    # records below include every span the pool ever finished.
    records = gateway.trace_records()
    assert sent == len(frames) * len(sids)
    assert results

    submits = {}
    for record in records:
        if record["name"] == "gateway.submit":
            key = (
                record["fields"]["session"],
                record["fields"]["frame_id"],
            )
            submits[key] = record
            assert record["pid"] == dispatcher_pid
    assert len(submits) == sent

    # One forward span per served pose (the first frame of a session is
    # absorbed into the segment window and produces no pose).
    forwards = [r for r in records if r["name"] == "worker.forward"]
    assert len(forwards) == len(results)
    forward_pids = set()
    for record in forwards:
        forward_pids.add(record["pid"])
        parent = submits[
            (record["fields"]["session"], record["fields"]["frame_id"])
        ]
        # The propagated context stitches the cross-process edge.
        assert record["parent_id"] == parent["span_id"]
        assert record["trace_id"] == parent["trace_id"]
        assert record["correlation_id"] == (
            f"{record['fields']['session']}#{record['fields']['frame_id']}"
        )
    assert len(forward_pids) == 2, "expected spans from both workers"
    assert dispatcher_pid not in forward_pids

    # Per-frame stage ledger: every acceptance stage has samples.
    for stage in ("submit", "ring_wait", "batch_wait", "forward", "e2e"):
        assert stages[stage]["count"] > 0, stage
        assert stages[stage]["mean"] >= 0.0

    # Merged Chrome export: one file, per-process lanes.
    path = str(tmp_path / "merged_trace.json")
    gateway.export_chrome(path)
    with open(path) as fh:
        events = json.load(fh)["traceEvents"]
    lanes = {
        e["args"]["name"]
        for e in events
        if e["ph"] == "M" and e["name"] == "process_name"
    }
    assert {"dispatcher", "worker-0", "worker-1"} <= lanes
    span_events = [e for e in events if e["ph"] == "X"]
    assert {e["pid"] for e in span_events} >= forward_pids | {dispatcher_pid}

    # Workers profiled themselves and shipped the samples home.
    profile = gateway.merged_profile()
    assert profile["samples"] > 0
    assert any(
        stack.startswith(("worker-0;", "worker-1;"))
        for stack in profile["counts"]
    )


def test_gateway_crash_keeps_correlation_and_trace_parentage(configs):
    """SIGKILL a worker mid-stream: crash dead letters carry the frame's
    correlation id, and frames replayed into the restarted worker keep
    their ORIGINAL submit-span parentage in the merged trace."""
    from repro.obs import trace as obs_trace

    obs_trace.clear()
    radar, dsp, model = configs
    config = _gateway_config(workers=2, heartbeat_timeout_s=2.0)
    with Gateway(radar, dsp, model, config) as gateway:
        sids = [gateway.open_session() for _ in range(4)]
        frames = _cube_frames(dsp, 8, seed=13)
        results = []
        sent = 0
        for frame in frames[:4]:
            for sid in sids:
                gateway.submit_cube(sid, frame)
                sent += 1

        victim = gateway._workers[0]
        victim_pid = victim.process.pid
        os.kill(victim_pid, signal.SIGKILL)
        victim.process.join(timeout=10)

        more_sent, more = _feed_all(gateway, sids, frames[4:])
        sent += more_sent
        results.extend(more)
        results.extend(gateway.drain(timeout_s=30))
        stats = gateway.stats()
        replayed = int(
            stats["counters"].get("gateway.frames_replayed", 0)
        )
    records = gateway.trace_records()

    # Correlation ids survive the crash into the dead-letter log.
    crash_letters = [
        letter
        for letter in gateway.dead_letters.tail()
        if letter["stage"] == "worker-crash"
    ]
    for letter in crash_letters:
        assert letter["corr_id"] == (
            f"{letter['session_id']}#{letter['frame_index']}"
        )
    # The kill happened mid-stream: SOMETHING was in flight, so the
    # crash either dead-lettered or replayed frames (usually both).
    assert crash_letters or replayed > 0

    # Every served frame -- including the replayed ones, which ran in
    # the restarted worker's NEW process -- parents back to the submit
    # span that first forwarded it.
    submits = {
        (r["fields"]["session"], r["fields"]["frame_id"]): r
        for r in records
        if r["name"] == "gateway.submit"
    }
    forwards = [r for r in records if r["name"] == "worker.forward"]
    assert forwards
    post_crash_pids = set()
    for record in forwards:
        parent = submits[
            (record["fields"]["session"], record["fields"]["frame_id"])
        ]
        assert record["parent_id"] == parent["span_id"]
        assert record["trace_id"] == parent["trace_id"]
        post_crash_pids.add(record["pid"])
    # The replacement worker (new pid) contributed parented spans too.
    assert any(pid != victim_pid for pid in post_crash_pids)
    # Accounting identity from the recovery contract still holds.
    counters = stats["counters"]
    acked = int(counters["gateway.acks"])
    dead = int(stats["dead_letters"]["total"])
    crash_acked = int(counters.get("gateway.crash_dead_letters", 0))
    assert sent == acked + dead - crash_acked


# ----------------------------------------------------------------------
# Doorbells, bounded registry, monotonic stage stamps
# ----------------------------------------------------------------------


def test_gateway_bursts_get_acked_within_a_heartbeat(configs):
    """300 frames in bursts of 1-5 with random sub-millisecond spacing,
    the caller parking on the response doorbell until each burst is
    acked. Pushes race the workers' parking at random phases; every
    frame is acked and answered, and no ack lags its submit by a
    heartbeat period -- the delay a lost wakeup would cost."""
    radar, dsp, model = configs
    rng = np.random.default_rng(11)
    with Gateway(
        radar, dsp, model, _gateway_config(workers=2)
    ) as gateway:
        sids = [gateway.open_session() for _ in range(6)]
        period = gateway.heartbeat_interval_s
        results = []

        def bursts(frames):
            """Send ``frames`` in bursts; the submit-to-ack gaps."""
            gaps = []
            sent = 0
            while sent < len(frames):
                submitted = {}
                for _ in range(int(rng.integers(1, 6))):
                    if sent == len(frames):
                        break
                    sid = sids[sent % len(sids)]
                    gateway.submit_cube(sid, frames[sent])
                    submitted[(sid, gateway._frame_ids[sid])] = (
                        time.monotonic()
                    )
                    sent += 1
                    time.sleep(rng.uniform(0.0, 0.001))
                deadline = time.monotonic() + 10.0
                while submitted and time.monotonic() < deadline:
                    select.select(
                        [gateway.response_doorbell], [], [], period
                    )
                    results.extend(gateway.pump())
                    acked_at = time.monotonic()
                    unacked = set()
                    for handle in gateway._workers:
                        unacked.update(handle.inflight)
                    for key in [k for k in submitted if k not in unacked]:
                        gaps.append(acked_at - submitted.pop(key))
                time.sleep(rng.uniform(0.0, 0.001))
            return gaps

        # Warm-up: the first forwards build the compiled plan for each
        # batch size; time only what comes after.
        bursts(_cube_frames(dsp, 60, seed=12))
        gaps = bursts(_cube_frames(dsp, 300, seed=11))
        results.extend(gateway.drain(timeout_s=30))
        counters = gateway.stats()["counters"]

    assert int(counters["gateway.acks"]) == 360
    assert len(gaps) == 300
    assert max(gaps) < period, max(gaps)
    assert len(results) == 360 - len(sids) * (dsp.segment_frames - 1)


def test_gateway_forgets_settled_sessions(configs):
    """Churn 500 short sessions: the dispatcher's session registry
    stays bounded while ``sent == acked + dead_lettered`` holds, and
    every acked window is answered even when the close follows its
    frames at once."""
    radar, dsp, model = configs
    frames = _cube_frames(dsp, 3, seed=19)
    with Gateway(
        radar, dsp, model, _gateway_config(workers=2)
    ) as gateway:
        sent = 0
        results = []
        largest = 0
        for _ in range(500):
            sid = gateway.open_session()
            batch_sent, batch = _feed_all(gateway, [sid], frames)
            sent += batch_sent
            results.extend(batch)
            gateway.close_session(sid)
            results.extend(gateway.pump())
            largest = max(
                largest,
                len(gateway._sessions),
                len(gateway._closed_sessions),
                len(gateway._frame_ids),
            )
        results.extend(gateway.drain(timeout_s=60))
        for _ in range(100):
            if not gateway._sessions:
                break
            select.select([gateway.response_doorbell], [], [], 0.05)
            results.extend(gateway.pump())
        counters = gateway.stats()["counters"]
        dead = int(gateway.dead_letters.stats()["total"])

        # Only sessions whose close is not yet confirmed stay in the
        # registry; pumping every iteration keeps them to a couple of
        # request rings' worth, far below the 500 opened.
        assert largest <= 2 * 32
        assert gateway._sessions == {}
        assert gateway._closed_sessions == set()
        assert gateway._frame_ids == {}
    assert sent == int(counters["gateway.acks"]) + dead
    assert dead == 0
    assert len(results) == 500 * (len(frames) - dsp.segment_frames + 1)


def test_gateway_ring_wait_ignores_wall_clock_jumps(configs, monkeypatch):
    """Stage stamps use the monotonic clock: a worker whose wall clock
    runs an hour ahead of the dispatcher's still measures ring waits in
    milliseconds."""
    radar, dsp, model = configs
    dispatcher_pid = os.getpid()
    real_time = time.time

    def skewed_time():
        if os.getpid() == dispatcher_pid:
            return real_time()
        return real_time() + 3600.0

    # Forked workers inherit the patched clock.
    monkeypatch.setattr(time, "time", skewed_time)
    with Gateway(
        radar, dsp, model, _gateway_config(workers=1)
    ) as gateway:
        sid = gateway.open_session()
        _feed_all(gateway, [sid], _cube_frames(dsp, 6, seed=23))
        gateway.drain(timeout_s=30)
        stages = gateway.stats()["stage_latency"]
    assert stages["ring_wait"]["count"] == 6
    assert stages["ring_wait"]["max"] < 1.0
    assert stages["pose_return"]["max"] < 1.0
