"""Tests of the multi-session inference service runtime
(:mod:`repro.serving`): session lifecycle, micro-batch equivalence,
backpressure policies, cache accounting and metrics."""

import threading
import time

import numpy as np
import pytest

from repro.core.regressor import HandJointRegressor
from repro.core.streaming import StreamingEstimator
from repro.dsp.radar_cube import CubeBuilder
from repro.errors import (
    FrameShapeError,
    QueueFullError,
    ReproError,
    ServingError,
    SessionClosedError,
    UnknownSessionError,
)
from repro.serving import (
    FrameWindow,
    Histogram,
    InferenceServer,
    MetricsRegistry,
    MicroBatcher,
    RequestQueue,
    SegmentCache,
    SegmentRequest,
    ServingConfig,
    Session,
    segment_key,
)
from repro.serving.server import CLOSED_SESSION_RECORDS


@pytest.fixture(scope="module")
def stack():
    """Shared small builder + (untrained, deterministic) regressor."""
    from repro.config import DspConfig, ModelConfig, RadarConfig

    radar = RadarConfig(samples_per_chirp=32, chirp_loops=8)
    dsp = DspConfig(
        range_bins=16, doppler_bins=4, azimuth_bins=8, elevation_bins=8,
        segment_frames=2,
    )
    model = ModelConfig(
        base_channels=4, hourglass_depth=1, num_blocks=1, feature_dim=16,
        lstm_hidden=16,
    )
    builder = CubeBuilder(radar, dsp)
    regressor = HandJointRegressor(dsp, model, seed=7)
    regressor.eval()
    return builder, regressor


def _raw_frames(builder, count, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(
        size=(
            count,
            builder.array.num_virtual,
            builder.radar.chirp_loops,
            builder.radar.samples_per_chirp,
        )
    )


def _request(session_id, frame_index=0, seed=0, shape=(2, 4, 16, 16)):
    rng = np.random.default_rng(seed)
    return SegmentRequest(
        session_id=session_id,
        frame_index=frame_index,
        segment=rng.normal(size=shape),
    )


# ----------------------------------------------------------------------
# FrameWindow / Session lifecycle
# ----------------------------------------------------------------------
def test_frame_window_emission_schedule():
    window = FrameWindow(segment_frames=3, hop_frames=2)
    frames = [np.full((2, 2, 2), i, dtype=np.float32) for i in range(8)]
    emitted = [window.push(f) is not None for f in frames]
    # Window full at index 2, then every 2nd frame -- but the first
    # emission also waits for the hop counter (2 pushes since start).
    assert emitted == [False, False, True, False, True, False, True,
                       False]
    assert window.fill == 3
    assert window.frame_index == 7
    window.reset()
    assert window.fill == 0
    assert window.frame_index == -1


def test_frame_window_validates():
    with pytest.raises(ServingError):
        FrameWindow(segment_frames=0)
    with pytest.raises(ServingError):
        FrameWindow(segment_frames=2, hop_frames=0)
    window = FrameWindow(segment_frames=2)
    with pytest.raises(FrameShapeError):
        window.push(np.zeros((2, 2)))


def test_session_lifecycle(stack):
    builder, _ = stack
    session = Session(builder, session_id="client-a")
    raw = _raw_frames(builder, 3)
    assert session.feed(raw[0]) is None
    request = session.feed(raw[1])
    assert request is not None
    assert request.session_id == "client-a"
    assert request.frame_index == 1
    assert request.segment.shape == (2, 4, 16, 16)
    assert session.stats()["frames_in"] == 2
    session.close()
    assert session.closed
    with pytest.raises(SessionClosedError):
        session.feed(raw[2])
    with pytest.raises(SessionClosedError):
        session.reset()


def test_session_feed_validates_shape(stack):
    builder, _ = stack
    session = Session(builder)
    with pytest.raises(FrameShapeError):
        session.feed(np.zeros((4, 4)))
    with pytest.raises(FrameShapeError):
        session.feed_cube(np.zeros((4, 4)))


def test_server_session_lifecycle(stack):
    builder, regressor = stack
    server = InferenceServer(builder, regressor)
    sid = server.open_session("s-1")
    assert sid == "s-1"
    with pytest.raises(ServingError):
        server.open_session("s-1")  # duplicate id
    with pytest.raises(UnknownSessionError):
        server.submit("nope", np.zeros((12, 8, 32)))
    raw = _raw_frames(builder, 2)
    assert server.submit(sid, raw[0]) is False  # window not full yet
    assert server.submit(sid, raw[1]) is True
    server.close_session(sid)
    # Closing purges the queued window and later submits fail.
    assert len(server.queue) == 0
    with pytest.raises(SessionClosedError):
        server.submit(sid, raw[0])
    stats = server.stats()
    assert stats["counters"]["sessions_opened"] == 1
    assert stats["counters"]["sessions_closed"] == 1
    assert stats["sessions"][sid]["dropped"] == 1


def test_server_session_limit(stack):
    builder, regressor = stack
    server = InferenceServer(
        builder, regressor, ServingConfig(max_sessions=2)
    )
    server.open_session()
    server.open_session()
    with pytest.raises(ServingError):
        server.open_session()


def test_server_churn_keeps_state_bounded(stack):
    """Close drops the session; only the last CLOSED_SESSION_RECORDS
    final stats stay, and every window is still a result or a drop."""
    builder, regressor = stack
    server = InferenceServer(
        builder, regressor,
        ServingConfig(max_batch_size=4, max_sessions=2, enable_cache=False),
    )
    dsp = builder.dsp
    cube = np.random.default_rng(0).normal(
        size=(dsp.doppler_bins, dsp.range_bins, dsp.angle_bins_total)
    )
    windows = results = dropped = 0
    for i in range(500):
        sid = server.open_session()
        for _ in range(dsp.segment_frames + i % 3):
            server.submit_cube(sid, cube)
        if i % 2:
            server.step()  # the rest are purged by the close
        server.close_session(sid)
        final = server.session_stats(sid)
        assert final["closed"]
        assert final["segments_out"] == final["results_out"] + final["dropped"]
        windows += final["segments_out"]
        results += final["results_out"]
        dropped += final["dropped"]
        assert len(server._sessions) == 0
    assert dropped > 0 and results > 0
    assert windows == results + dropped
    stats = server.stats()
    assert stats["counters"]["poses"] == results
    assert stats["counters"]["sessions_closed"] == 500
    assert len(stats["sessions"]) == CLOSED_SESSION_RECORDS
    assert sid in stats["sessions"]
    with pytest.raises(SessionClosedError):
        server.submit_cube(sid, cube)
    server.close_session(sid)  # closing twice is a no-op
    assert server.stats()["counters"]["sessions_closed"] == 500


# ----------------------------------------------------------------------
# Micro-batch equivalence
# ----------------------------------------------------------------------
def test_batched_predict_matches_per_item(stack):
    _, regressor = stack
    rng = np.random.default_rng(3)
    segments = rng.normal(size=(6, 2, 4, 16, 16))
    batched = regressor.predict(segments)
    solo = np.stack([regressor.predict(s[None])[0] for s in segments])
    np.testing.assert_allclose(batched, solo, atol=1e-6)


def test_server_matches_streaming_estimator(stack):
    """>= 4 concurrent sessions through the micro-batched server agree
    with independent single-session StreamingEstimator runs."""
    builder, regressor = stack
    num_sessions, num_frames = 4, 5
    feeds = [
        _raw_frames(builder, num_frames, seed=100 + i)
        for i in range(num_sessions)
    ]

    expected = {}
    for i, feed in enumerate(feeds):
        estimator = StreamingEstimator(builder, regressor, hop_frames=1)
        expected[f"c{i}"] = [
            (o.frame_index, o.skeleton) for o in estimator.run(feed)
        ]

    server = InferenceServer(
        builder, regressor,
        ServingConfig(max_batch_size=num_sessions, enable_cache=False),
    )
    for i in range(num_sessions):
        server.open_session(f"c{i}")
    results = []
    for t in range(num_frames):
        for i in range(num_sessions):
            server.submit(f"c{i}", feeds[i][t])
        results.extend(server.step())
    results.extend(server.drain())

    got = {f"c{i}": [] for i in range(num_sessions)}
    for result in results:
        got[result.session_id].append(
            (result.frame_index, result.joints)
        )
    for sid, pairs in expected.items():
        got[sid].sort(key=lambda p: p[0])
        assert [p[0] for p in got[sid]] == [p[0] for p in pairs]
        for (_, joints_got), (_, joints_exp) in zip(got[sid], pairs):
            np.testing.assert_allclose(
                joints_got, joints_exp, atol=1e-6
            )
    # The server actually batched: fewer forward batches than poses.
    stats = server.stats()
    assert stats["counters"]["batches"] < stats["counters"]["poses"]
    assert stats["histograms"]["batch_size"]["max"] == num_sessions


def test_batcher_rejects_oversized_batch(stack):
    _, regressor = stack
    batcher = MicroBatcher(regressor, max_batch_size=2)
    requests = [_request(f"s{i}", seed=i) for i in range(3)]
    with pytest.raises(ServingError):
        batcher.run(requests)
    assert batcher.run([]) == []


# ----------------------------------------------------------------------
# Backpressure
# ----------------------------------------------------------------------
def test_queue_reject_policy():
    # A put into a full queue is refused once its blocking wait times
    # out; the refused request is counted and nothing queued is lost.
    queue = RequestQueue(capacity=2, block_timeout_s=0.01)
    queue.put(_request("a", 0))
    queue.put(_request("a", 1))
    with pytest.raises(QueueFullError):
        queue.put(_request("a", 2))
    assert queue.rejected == 1
    assert len(queue) == 2


def test_queue_block_times_out_without_consumer():
    queue = RequestQueue(capacity=1, block_timeout_s=0.05)
    queue.put(_request("a", 0))
    start = time.perf_counter()
    with pytest.raises(QueueFullError):
        queue.put(_request("a", 1))
    assert time.perf_counter() - start >= 0.04
    assert queue.rejected == 1
    assert len(queue) == 1


def test_queue_block_waits_for_consumer():
    queue = RequestQueue(capacity=1, block_timeout_s=2.0)
    queue.put(_request("a", 0))

    def consume():
        time.sleep(0.05)
        queue.pop_batch(1)

    thread = threading.Thread(target=consume)
    thread.start()
    queue.put(_request("a", 1))  # unblocked by the consumer thread
    thread.join()
    assert len(queue) == 1


def test_queue_fairness_round_robin():
    queue = RequestQueue(capacity=16)
    for i in range(6):
        queue.put(_request("hog", i))
    queue.put(_request("quiet", 0))
    batch = queue.pop_batch(4)
    sessions = [r.session_id for r in batch]
    # The quiet session is served within the first batch despite the
    # hog's six-deep backlog.
    assert "quiet" in sessions
    assert sessions.count("hog") == 3


def test_queue_validates():
    with pytest.raises(ServingError):
        RequestQueue(capacity=0)
    with pytest.raises(ServingError):
        RequestQueue(block_timeout_s=0.0)
    with pytest.raises(ServingError):
        RequestQueue().pop_batch(0)


def test_server_drop_oldest_backpressure(stack):
    """The retired ``drop-oldest`` policy value still constructs, and
    the queue blocks (serving inline) instead of evicting windows."""
    builder, regressor = stack
    server = InferenceServer(
        builder, regressor,
        ServingConfig(
            max_batch_size=2, queue_capacity=2, policy="drop-oldest",
            enable_cache=False,
        ),
    )
    sid = server.open_session()
    raw = _raw_frames(builder, 6)
    for frame in raw:
        server.submit(sid, frame)  # never stepping: the queue fills
        assert len(server.queue) <= 2
    server.drain()
    stats = server.stats()
    # Every one of the five windows was served; none was evicted.
    assert stats["sessions"][sid]["results_out"] == 5
    assert stats["sessions"][sid]["dropped"] == 0
    assert stats["queue"]["rejected"] == 0


def test_server_block_policy_serves_inline(stack):
    """Single-threaded block policy: a full queue triggers an inline
    step instead of deadlocking the producer."""
    builder, regressor = stack
    server = InferenceServer(
        builder, regressor,
        ServingConfig(
            max_batch_size=2, queue_capacity=2, policy="block",
            block_timeout_s=0.2, enable_cache=False,
        ),
    )
    sid = server.open_session()
    raw = _raw_frames(builder, 6)
    for frame in raw:
        server.submit(sid, frame)
    results = server.drain()
    total = server.stats()["sessions"][sid]["results_out"]
    # Every emitted window was served; nothing dropped or rejected.
    assert total == 5
    assert server.stats()["queue"]["rejected"] == 0
    # The inline step's poses are handed out by drain(), not lost.
    assert len(results) == total == 5


def test_server_reject_policy_raises():
    # "drop-oldest" survives for existing callers and blocks like
    # "block"; the retired "reject" and unknown values are refused.
    assert ServingConfig(policy="drop-oldest").policy == "drop-oldest"
    for bad in ("reject", "spill"):
        with pytest.raises(ServingError):
            ServingConfig(policy=bad)


# ----------------------------------------------------------------------
# Cache
# ----------------------------------------------------------------------
def test_segment_cache_lru_and_accounting():
    cache = SegmentCache(capacity=2)
    a, b, c = (np.full((2, 2), v) for v in (1.0, 2.0, 3.0))
    ka, kb, kc = segment_key(a), segment_key(b), segment_key(c)
    assert ka != kb != kc
    assert cache.get(ka) is None  # miss
    cache.put(ka, np.zeros((21, 3)))
    cache.put(kb, np.ones((21, 3)))
    assert cache.get(ka) is not None  # hit; refreshes recency
    cache.put(kc, np.ones((21, 3)))  # evicts b (least recent)
    assert cache.get(kb) is None
    assert cache.get(kc) is not None
    stats = cache.stats()
    assert stats["hits"] == 2
    assert stats["misses"] == 2
    assert stats["evictions"] == 1
    assert stats["size"] == 2
    assert stats["hit_rate"] == pytest.approx(0.5)


def test_segment_key_covers_shape_and_dtype():
    flat = np.arange(4.0)
    assert segment_key(flat) != segment_key(flat.reshape(2, 2))
    assert segment_key(flat) != segment_key(flat.astype(np.float32))


def test_server_cache_skips_network(stack):
    builder, regressor = stack
    server = InferenceServer(
        builder, regressor,
        ServingConfig(max_batch_size=4, enable_cache=True),
    )
    a = server.open_session("a")
    b = server.open_session("b")
    raw = _raw_frames(builder, 2)
    # Both sessions replay the identical capture.
    for frame in raw:
        server.submit(a, frame)
        server.submit(b, frame)
    results = server.drain()
    by_session = {r.session_id: r for r in results}
    # The duplicate window rode along on the first one's forward row
    # (within-batch dedup counts as a cache hit).
    assert by_session["b"].cached or by_session["a"].cached
    np.testing.assert_allclose(
        by_session["a"].joints, by_session["b"].joints, atol=1e-6
    )
    stats = server.stats()
    assert stats["counters"]["cache_hits"] == 1
    assert stats["counters"]["cache_misses"] == 1
    # A third client replaying the same capture is served entirely from
    # the populated cache -- no forward pass at all.
    c = server.open_session("c")
    batches_before = server.stats()["counters"]["batches"]
    for frame in raw:
        server.submit(c, frame)
    repeat = server.drain()
    assert len(repeat) == 1
    assert all(r.cached for r in repeat)
    np.testing.assert_allclose(
        repeat[0].joints, by_session["a"].joints, atol=1e-6
    )
    stats = server.stats()
    assert stats["cache"]["hit_rate"] == pytest.approx(0.5)
    # The all-cached batch still counts as a batch but runs no forward.
    assert stats["counters"]["batches"] == batches_before + 1


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def test_histogram_percentiles():
    hist = Histogram("latency")
    for value in range(1, 101):
        hist.observe(float(value))
    assert hist.count == 100
    assert hist.percentile(50) == pytest.approx(50.5)
    assert hist.percentile(95) == pytest.approx(95.05)
    summary = hist.summary()
    assert summary["count"] == 100
    assert summary["mean"] == pytest.approx(50.5)
    assert summary["p50"] == pytest.approx(50.5)
    assert summary["p95"] == pytest.approx(95.05)
    assert summary["p99"] == pytest.approx(99.01)
    assert summary["max"] == 100.0


def test_histogram_sliding_reservoir():
    hist = Histogram("latency", capacity=10)
    for value in range(100):
        hist.observe(float(value))
    # Only the newest 10 samples survive; count keeps the full total.
    assert hist.count == 100
    assert hist.summary()["p50"] == pytest.approx(94.5)


def test_metrics_registry_snapshot_and_events():
    registry = MetricsRegistry(event_capacity=4)
    registry.counter("served").increment(3)
    registry.gauge("depth").set(2)
    registry.gauge("depth").add(-1)
    registry.histogram("lat").observe(1.0)
    for i in range(6):
        registry.events.emit("tick", index=i)
    snapshot = registry.snapshot()
    assert snapshot["counters"]["served"] == 3
    assert snapshot["gauges"]["depth"] == 1
    assert snapshot["histograms"]["lat"]["count"] == 1
    # Event log is bounded; sequence numbers keep increasing.
    tail = registry.events.tail(2)
    assert len(registry.events) == 4
    assert [e["index"] for e in tail] == [4, 5]
    assert tail[-1]["seq"] == 5
    with pytest.raises(ServingError):
        registry.counter("served").increment(-1)


# ----------------------------------------------------------------------
# StreamingEstimator adapter
# ----------------------------------------------------------------------
def test_streaming_estimator_raises_typed_errors(stack):
    builder, regressor = stack
    estimator = StreamingEstimator(builder, regressor)
    with pytest.raises(FrameShapeError):
        estimator.push(np.zeros((8, 32)))
    with pytest.raises(FrameShapeError):
        estimator.run(np.zeros((2, 8, 32)))
    # FrameShapeError stays inside the ReproError hierarchy.
    assert issubclass(FrameShapeError, ReproError)
    assert issubclass(QueueFullError, ServingError)


# ----------------------------------------------------------------------
# Per-stage preprocess timing
# ----------------------------------------------------------------------
def test_preprocess_timings_in_server_stats(stack):
    builder, regressor = stack
    server = InferenceServer(
        builder, regressor, ServingConfig(max_batch_size=2)
    )
    session_id = server.open_session()
    for frame in _raw_frames(builder, 3, seed=21):
        server.submit(session_id, frame)
    server.drain()
    histograms = server.stats()["histograms"]
    assert histograms["preprocess_s"]["count"] == 3
    assert histograms["preprocess_s"]["mean"] > 0.0
    for stage in ("bandpass", "range_fft", "doppler_fft", "angle"):
        assert histograms[f"preprocess_{stage}_s"]["count"] == 3


def test_session_without_metrics_has_no_histograms(stack):
    builder, _ = stack
    session = Session(builder)
    frame = _raw_frames(builder, 1, seed=22)[0]
    assert session.feed(frame) is None  # window not yet full
    assert session.frames_in == 1


def test_server_forces_eval_mode_for_deterministic_serving(stack):
    """Regression: a regressor handed over straight from a trainer (still
    in training mode) must serve inference-mode outputs -- dropout as
    identity, batch norm on (unchanging) running statistics."""
    from repro.config import DspConfig, ModelConfig
    from repro.nn.layers import Dropout, Linear, ReLU, Sequential

    builder, _ = stack
    dsp = DspConfig(
        range_bins=16, doppler_bins=4, azimuth_bins=8, elevation_bins=8,
        segment_frames=2,
    )
    model = ModelConfig(
        base_channels=4, hourglass_depth=1, num_blocks=1, feature_dim=16,
        lstm_hidden=16,
    )
    regressor = HandJointRegressor(dsp, model, seed=11)
    # A dropout head makes training-mode forwards stochastic, so any
    # mode leak would show up as non-deterministic serving output.
    regressor.head = Sequential(
        Linear(16, 16), ReLU(), Dropout(0.5),
        Linear(16, model.num_joints * 3),
    )
    regressor.train()
    stats_before = {
        name: buf.copy() for name, buf in regressor.named_buffers()
    }
    server = InferenceServer(
        builder, regressor, ServingConfig(enable_cache=False)
    )
    assert regressor.training is False

    first = server.batcher.run([_request("s", 0, seed=3)])[0].joints
    second = server.batcher.run([_request("s", 1, seed=3)])[0].joints
    assert np.array_equal(first, second)
    for name, buf in regressor.named_buffers():
        assert np.array_equal(buf, stats_before[name]), name


def test_serving_config_validates_shard_threads():
    # The fields survive for existing callers; only the single compiled
    # execution mode (float32, one thread) is accepted.
    ServingConfig(shard_threads=0, precision="float32")
    for bad in ({"shard_threads": -1}, {"shard_threads": 2},
                {"precision": "int8"}, {"precision": "float16"}):
        with pytest.raises(ServingError):
            ServingConfig(**bad)


def test_queue_reject_emits_counter_and_event():
    registry = MetricsRegistry()
    queue = RequestQueue(
        capacity=1, block_timeout_s=0.01, metrics=registry
    )
    queue.put(_request("a", 0))
    with pytest.raises(QueueFullError):
        queue.put(_request("a", 1))
    assert registry.counter("serving.queue.rejected").value == 1
    events = [
        event for event in registry.events.tail()
        if event["kind"] == "rejected_request"
    ]
    assert len(events) == 1
    assert events[0]["session_id"] == "a"
    assert events[0]["frame_index"] == 1


def test_session_feed_rejects_nonfinite_with_context(stack):
    builder, _ = stack
    session = Session(builder, session_id="client-9")
    frame = np.zeros(
        (
            builder.array.num_virtual,
            builder.radar.chirp_loops,
            builder.radar.samples_per_chirp,
        )
    )
    frame[0, 0, 0] = np.nan
    with pytest.raises(FrameShapeError) as excinfo:
        session.feed(frame)
    message = str(excinfo.value)
    assert "client-9" in message
    assert "frame 0" in message
    assert "non-finite" in message
    with pytest.raises(FrameShapeError):
        session.feed_cube(np.full((4, 8, 8), np.inf))
    with pytest.raises(FrameShapeError):
        session.feed_cube(np.array([["a"] * 8] * 4).reshape(4, 8, -1))


def test_server_quarantines_malformed_frames(stack):
    builder, regressor = stack
    server = InferenceServer(builder, regressor)
    session_id = server.open_session()
    frames = _raw_frames(builder, 3, seed=5)
    poisoned = frames[1].copy()
    poisoned[0, 0, 0] = np.inf

    assert server.submit(session_id, frames[0]) is False  # filling
    assert server.submit(session_id, poisoned) is False   # quarantined
    assert server.submit(session_id, frames[2]) is True   # window full

    stats = server.session_stats(session_id)
    assert stats["quarantined"] == 1
    assert stats["frames_in"] == 2  # the poisoned frame never landed
    assert len(server.dead_letters) == 1
    letter = server.dead_letters.tail(1)[0]
    assert letter["stage"] == "ingest"
    assert letter["session_id"] == session_id
    snapshot = server.stats()
    assert snapshot["counters"]["frames_quarantined"] == 1
    assert snapshot["dead_letters"]["total"] == 1

    results = server.step()
    assert len(results) == 1 and results[0].session_id == session_id


def test_server_strict_frames_raises(stack):
    builder, regressor = stack
    server = InferenceServer(
        builder, regressor, ServingConfig(strict_frames=True)
    )
    session_id = server.open_session()
    poisoned = _raw_frames(builder, 1, seed=5)[0].copy()
    poisoned[0, 0, 0] = np.nan
    with pytest.raises(FrameShapeError):
        server.submit(session_id, poisoned)
    # Even in strict mode the failure is accounted before raising.
    assert server.session_stats(session_id)["quarantined"] == 1
    assert len(server.dead_letters) == 1
