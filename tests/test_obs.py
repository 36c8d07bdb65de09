"""Tests of the observability subsystem (:mod:`repro.obs`): trace
spans (nesting, exception safety, concurrency, exporters), the metrics
registry (histograms, collectors, Prometheus exposition), structured
logging, and end-to-end correlation through the serving stack."""

import io
import json
import threading

import numpy as np
import pytest

from repro.errors import ObservabilityError
from repro.obs import logging as obs_logging
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.logging import configure, get_logger
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.trace import Tracer


@pytest.fixture(autouse=True)
def _reset_logging():
    """Every test starts from the default logging configuration."""
    yield
    obs_logging._CONFIG.__init__()
    obs_logging._LOGGERS.clear()


# ----------------------------------------------------------------------
# Trace spans
# ----------------------------------------------------------------------

def test_span_nesting_records_parent_ids():
    tracer = Tracer()
    with tracer.span("outer") as outer:
        with tracer.span("middle") as middle:
            with tracer.span("inner") as inner:
                assert tracer.current() is inner
            assert tracer.current() is middle
    assert tracer.current() is None
    records = {r["name"]: r for r in tracer.spans()}
    assert records["outer"]["parent_id"] is None
    assert records["middle"]["parent_id"] == records["outer"]["span_id"]
    assert records["inner"]["parent_id"] == records["middle"]["span_id"]
    # Children finish before parents, so buffer order is inner-first.
    assert [r["name"] for r in tracer.spans()] == [
        "inner", "middle", "outer",
    ]


def test_span_exception_marks_error_and_reraises():
    tracer = Tracer()
    with pytest.raises(ValueError):
        with tracer.span("outer"):
            with tracer.span("failing"):
                raise ValueError("boom")
    records = {r["name"]: r for r in tracer.spans()}
    assert records["failing"]["status"] == "error"
    assert records["failing"]["error"] == "ValueError"
    # The parent also unwinds through the exception path.
    assert records["outer"]["status"] == "error"
    # The stack fully unwound; the tracer is reusable.
    assert tracer.current() is None
    with tracer.span("after"):
        pass
    assert tracer.spans()[-1]["parent_id"] is None


def test_span_fields_and_set():
    tracer = Tracer()
    with tracer.span("work", frames=8) as span:
        span.set(result="ok")
    record = tracer.spans()[0]
    assert record["fields"] == {"frames": 8, "result": "ok"}
    assert record["duration_s"] >= 0.0


def test_tracer_disabled_context():
    tracer = Tracer()
    with tracer.disabled():
        with tracer.span("hidden"):
            pass
    assert len(tracer) == 0
    with tracer.span("visible"):
        pass
    assert len(tracer) == 1


def test_tracer_bounded_capacity():
    tracer = Tracer(capacity=4)
    for i in range(10):
        with tracer.span(f"s{i}"):
            pass
    assert len(tracer) == 4
    assert [r["name"] for r in tracer.spans()] == [
        "s6", "s7", "s8", "s9",
    ]
    with pytest.raises(ObservabilityError):
        Tracer(capacity=0)


def test_concurrent_span_emission_keeps_threads_separate():
    tracer = Tracer()
    threads = 6
    spans_per_thread = 40
    barrier = threading.Barrier(threads)

    def worker(tid):
        barrier.wait()
        for i in range(spans_per_thread):
            with tracer.span("outer", tid=tid):
                with tracer.span("inner", tid=tid, i=i):
                    pass

    workers = [
        threading.Thread(target=worker, args=(t,)) for t in range(threads)
    ]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    records = tracer.spans()
    assert len(records) == threads * spans_per_thread * 2
    by_id = {r["span_id"]: r for r in records}
    for record in records:
        if record["name"] != "inner":
            continue
        parent = by_id[record["parent_id"]]
        # Nesting never crosses threads: each inner span's parent is an
        # outer span from the same worker.
        assert parent["name"] == "outer"
        assert parent["thread_id"] == record["thread_id"]
        assert parent["fields"]["tid"] == record["fields"]["tid"]


def test_correlation_context_scoping():
    tracer = Tracer()
    with tracer.correlation("session-A"):
        with tracer.span("inside"):
            pass
        assert tracer.get_correlation() == "session-A"
    assert tracer.get_correlation() is None
    with tracer.span("outside"):
        pass
    records = {r["name"]: r for r in tracer.spans()}
    assert records["inside"]["correlation_id"] == "session-A"
    assert "correlation_id" not in records["outside"]


def test_chrome_trace_round_trip(tmp_path):
    tracer = Tracer()
    with tracer.correlation("corr-1"):
        with tracer.span("parent", frames=2):
            with tracer.span("child"):
                pass
    path = tracer.export_chrome(str(tmp_path / "trace.json"))
    doc = json.loads(open(path).read())
    assert set(doc) == {"traceEvents", "displayTimeUnit"}
    events = doc["traceEvents"]
    assert len(events) == 2
    # Sorted by start time: the parent starts first.
    parent, child = events
    assert parent["name"] == "parent"
    assert child["args"]["parent_id"] == parent["args"]["span_id"]
    for event in events:
        assert event["ph"] == "X"
        assert event["ts"] >= 0.0
        assert event["dur"] >= 0.0
        assert event["cat"] == event["name"].split(".", 1)[0]
        assert event["args"]["correlation_id"] == "corr-1"
    assert parent["args"]["frames"] == 2


def test_jsonl_export_round_trip(tmp_path):
    tracer = Tracer()
    with tracer.span("a"):
        pass
    with tracer.span("b"):
        pass
    path = tracer.export_jsonl(str(tmp_path / "spans.jsonl"))
    lines = [json.loads(line) for line in open(path)]
    assert [r["name"] for r in lines] == ["a", "b"]


def test_global_tracer_facade(tmp_path):
    obs_trace.clear()
    with obs_trace.span("facade.test"):
        pass
    assert "facade.test" in obs_trace.summary()
    path = obs_trace.export_chrome(str(tmp_path / "t.json"))
    names = {
        e["name"] for e in json.loads(open(path).read())["traceEvents"]
    }
    assert "facade.test" in names
    obs_trace.clear()
    assert len(obs_trace.get_tracer()) == 0


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

def test_histogram_lifetime_sum_and_means():
    hist = Histogram("h", capacity=4)
    for value in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0):
        hist.observe(value)
    summary = hist.summary()
    assert summary["count"] == 6
    assert summary["sum"] == pytest.approx(21.0)
    # Lifetime mean covers every observation; the window mean covers
    # only the last `capacity` samples (3, 4, 5, 6).
    assert summary["mean"] == pytest.approx(21.0 / 6)
    assert summary["window_mean"] == pytest.approx(4.5)
    assert summary["max"] == pytest.approx(6.0)
    assert hist.sum == pytest.approx(21.0)


def test_histogram_empty_summary():
    summary = Histogram("h").summary()
    assert summary == {
        "count": 0, "sum": 0.0, "mean": 0.0, "window_mean": 0.0,
        "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0,
    }


def test_registry_collector_runs_on_snapshot_and_prometheus():
    registry = MetricsRegistry()
    calls = []

    def collect(reg):
        calls.append(1)
        reg.gauge("derived.depth").set(7)

    registry.register_collector(collect)
    registry.register_collector(collect)  # duplicate: no-op
    snapshot = registry.snapshot()
    assert snapshot["gauges"]["derived.depth"] == 7.0
    registry.to_prometheus()
    assert len(calls) == 2


def test_prometheus_exposition_format():
    registry = MetricsRegistry()
    registry.counter("dsp.plan_cache.hits").increment(3)
    registry.gauge("serving.queue.depth").set(2)
    hist = registry.histogram("serving.latency_s")
    for value in (0.1, 0.2, 0.3):
        hist.observe(value)
    text = registry.to_prometheus()
    assert text.endswith("\n")
    assert "# TYPE mmhand_dsp_plan_cache_hits_total counter" in text
    assert "mmhand_dsp_plan_cache_hits_total 3" in text
    assert "# TYPE mmhand_serving_queue_depth gauge" in text
    assert "mmhand_serving_queue_depth 2.0" in text
    # Histograms expose cumulative le buckets (+Inf = lifetime count)
    # plus _sum/_count, with reservoir quantiles alongside.
    assert "# TYPE mmhand_serving_latency_s histogram" in text
    assert 'mmhand_serving_latency_s_bucket{le="0.1"} 1' in text
    assert 'mmhand_serving_latency_s_bucket{le="0.25"} 2' in text
    assert 'mmhand_serving_latency_s_bucket{le="0.5"} 3' in text
    assert 'mmhand_serving_latency_s_bucket{le="+Inf"} 3' in text
    assert "# TYPE mmhand_serving_latency_s_quantiles summary" in text
    assert 'mmhand_serving_latency_s_quantiles{quantile="0.5"} 0.2' in text
    assert "mmhand_serving_latency_s_count 3" in text
    assert "mmhand_serving_latency_s_sum 0.6" in text
    # Every metric has a HELP line preceding its TYPE line.
    lines = text.strip().splitlines()
    for index, line in enumerate(lines):
        if line.startswith("# TYPE"):
            metric = line.split()[2]
            assert lines[index - 1].startswith(f"# HELP {metric} ")
    # Every non-comment line is "name[{labels}] value".
    for line in lines:
        if line.startswith("#"):
            continue
        name, value = line.rsplit(" ", 1)
        assert name
        float(value)


def test_prometheus_help_override_and_bucket_monotonicity():
    registry = MetricsRegistry()
    registry.describe("latency_s", "end-to-end serving latency")
    hist = registry.histogram("latency_s")
    for value in (0.0001, 0.003, 0.04, 0.9, 99.0):
        hist.observe(value)
    text = registry.to_prometheus()
    assert "# HELP mmhand_latency_s end-to-end serving latency" in text
    counts = [
        int(line.rsplit(" ", 1)[1])
        for line in text.splitlines()
        if line.startswith("mmhand_latency_s_bucket")
    ]
    assert counts == sorted(counts)  # cumulative
    assert counts[-1] == 5  # +Inf holds every observation (99 > 10s)
    assert counts[-2] == 4  # largest finite bound misses the outlier


def test_event_log_tracks_dropped_and_exposes_it():
    registry = MetricsRegistry(event_capacity=4)
    for index in range(10):
        registry.events.emit("tick", index=index)
    assert registry.events.emitted == 10
    assert registry.events.dropped == 6
    assert len(registry.events) == 4
    snapshot = registry.snapshot()
    assert snapshot["events_dropped"] == 6
    assert snapshot["events_emitted"] == 10
    text = registry.to_prometheus()
    assert "mmhand_events_dropped_total 6" in text
    assert "mmhand_events_emitted_total 10" in text


def test_global_registry_facade():
    registry = obs_metrics.get_registry()
    before = registry.counter("test.obs.facade").value
    obs_metrics.counter("test.obs.facade").increment()
    assert registry.counter("test.obs.facade").value == before + 1
    obs_metrics.emit("test_event", detail=1)
    assert len(registry.events) >= 1


def test_plan_cache_collector_publishes_counters():
    from repro.dsp.plans import PLAN_CACHE, publish_plan_cache_metrics

    registry = MetricsRegistry()
    registry.register_collector(publish_plan_cache_metrics)
    stats = PLAN_CACHE.stats()
    snapshot = registry.snapshot()
    assert snapshot["counters"]["dsp.plan_cache.hits"] >= stats["hits"]
    assert (
        snapshot["counters"]["dsp.plan_cache.misses"] >= stats["misses"]
    )
    # Counters stay monotonic across repeated collections.
    second = registry.snapshot()
    assert (
        second["counters"]["dsp.plan_cache.hits"]
        >= snapshot["counters"]["dsp.plan_cache.hits"]
    )


# ----------------------------------------------------------------------
# Structured logging
# ----------------------------------------------------------------------

def test_logfmt_line_shape():
    stream = io.StringIO()
    configure(fmt="logfmt", stream=stream)
    line = get_logger("test").info(
        "hello world", n=3, f=1.5, flag=True, quoted='a "b"'
    )
    assert line is not None
    assert 'event="hello world"' in line
    assert "n=3" in line
    assert "f=1.5" in line
    assert "flag=true" in line
    assert "logger=test" in line
    assert stream.getvalue().strip() == line


def test_json_log_format_round_trips():
    stream = io.StringIO()
    configure(fmt="json", stream=stream)
    get_logger("test").warning("odd", code=7)
    record = json.loads(stream.getvalue())
    assert record["level"] == "warning"
    assert record["event"] == "odd"
    assert record["code"] == 7


def test_log_level_filtering():
    stream = io.StringIO()
    configure(stream=stream, level="warning")
    logger = get_logger("test")
    assert logger.info("quiet") is None
    assert logger.warning("loud") is not None
    assert "quiet" not in stream.getvalue()


def test_rate_limit_suppresses_and_reports():
    stream = io.StringIO()
    configure(stream=stream, rate_limit_hz=0.001, burst=2)
    logger = get_logger("hot")
    emitted = [logger.info("tick", i=i) for i in range(10)]
    assert sum(line is not None for line in emitted) == 2
    # Lifting the limit: the next line reports what was dropped.
    configure(rate_limit_hz=1e9, burst=10)
    line = logger.info("after")
    assert line is not None and "suppressed=" not in line  # bucket reset
    configure(rate_limit_hz=0)  # disable limiting again


def test_log_carries_span_and_correlation_context():
    stream = io.StringIO()
    configure(stream=stream)
    obs_trace.clear()
    with obs_trace.get_tracer().correlation("sess-9"):
        with obs_trace.span("ctx.work"):
            line = get_logger("test").info("step")
    assert "span=ctx.work" in line
    assert "corr_id=sess-9" in line
    assert "span_id=" in line


def test_configure_rejects_bad_values():
    with pytest.raises(ObservabilityError):
        configure(fmt="xml")
    with pytest.raises(ObservabilityError):
        configure(level="loud")


# ----------------------------------------------------------------------
# Serving smoke: correlation end to end
# ----------------------------------------------------------------------

def test_serving_correlation_ids_flow_to_events_and_prometheus():
    from repro.config import DspConfig, ModelConfig, RadarConfig
    from repro.core.regressor import HandJointRegressor
    from repro.dsp.radar_cube import CubeBuilder
    from repro.serving import InferenceServer, ServingConfig

    radar = RadarConfig(samples_per_chirp=32, chirp_loops=8)
    dsp = DspConfig(
        range_bins=16, doppler_bins=4, azimuth_bins=8, elevation_bins=8,
        segment_frames=2,
    )
    model = ModelConfig(
        base_channels=4, hourglass_depth=1, num_blocks=1, feature_dim=16,
        lstm_hidden=16,
    )
    regressor = HandJointRegressor(dsp, model, seed=7)
    regressor.eval()
    server = InferenceServer(
        CubeBuilder(radar, dsp), regressor,
        ServingConfig(max_batch_size=4),
    )
    rng = np.random.default_rng(0)
    session_id = server.open_session("client-1")
    antennas = server.builder.array.num_virtual
    results = []
    for _ in range(4):
        server.submit(
            session_id,
            rng.normal(size=(antennas, radar.chirp_loops,
                             radar.samples_per_chirp)),
        )
        results.extend(server.step())
    results.extend(server.drain())

    assert results
    corr_ids = {result.corr_id for result in results}
    assert all(
        cid.startswith("client-1#") for cid in corr_ids
    )
    # Every served batch logged the correlation ids it carried.
    served = [
        event for event in server.metrics.events.tail()
        if event["kind"] == "batch_served"
    ]
    assert served
    logged = {cid for event in served for cid in event["corr_ids"]}
    assert corr_ids <= logged

    # stats() and the Prometheus exposition expose the same counters,
    # including the plan-cache instruments.
    stats = server.stats()
    text = server.prometheus()
    assert stats["plan_cache"]["misses"] >= 1
    assert (
        f"mmhand_poses_total {stats['counters']['poses']}" in text
    )
    assert (
        f"mmhand_dsp_plan_cache_hits_total "
        f"{stats['counters']['dsp.plan_cache.hits']}" in text
    )
    assert (
        stats["counters"]["dsp.plan_cache.hits"]
        >= stats["plan_cache"]["hits"] - stats["plan_cache"]["misses"]
    )

    # DSP spans emitted during feed() carry the session id.
    dsp_spans = [
        record for record in obs_trace.get_tracer().spans()
        if record["name"] == "dsp.cube.build"
        and record.get("correlation_id") == "client-1"
    ]
    assert dsp_spans


# ----------------------------------------------------------------------
# Cross-process trace propagation
# ----------------------------------------------------------------------


def test_remote_context_parents_spans_across_boundaries():
    """A span opened under ``remote_context`` adopts the propagated
    trace id and parent span id -- the cross-process stitch."""
    tracer = Tracer(capacity=16)
    with tracer.span("gateway.submit") as submit:
        context = tracer.current_context()
        assert context.trace_id == submit.trace_id
        assert context.span_id == submit.span_id

    # "The other side": a fresh tracer, as in a worker process.
    worker = Tracer(capacity=16)
    with worker.remote_context(context.trace_id, context.span_id):
        with worker.span("worker.ingest") as ingest:
            with worker.span("worker.forward"):
                pass
    records = {r["name"]: r for r in worker.spans()}
    assert records["worker.ingest"]["parent_id"] == context.span_id
    assert records["worker.ingest"]["trace_id"] == context.trace_id
    # Nested spans chain locally but stay inside the remote trace.
    assert records["worker.forward"]["parent_id"] == ingest.span_id
    assert records["worker.forward"]["trace_id"] == context.trace_id
    # Outside the context, spans root their own traces again.
    with worker.span("unrelated") as span:
        assert span.parent_id is None
        assert span.trace_id == span.span_id


def test_remote_context_noop_without_trace_id():
    tracer = Tracer(capacity=4)
    with tracer.remote_context(0, 0):
        with tracer.span("orphan") as span:
            assert span.parent_id is None
            assert span.trace_id == span.span_id


def test_tracer_record_and_drain():
    """``record`` injects pre-timed spans; ``drain`` empties the buffer
    (the worker ships spans home incrementally)."""
    tracer = Tracer(capacity=8)
    tracer.record(
        "worker.forward", 1.0, 1.25,
        trace_id=77, parent_id=42, correlation_id="s#3", batch=4,
    )
    (rec,) = tracer.drain()
    assert rec["name"] == "worker.forward"
    assert rec["trace_id"] == 77
    assert rec["parent_id"] == 42
    assert rec["correlation_id"] == "s#3"
    assert rec["fields"]["batch"] == 4
    assert rec["duration_s"] == pytest.approx(0.25)
    assert rec["pid"] == __import__("os").getpid()
    assert "start_unix" in rec
    # Drained spans are gone; the buffer refills from zero.
    assert tracer.drain() == []
    tracer.record("again", 0.0, 0.1)
    assert len(tracer.spans()) == 1


def test_export_chrome_merged_builds_process_lanes(tmp_path):
    """Records from several pids merge into one Chrome trace with named
    per-process lanes and wall-clock-aligned timestamps."""
    base = 1_700_000_000.0
    records = [
        {
            "name": "gateway.submit", "span_id": 1, "trace_id": 1,
            "parent_id": None, "start_s": 5.0, "duration_s": 0.010,
            "status": "ok", "thread_id": 10, "thread_name": "MainThread",
            "pid": 100, "start_unix": base + 0.000,
        },
        {
            "name": "worker.forward", "span_id": 2, "trace_id": 1,
            "parent_id": 1, "start_s": 0.5, "duration_s": 0.020,
            "status": "ok", "thread_id": 20, "thread_name": "MainThread",
            "pid": 200, "start_unix": base + 0.004,
        },
    ]
    path = str(tmp_path / "merged.json")
    obs_trace.export_chrome_merged(
        path, records, {100: "dispatcher", 200: "worker-0"}
    )
    with open(path) as fh:
        events = json.load(fh)["traceEvents"]
    lanes = {
        e["pid"]: e["args"]["name"]
        for e in events
        if e["ph"] == "M" and e["name"] == "process_name"
    }
    assert lanes == {100: "dispatcher", 200: "worker-0"}
    spans = {e["name"]: e for e in events if e["ph"] == "X"}
    # Timestamps align on the shared wall clock, not per-process
    # monotonic epochs: the worker span starts 4ms after the submit.
    assert spans["worker.forward"]["ts"] - spans["gateway.submit"][
        "ts"
    ] == pytest.approx(4000.0, abs=1.0)
    assert spans["worker.forward"]["pid"] == 200
    assert spans["worker.forward"]["args"]["trace_id"] == 1


# ----------------------------------------------------------------------
# Sampling profiler
# ----------------------------------------------------------------------


def test_sampling_profiler_captures_stacks_and_reports():
    from repro.obs.profiler import SamplingProfiler, folded_from_dict

    def busy_loop(deadline):
        total = 0.0
        while time.perf_counter() < deadline:
            total += sum(i * i for i in range(200))
        return total

    import time

    profiler = SamplingProfiler(hz=200.0)
    with profiler:
        busy_loop(time.perf_counter() + 0.30)
    assert profiler.samples > 10
    counts = profiler.counts()
    assert counts
    # Stacks are thread-rooted and frame labels are module-qualified.
    assert all(stack.startswith("MainThread;") for stack in counts)
    assert any("busy_loop" in stack for stack in counts)
    folded = profiler.folded()
    assert folded == folded_from_dict(profiler.to_dict())
    top = profiler.top(limit=3)
    assert top and top[0][1] > 0
    assert 0.0 <= profiler.overhead_ratio() < 0.5
    stats = profiler.stats()
    assert stats["samples"] == profiler.samples
    # A second start() on the same profiler keeps accumulating.
    before = profiler.samples
    with profiler:
        busy_loop(time.perf_counter() + 0.05)
    assert profiler.samples > before


def test_merge_profiles_prefixes_lanes():
    from repro.obs.profiler import folded_from_dict, merge_profiles

    merged = merge_profiles(
        {
            "worker-0": {
                "counts": {"MainThread;a;b": 3},
                "samples": 3, "hz": 97.0,
                "elapsed_s": 1.0, "sample_cost_s": 0.001,
            },
            "worker-1": {
                "counts": {"MainThread;a;b": 2, "MainThread;c": 1},
                "samples": 3, "hz": 97.0,
                "elapsed_s": 0.5, "sample_cost_s": 0.002,
            },
            "empty": {},
        }
    )
    assert merged["counts"] == {
        "worker-0;MainThread;a;b": 3,
        "worker-1;MainThread;a;b": 2,
        "worker-1;MainThread;c": 1,
    }
    assert merged["samples"] == 6
    assert merged["elapsed_s"] == pytest.approx(1.0)
    assert merged["sample_cost_s"] == pytest.approx(0.003)
    lines = folded_from_dict(merged).splitlines()
    assert lines[0] == "worker-0;MainThread;a;b 3"
