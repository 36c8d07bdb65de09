"""Per-layer readings for traced runs.

Three sources, all outside the program's own code:

* spans the benchmark recorded around its own calls into netfront
  (``encode_message``, ``FrameDecoder.feed``, connect, session open)
  and around the netfront server's calls into the gateway;
* the program's existing stats and counters (``Gateway.stats()``,
  including its ``stage_latency`` ledger, and the netfront server's
  counters);
* a replay of the run's own inputs through ``CubeBuilder.build``,
  ``MicroBatcher.run``, ``HandJointRegressor.predict`` and the
  autograd training step, for the layers that run inside workers.
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

from repro.config import DspConfig, ModelConfig, RadarConfig, TrainConfig
from repro.core.losses import combined_loss
from repro.core.regressor import HandJointRegressor
from repro.dsp.plans import PLAN_CACHE
from repro.dsp.radar_cube import CubeBuilder
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor
from repro.obs.metrics import MetricsRegistry
from repro.serving.batcher import MicroBatcher
from repro.serving.cache import SegmentCache
from repro.serving.session import SegmentRequest

from perfbench import oracle
from perfbench.common import BenchInvalid, SpanRecorder, median, metric
from perfbench.inputs import WINDOW, reference_regressor

_clock = time.perf_counter


def _mean_ms(spans: SpanRecorder, name: str, scale: float = 1e3) -> float:
    durations = spans.durations(name)
    if not durations:
        raise BenchInvalid(f"no {name} spans recorded")
    return float(np.mean(durations)) * scale


def live_layers(spans, conns, backend, stats, net, info, run_wall):
    """netfront / gateway / serving readings of one traced live run."""
    counters = net["counters"]
    stages = stats["stage_latency"]
    worker_counters: Dict[str, float] = {}
    for entry in stats["workers"].values():
        for name, value in entry.get("serving", {}).get("counters", {}).items():
            worker_counters[name] = worker_counters.get(name, 0.0) + float(value)
    batches = worker_counters.get("batches", 0.0)
    if not batches or "forward" not in stages or "ring_wait" not in stages:
        raise BenchInvalid("worker stats carried no batches")
    batch_mean = worker_counters.get("poses", 0.0) / batches
    hits = worker_counters.get("cache_hits", 0.0)
    lookups = hits + worker_counters.get("cache_misses", 0.0)
    decoded = sum(c.decoded for c in conns)
    decode_s = sum(spans.durations("netfront.decode"))
    forward_per_segment_ms = stages["forward"]["mean"] * 1e3 / batch_mean
    return {
        "netfront.encode_us": metric(_mean_ms(spans, "netfront.encode", 1e6), "us"),
        "netfront.decode_us": metric(decode_s * 1e6 / max(1, decoded), "us"),
        "netfront.connect_ms": metric(_mean_ms(spans, "netfront.connect"), "ms"),
        "netfront.session_open_ms": metric(
            median(spans.durations("netfront.session_open")) * 1e3, "ms"
        ),
        "netfront.poses_shed": metric(counters.get("netfront.poses_shed", 0), "count"),
        "netfront.frames_rejected": metric(
            counters.get("netfront.frames_rejected", 0), "count"
        ),
        "gateway.submit_us": metric(_mean_ms(spans, "gateway.submit", 1e6), "us"),
        "gateway.pump_busy_ms": metric(backend.pump_busy_s * 1e3 / run_wall, "ms/s"),
        "gateway.ring_wait_ms.p50": metric(stages["ring_wait"]["p50"] * 1e3, "ms"),
        "gateway.ring_wait_ms.p95": metric(stages["ring_wait"]["p95"] * 1e3, "ms"),
        "gateway.ring_occupancy_max": metric(backend.occupancy_max, "count"),
        "gateway.backpressure_retries": metric(backend.backpressure_retries, "count"),
        "gateway.worker_restarts": metric(
            counters.get("gateway.worker_restarts", 0), "count"
        ),
        # Filled in by replay_layers once the isolated forward is known.
        "gateway.forward_per_segment_ms": forward_per_segment_ms,
        "serving.batch_size_mean": metric(batch_mean, "count"),
        "serving.batch_wait_ms": metric(stages["batch_wait"]["mean"] * 1e3, "ms"),
        "serving.cache_hit_ratio": metric(hits / lookups if lookups else 0.0, "ratio"),
        "serving.cache_lookups": metric(lookups, "count"),
        "serving.quarantined": metric(worker_counters.get("quarantined", 0.0), "count"),
        "loadgen.lag_p99_ms": metric(info["loadgen_lag_p99_ms"], "ms"),
        "loadgen.frames_sent": metric(info["loadgen_frames_sent"], "count"),
    }


def stream_windows(streams) -> List[tuple]:
    """Every pose-bearing window of the run with its reference and
    true joints: ``(window, ref, truth)``."""
    out = []
    for stream in streams:
        cubes = stream.cubes
        for i in range(WINDOW - 1, stream.n):
            out.append((cubes[i - WINDOW + 1 : i + 1], stream.refs[i], stream.truth[i]))
    return out


def dsp_layers(raw_frames: np.ndarray, count: int = 48) -> Dict[str, Dict]:
    """One-frame cube builds over a sample of the run's raw frames."""
    builder = CubeBuilder(RadarConfig(), DspConfig())
    pick = raw_frames[np.linspace(0, len(raw_frames) - 1, count).astype(int)]
    builder.build(pick[0][None])
    before = PLAN_CACHE.stats()
    totals, stages = [], {k: [] for k in ("bandpass", "range_fft", "doppler_fft", "angle")}
    for frame in pick:
        t0 = _clock()
        builder.build(frame[None])
        totals.append(_clock() - t0)
        _, timings = builder.build_timed(frame[None])
        for stage, seconds in timings.items():
            stages[stage].append(seconds)
    after = PLAN_CACHE.stats()
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    out = {"dsp.build_ms": metric(median(totals) * 1e3, "ms")}
    for stage, values in stages.items():
        out[f"dsp.{stage}_ms"] = metric(median(values) * 1e3, "ms")
    out["dsp.plan_cache_hit_ratio"] = metric(hits / max(1, hits + misses), "ratio")
    return out


def model_layers(windows: np.ndarray, batch_mean: float) -> Dict[str, Dict]:
    """Isolated compiled forward at batch 1 and at the pool's mean
    batch, the per-op profile and the memory plan."""
    regressor = reference_regressor()
    n = max(1, int(round(batch_mean)))
    regressor.predict(windows[:n])
    regressor.predict(windows[:1])
    b1, bn = [], []
    for i in range(min(32, len(windows))):
        t0 = _clock()
        regressor.predict(windows[i : i + 1])
        b1.append(_clock() - t0)
    for i in range(16):
        batch = windows[(i * n) % max(1, len(windows) - n):][:n]
        t0 = _clock()
        regressor.predict(batch)
        bn.append(_clock() - t0)
    plan = regressor.compiled()
    shares: Dict[str, float] = {}
    for row in plan.profile(regressor.normalize_inputs(windows[:n])):
        shares[row["op"]] = shares.get(row["op"], 0.0) + row["share"]
    return {
        "model.forward_ms.b1": metric(median(b1) * 1e3, "ms"),
        "model.forward_ms.bN": metric(median(bn) * 1e3, "ms"),
        "model.op.spatial_attention_share": metric(shares.get("spatial_attention", 0.0), "ratio"),
        "model.op.conv2d_share": metric(shares.get("conv2d", 0.0), "ratio"),
        "model.planned_bytes": metric(plan.memory_stats()["planned_bytes"], "bytes"),
    }


def serving_replay(items) -> Dict[str, float]:
    """Every window of the run through ``MicroBatcher.run`` with a
    segment cache, in send order, checked against the references."""
    regressor = reference_regressor()
    registry = MetricsRegistry()
    batcher = MicroBatcher(
        regressor, max_batch_size=8, cache=SegmentCache(256), metrics=registry
    )
    poses = np.full((len(items), 21, 3), np.nan, dtype=np.float32)
    for start in range(0, len(items), 8):
        requests = [
            SegmentRequest(session_id="replay", frame_index=start + k, segment=w)
            for k, (w, _, _) in enumerate(items[start : start + 8])
        ]
        for result in batcher.run(requests):
            poses[result.frame_index] = result.joints
    wrong = oracle.pose_failures(poses, np.stack([ref for _, ref, _ in items]))
    counters = registry.snapshot()["counters"]
    hits = counters.get("cache_hits", 0)
    lookups = hits + counters.get("cache_misses", 0)
    return {"hits": hits, "lookups": lookups, "wrong": wrong}


def train_steps(
    windows: np.ndarray, labels: np.ndarray, steps: int, seed: int,
    spans: SpanRecorder, batch_size: int = 16,
):
    """Eager-autograd steps as ``Trainer.fit`` takes them (forward,
    combined loss, backward, clip, Adam step), each part in a span.
    Returns the trained regressor and the losses."""
    config = TrainConfig(batch_size=batch_size, seed=seed)
    regressor = HandJointRegressor(DspConfig(), ModelConfig(), seed=seed)
    regressor.set_normalization(
        input_mean=float(windows.mean()), input_std=float(windows.std() + 1e-6),
        label_mean=labels.mean(axis=0), label_std=labels.std(axis=0) + 1e-6,
    )
    optimizer = Adam(regressor.parameters(), lr=config.learning_rate)
    x = regressor.normalize_inputs(windows)
    y = labels.astype(np.float32)
    label_mean = Tensor(regressor.label_mean)
    label_std = Tensor(regressor.label_std)
    rng = np.random.default_rng(seed)
    regressor.train()
    losses = []
    for _ in range(steps):
        idx = rng.permutation(len(x))[:batch_size]
        t0 = _clock()
        pred = regressor(Tensor(x[idx])) * label_std + label_mean
        total, _, _ = combined_loss(pred, y[idx], config)
        t1 = _clock()
        optimizer.zero_grad()
        total.backward()
        t2 = _clock()
        optimizer.clip_gradients(config.grad_clip)
        optimizer.step()
        t3 = _clock()
        spans.add("train.forward", t0, t1)
        spans.add("train.backward", t1, t2)
        spans.add("train.optim", t2, t3)
        losses.append(float(total.data))
    return regressor, losses


def train_layers(spans: SpanRecorder, skip: int = 1) -> Dict[str, Dict]:
    """Median step parts, excluding the first ``skip`` warm-up steps."""
    out = {}
    for part in ("forward", "backward", "optim"):
        durations = spans.durations(f"train.{part}")[skip:]
        out[f"train.{part}_ms"] = metric(median(durations) * 1e3, "ms")
    return out


def trace_overhead(spans: SpanRecorder, run_wall: float) -> Dict[str, Dict]:
    cost = spans.cost_per_span_s()
    return {
        "trace.spans": metric(len(spans.spans), "count"),
        "trace.overhead_ratio": metric(len(spans.spans) * cost / run_wall, "ratio"),
    }
