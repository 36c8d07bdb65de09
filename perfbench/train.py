"""The ``train`` workload: eager-autograd training, then held-out poses.

Closed loop, in process. Set-up makes a seeded campaign (four training
subjects, four held-out subjects). A run then

* times set-up: a fresh regressor and ``Trainer`` up to the end of the
  first training step, three times (the median is ``setup_s``);
* trains a fresh regressor with ``Trainer.fit`` at batch 16 for a step
  count fixed from ``--seconds`` (``STEP_S`` per step), so the model
  it evaluates is the same whatever the speed; the first epoch is
  warm-up and ``samples_per_s`` covers the rest;
* serves the held-out segments one at a time through the trained
  model's compiled ``predict`` (the ``frame_latency_*``, ``goodput``
  and ``poses_per_s`` metrics of this workload), compiling it afresh
  before each round (``session_open_p50_ms``), checks every pose
  against an eager ``predict(..., use_compiled=False)`` of the same
  segment, and reports MPJPE against the true joints via
  ``repro.eval.metrics``.

The traced run takes the same steps itself, with each step's forward,
backward and optimizer parts in spans, and serves the held-out windows
over the in-process stack for the netfront/gateway/serving layers.
"""

from __future__ import annotations

import os
import time
from typing import List

import numpy as np

from repro.config import CampaignConfig, DspConfig, ModelConfig, RadarConfig, TrainConfig
from repro.core.regressor import HandJointRegressor
from repro.core.training import Trainer
from repro.data.collection import CampaignGenerator, CaptureOptions
from repro.eval.metrics import mpjpe
from repro.hand.subjects import make_subjects
from repro.nn.inference import compile_model

from perfbench import layers, oracle
from perfbench.common import (
    FRAME_DEADLINE_MS,
    ORACLE_TOL,
    OUT_DIR,
    SpanRecorder,
    median,
    metric,
    quantile,
    vm_hwm_kb,
)
from perfbench.inputs import FRAME_PERIOD_S, WINDOW, Stream, simulate_captures

_clock = time.perf_counter

BATCH = 16
STEP_S = 0.6  # seconds per step at batch 16 on a 2-vCPU x86 VM
TRAIN_USERS, TRAIN_PER_USER = 4, 16
HELD_USERS, HELD_PER_USER = 4, 24
SETUPS = 3
MIN_LATENCY_SAMPLES = 1000
SESSION_OPENS = 100


def campaign(seed: int):
    """Seeded training and held-out sets from disjoint subjects."""
    users = TRAIN_USERS + HELD_USERS
    generator = CampaignGenerator(
        RadarConfig(), DspConfig(), CampaignConfig(num_users=users, seed=seed)
    )
    subjects = make_subjects(users, seed=seed)
    # One segment per capture: every segment gets its own hand placement,
    # so MPJPE averages over many placements rather than a few captures.
    options = CaptureOptions(segments_per_capture=1)
    train = generator.generate(
        subjects[:TRAIN_USERS], options=options,
        segments_per_user=TRAIN_PER_USER, seed=seed,
    )
    held = generator.generate(
        subjects[TRAIN_USERS:], options=options,
        segments_per_user=HELD_PER_USER, seed=seed + 1,
    )
    return train, held


def training_steps(seconds: float) -> int:
    per_epoch = TRAIN_USERS * TRAIN_PER_USER // BATCH
    epochs = max(1, int(round(seconds / (STEP_S * per_epoch))))
    return epochs * per_epoch


def fresh(seed: int) -> HandJointRegressor:
    return HandJointRegressor(DspConfig(), ModelConfig(), seed=seed)


def time_setup(train, seed: int) -> List[float]:
    """Fresh regressor and trainer to the end of the first step."""
    first = train.subset(range(BATCH))
    times = []
    for _ in range(SETUPS):
        t0 = _clock()
        regressor = fresh(seed)
        Trainer(regressor, TrainConfig(batch_size=BATCH, epochs=1, seed=seed)).fit(first)
        times.append(_clock() - t0)
    return times


def serve_held_out(regressor: HandJointRegressor, held):
    """Held-out segments one at a time through the compiled predict,
    repeated until the latency sample supports a p99.

    Before each round the trained model is also compiled into a fresh
    serving plan and run on its first pose, what a serving worker does
    when it opens on new weights. Spreading these session opens over
    the whole serving phase, rather than timing them in one burst,
    keeps their median from resting on a single second of the host.
    Returns per-pose latencies (ms), the poses, session-open times (s)
    and the seconds each round of poses took.
    """
    segments = held.segments
    rounds = -(-MIN_LATENCY_SAMPLES // len(segments))
    opens_per_round = -(-SESSION_OPENS // rounds)
    x = regressor.normalize_inputs(segments[:1])
    regressor.predict(segments[:1])
    latencies, opens, poses, round_s = [], [], None, []
    for _ in range(rounds):
        for _ in range(opens_per_round):
            t0 = _clock()
            compile_model(regressor).run(x)
            opens.append(_clock() - t0)
        out = []
        t_round = _clock()
        for segment in segments:
            t0 = _clock()
            out.append(regressor.predict(segment[None])[0])
            latencies.append(_clock() - t0)
        round_s.append(_clock() - t_round)
        poses = np.stack(out) if poses is None else poses
    return np.asarray(latencies) * 1e3, poses, opens, round_s


def evaluate(regressor, held, losses, steps, timed_steps, train_s):
    """End-to-end metrics and the oracle of one trained model;
    ``timed_steps`` of the ``steps`` took ``train_s``."""
    latencies, poses, opens, round_s = serve_held_out(regressor, held)
    reference = regressor.predict(held.segments, batch_size=BATCH, use_compiled=False)
    err = np.max(np.abs(poses - reference), axis=(1, 2))
    good_pose = err <= ORACLE_TOL
    rounds = len(latencies) // len(poses)
    good = np.tile(good_pose, rounds) & (latencies <= FRAME_DEADLINE_MS)
    bad_losses = int(np.sum(~np.isfinite(losses)))
    metrics = {
        "frame_latency_p50_ms": metric(median(latencies), "ms"),
        "goodput_ratio": metric(np.mean(good), "ratio"),
        # Median over rounds, so one stalled second of the host does
        # not set the rate.
        "poses_per_s": metric(median([len(poses) / r for r in round_s]), "1/s"),
        "session_open_p50_ms": metric(median(opens) * 1e3, "ms"),
        "samples_per_s": metric(timed_steps * BATCH / train_s, "1/s"),
        "mpjpe_mm": metric(mpjpe(poses, held.true_joints), "mm"),
    }
    attempted = steps + len(poses)
    failed = bad_losses + oracle.pose_failures(poses, reference)
    problems = []
    if bad_losses:
        problems.append(f"{bad_losses} non-finite training losses")
    if not oracle.self_check_poses(poses, reference):
        problems.append("oracle self-check failed")
    info = {
        "frame_latency_p99_ms": metric(quantile(latencies, 0.99), "ms"),
        "steps": steps,
        "held_out_segments": len(poses),
        "latency_samples": int(len(latencies)),
        "max_abs_error": float(np.max(err)),
        "final_loss": float(losses[-1]),
    }
    return metrics, attempted, failed, problems, info


def run_untraced(seed: int, seconds: float):
    train, held = campaign(seed)
    setups = time_setup(train, seed)
    steps = training_steps(seconds)
    regressor = fresh(seed)
    trainer = Trainer(
        regressor,
        TrainConfig(batch_size=BATCH, epochs=steps * BATCH // len(train), seed=seed),
    )
    result = trainer.fit(train)
    # The first epoch is warm-up (first steps of a fresh model); the
    # rate is taken over the rest from the trainer's own epoch timings.
    timed = result.epoch_stats[1:] or result.epoch_stats
    train_s = sum(epoch["elapsed_s"] for epoch in timed)
    timed_steps = steps * len(timed) // len(result.epoch_stats)
    losses = np.asarray(result.total_loss)
    metrics, attempted, failed, problems, info = evaluate(
        regressor, held, losses, steps, timed_steps, train_s
    )
    metrics["setup_s"] = metric(median(setups), "s")
    metrics["peak_rss_mb"] = metric(vm_hwm_kb(os.getpid()) / 1024.0, "MB")
    info["setup_s_samples"] = setups
    return metrics, attempted, failed, problems, info


def held_out_streams(held, references: np.ndarray) -> List[Stream]:
    """Every held-out segment as its own 4-frame cube session, two
    sessions opening every 0.1 s, alternating connections."""
    streams = []
    for k, segment in enumerate(held.segments):
        open_time = 0.05 * k
        stream = Stream(
            kind="cube", frames=segment.astype(np.float32),
            times=open_time + FRAME_PERIOD_S * (1 + np.arange(WINDOW)),
            first_id=1000 * (k + 1),
            truth=np.repeat(held.true_joints[k][None], WINDOW, axis=0),
            conn=k % 2, open_time=open_time,
        )
        stream.cubes = stream.frames
        stream.refs = np.full((WINDOW, 21, 3), np.nan, dtype=np.float32)
        stream.refs[-1] = references[k]
        streams.append(stream)
    return streams


def run_traced(seed: int, seconds: float):
    from perfbench import live

    train, held = campaign(seed)
    steps = training_steps(seconds)
    spans = SpanRecorder(True)
    t0 = _clock()
    regressor, losses = layers.train_steps(
        train.segments, train.labels, steps, seed, spans
    )
    train_wall = _clock() - t0
    losses = np.asarray(losses)
    per_layer = layers.train_layers(spans)
    e2e, attempted, failed, problems, info = evaluate(
        regressor, held, losses, steps, steps, train_wall
    )
    per_layer["trace.frame_latency_p50_ms"] = e2e["frame_latency_p50_ms"]
    per_layer["trace.frame_latency_p99_ms"] = info.pop("frame_latency_p99_ms")
    reference = live.reference_regressor().predict(
        held.segments, batch_size=BATCH, use_compiled=False
    )
    streams = held_out_streams(held, reference)
    raw_frames = simulate_captures(seed, 2, 24)[0].reshape(-1, 12, 16, 64)
    stack, stack_attempted, stack_failed, stack_problems, stack_info = live.traced_stack(
        streams, raw_frames, seed, lo=0.0, hi=streams[-1].times[-1] + 1e-9,
        spans=spans,
    )
    stack_info.pop("items")
    stack.pop("trace.frame_latency_p50_ms")
    stack.pop("trace.frame_latency_p99_ms")
    per_layer.update(stack)
    problems.extend(stack_problems)
    per_layer.update(layers.trace_overhead(spans, train_wall + stack_info["run_wall_s"]))
    attempted += stack_attempted
    failed += stack_failed
    per_layer["failed_ratio"] = metric(failed / attempted, "ratio")
    spans.dump(OUT_DIR / f"spans-train-seed{seed}.jsonl")
    info["held_out_stack"] = stack_info
    info["losses"] = losses.tolist()
    return per_layer, attempted, failed, problems, info


def run(workload: str, seed: int, seconds: float, trace: bool):
    if trace:
        return run_traced(seed, seconds)
    return run_untraced(seed, seconds)
