"""Open-loop load generator and scaling bench for the gateway.

Simulates hundreds of client sessions with Poisson frame arrivals
against a :class:`~repro.gateway.Gateway`. The generator is
**open-loop**: arrival times are drawn up front from the seeded
exponential inter-arrival distribution and frames are dispatched when
their wall-clock moment comes, whether or not earlier frames were
answered -- the standard way to measure serving capacity without the
coordinated-omission bias of closed-loop clients. A frame refused at
the ring (gateway backpressure) stays at the head of its session's
schedule and is retried on the next tick, so the offered load is never
silently shed by the *generator* -- any loss must show up in the
gateway's own accounting.

``run_gateway_bench`` sweeps worker counts (1/2/4 by default), records
sessions/sec, frames/sec, p50/p99 end-to-end latency and ring-buffer
occupancy per count, and emits the ``BENCH_serving.json`` summary via
:func:`repro.perf.write_bench_json`. ``cpu_count`` is embedded in the
summary: on a single-core host the worker pool time-slices one core
and the speedup column reads ~1x by physics; the committed numbers are
only meaningful next to that field.
"""

from __future__ import annotations

import heapq
import os
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.config import DspConfig, ModelConfig, RadarConfig
from repro.errors import GatewayError, QueueFullError
from repro.gateway.dispatcher import Gateway, GatewayConfig
from repro.serving import ServingConfig


@dataclass
class LoadgenConfig:
    """Shape of the simulated client population."""

    sessions: int = 64
    frames_per_session: int = 8
    # Aggregate offered load in frames/s; 0 saturates (next frame is
    # offered as soon as the previous dispatch attempt returns).
    arrival_rate_hz: float = 0.0
    frame_pool: int = 32
    seed: int = 0
    drain_timeout_s: float = 60.0
    occupancy_sample_every: int = 16

    def __post_init__(self) -> None:
        if self.sessions < 1:
            raise GatewayError("sessions must be >= 1")
        if self.frames_per_session < 1:
            raise GatewayError("frames_per_session must be >= 1")
        if self.arrival_rate_hz < 0:
            raise GatewayError("arrival_rate_hz must be >= 0")
        if self.frame_pool < 1:
            raise GatewayError("frame_pool must be >= 1")


def make_frame_pool(
    dsp: DspConfig, count: int, seed: int
) -> np.ndarray:
    """Plausible pre-processed cube frames ``(count, V, D, A)``.

    Log-magnitude cubes are non-negative; random folded normals are a
    faithful stand-in for load testing (the network does real work on
    them) without paying the radar simulator per frame.
    """
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


def run_loadgen(
    gateway: Gateway, config: LoadgenConfig
) -> Dict[str, Any]:
    """Drive one open-loop load run against a started gateway."""
    pool = make_frame_pool(
        gateway.dsp, config.frame_pool, config.seed
    )
    rng = np.random.default_rng(config.seed + 1)
    session_ids = [
        gateway.open_session() for _ in range(config.sessions)
    ]

    # Per-session Poisson schedules, merged into one event heap of
    # (due_time, session index). Saturation mode (rate 0) treats every
    # frame as immediately due.
    per_session_rate = (
        config.arrival_rate_hz / config.sessions
        if config.arrival_rate_hz > 0
        else 0.0
    )
    next_frame = [0] * config.sessions
    heap: List = []
    for index in range(config.sessions):
        if per_session_rate > 0:
            due = rng.exponential(1.0 / per_session_rate)
        else:
            due = 0.0
        heapq.heappush(heap, (due, index))

    sent = 0
    deferred = 0
    occupancy_samples: List[int] = []
    ticks = 0
    start = time.perf_counter()
    results = []
    while heap:
        now = time.perf_counter() - start
        due, index = heap[0]
        if due > now:
            results.extend(gateway.pump())
            time.sleep(min(due - now, 0.001))
            continue
        heapq.heappop(heap)
        sid = session_ids[index]
        frame = pool[(index + next_frame[index]) % len(pool)]
        try:
            gateway.submit_cube(sid, frame)
        except QueueFullError:
            # Backpressure: keep the frame scheduled and retry after a
            # pump; the offered load is deferred, never dropped here.
            deferred += 1
            heapq.heappush(heap, (due + 0.0005, index))
            results.extend(gateway.pump())
            continue
        sent += 1
        next_frame[index] += 1
        if next_frame[index] < config.frames_per_session:
            if per_session_rate > 0:
                gap = rng.exponential(1.0 / per_session_rate)
                heapq.heappush(heap, (due + gap, index))
            else:
                heapq.heappush(heap, (due, index))
        ticks += 1
        if ticks % config.occupancy_sample_every == 0:
            snapshot = [
                handle.request_ring.occupancy()
                for handle in gateway._workers
                if handle.request_ring is not None
            ]
            if snapshot:
                occupancy_samples.append(max(snapshot))
            results.extend(gateway.pump())

    results.extend(gateway.drain(timeout_s=config.drain_timeout_s))
    elapsed = time.perf_counter() - start

    stats = gateway.stats()
    counters = stats["counters"]
    acked = int(counters.get("gateway.acks", 0))
    quarantined = int(counters.get("gateway.frames_quarantined", 0))
    dead = int(stats["dead_letters"]["total"])
    # Invariant: every submitted frame is acked by its worker (replayed
    # frames re-ack) or dead-lettered by crash recovery. "Clean" loss
    # is anything submitted that is neither.
    lost_clean = max(0, sent - acked - dead)
    latencies = np.array(
        [result.latency_s for result in results], dtype=np.float64
    )
    answered_sessions = 0
    per_session = {sid: 0 for sid in session_ids}
    for result in results:
        per_session[result.session_id] = (
            per_session.get(result.session_id, 0) + 1
        )
    expected_poses = max(
        0,
        config.frames_per_session - gateway.dsp.segment_frames + 1,
    )
    for sid in session_ids:
        if per_session.get(sid, 0) >= expected_poses or (
            expected_poses == 0
        ):
            answered_sessions += 1
    for sid in session_ids:
        gateway.close_session(sid)
    gateway.pump()

    summary: Dict[str, Any] = {
        "sessions": config.sessions,
        "frames_per_session": config.frames_per_session,
        "frames_sent": sent,
        "frames_deferred": deferred,
        "frames_acked": acked,
        "frames_quarantined": quarantined,
        "dead_letters": dead,
        "lost_clean_frames": lost_clean,
        "poses": len(results),
        "sessions_completed": answered_sessions,
        "elapsed_s": elapsed,
        "sessions_per_s": (
            answered_sessions / elapsed if elapsed > 0 else 0.0
        ),
        "frames_per_s": sent / elapsed if elapsed > 0 else 0.0,
        "latency_p50_ms": (
            float(np.percentile(latencies, 50)) * 1e3
            if latencies.size else 0.0
        ),
        "latency_p99_ms": (
            float(np.percentile(latencies, 99)) * 1e3
            if latencies.size else 0.0
        ),
        "ring_occupancy_mean": (
            float(np.mean(occupancy_samples))
            if occupancy_samples else 0.0
        ),
        "ring_occupancy_max": (
            int(np.max(occupancy_samples))
            if occupancy_samples else 0
        ),
        "worker_restarts": int(
            counters.get("gateway.worker_restarts", 0)
        ),
        # Where each frame's time went, pool-wide (milliseconds).
        "stage_latency_ms": {
            stage: {
                "count": int(entry["count"]),
                "mean": entry["mean"] * 1e3,
                "p95": entry["p95"] * 1e3,
                "max": entry["max"] * 1e3,
            }
            for stage, entry in stats.get(
                "stage_latency", {}
            ).items()
        },
    }
    return summary


def bench_configs():
    """Mid-sized stack shared with ``benchmarks/bench_serving.py``:
    real model work per frame, seconds-not-minutes total runtime."""
    radar = RadarConfig(samples_per_chirp=32, chirp_loops=8)
    dsp = DspConfig(
        range_bins=16, doppler_bins=4, azimuth_bins=8,
        elevation_bins=8, segment_frames=2,
    )
    model = ModelConfig(
        base_channels=4, hourglass_depth=1, num_blocks=1,
        feature_dim=32, lstm_hidden=32,
    )
    return radar, dsp, model


def run_gateway_bench(
    worker_counts: Sequence[int] = (1, 2, 4),
    smoke: bool = False,
    seed: int = 0,
    sessions: Optional[int] = None,
    frames_per_session: Optional[int] = None,
) -> Dict[str, Any]:
    """Sweep worker counts and summarise scaling for BENCH_serving.json.

    The gateway forks its workers, so this runs on Linux only."""
    radar, dsp, model = bench_configs()
    if smoke:
        worker_counts = tuple(worker_counts) or (2,)
        n_sessions = sessions if sessions is not None else 16
        n_frames = (
            frames_per_session if frames_per_session is not None else 6
        )
    else:
        n_sessions = sessions if sessions is not None else 96
        n_frames = (
            frames_per_session if frames_per_session is not None else 10
        )

    rows: List[Dict[str, Any]] = []
    for workers in worker_counts:
        gateway = Gateway(
            radar, dsp, model,
            GatewayConfig(
                workers=workers,
                ring_slots=128,
                serving=ServingConfig(
                    max_batch_size=16,
                    queue_capacity=64,
                    policy="block",
                ),
                seed=seed,
            ),
        )
        loadgen = LoadgenConfig(
            sessions=n_sessions,
            frames_per_session=n_frames,
            seed=seed,
        )
        with gateway:
            row = run_loadgen(gateway, loadgen)
        row = {"workers": workers, **row}
        rows.append(row)

    base = rows[0]["sessions_per_s"] or 1e-12
    for row in rows:
        row["speedup_vs_1_worker"] = row["sessions_per_s"] / base
    summary: Dict[str, Any] = {
        "benchmark": "gateway_serving",
        "smoke": smoke,
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "worker_counts": list(worker_counts),
        "rows": rows,
        "speedup_max_vs_1_worker": max(
            row["speedup_vs_1_worker"] for row in rows
        ),
        "lost_clean_frames": sum(
            row["lost_clean_frames"] for row in rows
        ),
        "scaling_note": (
            "workers are OS processes; expect near-linear sessions/sec "
            "up to min(cpu_count, workers). On a 1-CPU host all worker "
            "counts time-slice one core and the speedup column stays "
            "~1x."
        ),
    }
    return summary


def print_gateway_report(summary: Dict[str, Any]) -> None:
    print(
        f"gateway bench (cpus={summary['cpu_count']}, "
        f"smoke={summary['smoke']})"
    )
    header = (
        f"{'workers':>7s} {'sess/s':>9s} {'frames/s':>9s} "
        f"{'p50 ms':>8s} {'p99 ms':>8s} {'occ max':>8s} "
        f"{'lost':>5s} {'speedup':>8s}"
    )
    print(header)
    for row in summary["rows"]:
        print(
            f"{row['workers']:>7d} {row['sessions_per_s']:>9.2f} "
            f"{row['frames_per_s']:>9.1f} "
            f"{row['latency_p50_ms']:>8.2f} "
            f"{row['latency_p99_ms']:>8.2f} "
            f"{row['ring_occupancy_max']:>8d} "
            f"{row['lost_clean_frames']:>5d} "
            f"{row['speedup_vs_1_worker']:>7.2f}x"
        )
