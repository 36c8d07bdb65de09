"""Pipeline benchmark + perf-regression harness.

Measures the DSP hot path end to end and stage by stage:

* **cube build** -- the per-frame reference chain (sample-by-sample
  bandpass, one angle-spectra call per frame, plan cache disabled)
  against the batched chain in both precisions. This is the headline number: the batched
  path must deliver >= 3x frames/s over the baseline measured *in the
  same run*.
* **radar synthesis** -- frame-by-frame :meth:`RadarSimulator.frame`
  stacking vs the batched :meth:`RadarSimulator.sequence`.
* **CFAR** -- the per-cell loop vs the cumulative-sum vectorisation.
* **end to end** -- simulate + preprocess, baseline vs batched-fast.

Every fast path's equivalence error against its reference is recorded
next to its timing, so a perf claim and its correctness evidence live in
the same JSON. ``smoke=True`` shrinks sizes and repeats for CI.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import time
from datetime import datetime, timezone
from typing import Any, Callable, Dict, Optional, Sequence

import numpy as np

from repro.config import DspConfig, RadarConfig
from repro.dsp import PLAN_CACHE, CfarConfig, ca_cfar, ca_cfar_reference
from repro.dsp.radar_cube import CubeBuilder
from repro.radar import RadarSimulator
from repro.radar.scene import Scatterers, Scene


def _git_sha() -> str:
    """Current commit SHA, or ``"unknown"`` outside a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if proc.returncode != 0:
        return "unknown"
    return proc.stdout.strip()


def _config_hash(summary: Dict[str, Any]) -> str:
    """Short digest of the summary's top-level scalar knobs.

    Two runs with the same hash measured the same workload shape
    (smoke/repeats/seed/...), so their numbers are comparable.
    """
    scalars = {
        key: value
        for key, value in summary.items()
        if isinstance(value, (str, int, float, bool))
    }
    payload = json.dumps(scalars, sort_keys=True, default=float)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def bench_provenance(summary: Dict[str, Any]) -> Dict[str, Any]:
    """Reproducibility metadata embedded into every benchmark JSON."""
    return {
        "git_sha": _git_sha(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "timestamp_utc": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
        "config_hash": _config_hash(summary),
    }


def write_bench_json(path: str, summary: Dict[str, Any]) -> str:
    """Write a benchmark summary to ``path`` as indented JSON.

    Shared by every benchmark entry point so the output format (and the
    directory handling) stays uniform. A ``provenance`` block (git SHA,
    platform, numpy version, UTC timestamp, config hash) is added unless
    the summary already carries one. Returns ``path``.
    """
    if "provenance" not in summary:
        summary = dict(summary)
        summary["provenance"] = bench_provenance(summary)
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, default=float, sort_keys=False)
        fh.write("\n")
    return path


def _best_of(fn: Callable[[], Any], repeats: int) -> float:
    """Best wall-clock seconds of ``repeats`` runs of ``fn``."""
    best = float("inf")
    for _ in range(repeats):
        tic = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - tic)
    return best


def _make_scenes(
    rng: np.random.Generator, frames: int, scatterers: int = 20
) -> Sequence[Scene]:
    """Hand-like random scatterer scenes for the simulator benchmark."""
    scenes = []
    for _ in range(frames):
        positions = rng.uniform(
            [0.15, -0.15, -0.15], [0.45, 0.15, 0.15],
            size=(scatterers, 3),
        )
        velocities = rng.normal(0.0, 0.4, size=(scatterers, 3))
        amplitudes = rng.uniform(0.5, 1.5, size=scatterers)
        scenes.append(
            Scene(
                hand=Scatterers(
                    positions=positions,
                    velocities=velocities,
                    amplitudes=amplitudes,
                )
            )
        )
    return scenes


def _rel_diff(a: np.ndarray, b: np.ndarray) -> float:
    scale = float(np.abs(b).max())
    if scale == 0.0:
        return float(np.abs(np.asarray(a) - b).max())
    return float(np.abs(np.asarray(a) - b).max() / scale)


def run_pipeline_bench(
    smoke: bool = False,
    repeats: int = 3,
    seed: int = 0,
    frames: Optional[int] = None,
) -> Dict[str, Any]:
    """Run the full pipeline benchmark; returns the summary dict.

    ``smoke`` shrinks the workload (fewer frames, one repeat) so the
    harness doubles as a CI regression check that every code path still
    runs and every equivalence bound still holds.
    """
    if frames is None:
        frames = 8 if smoke else 64
    if smoke:
        repeats = 1
    rng = np.random.default_rng(seed)
    radar = RadarConfig()
    dsp_exact = DspConfig()
    dsp_fast = DspConfig(precision="fast")

    builder = CubeBuilder(radar, dsp_exact)
    builder_fast = CubeBuilder(radar, dsp_fast)
    shape = (
        frames,
        builder.array.num_virtual,
        radar.chirp_loops,
        radar.samples_per_chirp,
    )
    raw = rng.normal(size=shape) + 1j * rng.normal(size=shape)

    # -- cube build: per-frame uncached baseline vs batched ------------
    def baseline_build() -> None:
        with PLAN_CACHE.disabled():
            for f in range(frames):
                builder.build_reference(raw[f])

    reference = builder.build_reference(raw)
    batched = builder.build(raw)
    batched_fast = builder_fast.build(raw)
    exact_abs = float(np.abs(batched.values - reference.values).max())
    fast_rel = _rel_diff(batched_fast.values, reference.values)

    builder.build(raw[:2])  # warm the plan cache before timing
    t_baseline = _best_of(baseline_build, repeats)
    t_batched = _best_of(lambda: builder.build(raw), repeats)
    t_fast = _best_of(lambda: builder_fast.build(raw), repeats)

    cube_bench = {
        "frames": frames,
        "baseline_per_frame": {
            "elapsed_s": t_baseline,
            "frames_per_s": frames / t_baseline,
        },
        "batched_exact": {
            "elapsed_s": t_batched,
            "frames_per_s": frames / t_batched,
            "speedup": t_baseline / t_batched,
            "max_abs_diff_vs_reference": exact_abs,
        },
        "batched_fast": {
            "elapsed_s": t_fast,
            "frames_per_s": frames / t_fast,
            "speedup": t_baseline / t_fast,
            "max_rel_diff_vs_reference": fast_rel,
        },
    }

    # -- radar synthesis: per-frame vs batched sequence ----------------
    sim_frames = max(4, frames // 4)
    scenes = _make_scenes(rng, sim_frames)
    sim = RadarSimulator(radar, seed=seed)
    seq_batched = RadarSimulator(radar, seed=seed).sequence(scenes)
    seq_reference = RadarSimulator(radar, seed=seed).sequence_reference(
        scenes
    )
    sim_rel = _rel_diff(seq_batched, seq_reference)
    t_seq_ref = _best_of(
        lambda: sim.sequence_reference(scenes), repeats
    )
    t_seq = _best_of(lambda: sim.sequence(scenes), repeats)
    sim_bench = {
        "frames": sim_frames,
        "per_frame": {
            "elapsed_s": t_seq_ref,
            "frames_per_s": sim_frames / t_seq_ref,
        },
        "batched": {
            "elapsed_s": t_seq,
            "frames_per_s": sim_frames / t_seq,
            "speedup": t_seq_ref / t_seq,
            "max_rel_diff_vs_reference": sim_rel,
        },
    }

    # -- CFAR: per-cell loop vs cumulative-sum vectorisation -----------
    profile = rng.exponential(1.0, size=64 if smoke else 512)
    cfar_config = CfarConfig()
    cfar_equal = bool(
        np.array_equal(
            ca_cfar(profile, cfar_config),
            ca_cfar_reference(profile, cfar_config),
        )
    )
    t_cfar_ref = _best_of(
        lambda: ca_cfar_reference(profile, cfar_config), repeats
    )
    t_cfar = _best_of(lambda: ca_cfar(profile, cfar_config), repeats)
    cfar_bench = {
        "profile_length": len(profile),
        "loop": {"elapsed_s": t_cfar_ref},
        "vectorized": {
            "elapsed_s": t_cfar,
            "speedup": t_cfar_ref / t_cfar,
            "mask_identical": cfar_equal,
        },
    }

    # -- model forward: batched joint regression over built cubes ------
    from repro.config import ModelConfig
    from repro.core.regressor import HandJointRegressor

    regressor = HandJointRegressor(dsp_exact, ModelConfig(), seed=seed)
    regressor.eval()
    # Segment shape comes from the regressor's own DSP config (it may
    # differ from dsp_exact when tests shrink the default model); feed
    # it the real built cubes when they fit, synthetic ones otherwise.
    rdsp = regressor.dsp
    st = rdsp.segment_frames
    frame_shape = (
        rdsp.doppler_bins,
        rdsp.range_bins,
        rdsp.azimuth_bins + rdsp.elevation_bins,
    )
    num_segments = max(frames // st, 1)
    if (
        batched.values.shape[1:] == frame_shape
        and batched.values.shape[0] >= num_segments * st
    ):
        segments = (
            batched.values[: num_segments * st]
            .reshape(num_segments, st, *frame_shape)
            .astype(np.float32)
        )
    else:
        segments = rng.normal(
            size=(num_segments, st) + frame_shape
        ).astype(np.float32)
    regressor.predict(segments)  # warm-up: first-call allocations
    t_forward = _best_of(lambda: regressor.predict(segments), repeats)
    model_bench = {
        "segments": num_segments,
        "batch_forward": {
            "elapsed_s": t_forward,
            "segments_per_s": num_segments / t_forward,
        },
    }

    # -- end to end: simulate + preprocess -----------------------------
    def end_to_end_baseline() -> None:
        raw_seq = sim.sequence_reference(scenes)
        with PLAN_CACHE.disabled():
            for f in range(sim_frames):
                builder.build_reference(raw_seq[f])

    def end_to_end_batched() -> None:
        builder_fast.build(sim.sequence(scenes))

    t_e2e_ref = _best_of(end_to_end_baseline, repeats)
    t_e2e = _best_of(end_to_end_batched, repeats)
    e2e_bench = {
        "frames": sim_frames,
        "baseline": {
            "elapsed_s": t_e2e_ref,
            "frames_per_s": sim_frames / t_e2e_ref,
        },
        "batched_fast": {
            "elapsed_s": t_e2e,
            "frames_per_s": sim_frames / t_e2e,
            "speedup": t_e2e_ref / t_e2e,
        },
    }

    return {
        "smoke": smoke,
        "repeats": repeats,
        "seed": seed,
        "cube_build": cube_bench,
        "simulator": sim_bench,
        "cfar": cfar_bench,
        "model_forward": model_bench,
        "end_to_end": e2e_bench,
        "plan_cache": PLAN_CACHE.stats(),
    }


def print_pipeline_report(summary: Dict[str, Any]) -> None:
    """Human-readable one-screen report of a pipeline bench summary."""
    cube = summary["cube_build"]
    print(
        f"cube build ({cube['frames']} frames): "
        f"baseline {cube['baseline_per_frame']['frames_per_s']:8.1f} "
        f"frames/s | batched exact "
        f"{cube['batched_exact']['frames_per_s']:8.1f} frames/s "
        f"({cube['batched_exact']['speedup']:.2f}x) | batched fast "
        f"{cube['batched_fast']['frames_per_s']:8.1f} frames/s "
        f"({cube['batched_fast']['speedup']:.2f}x)"
    )
    print(
        "  equivalence: exact max|diff| "
        f"{cube['batched_exact']['max_abs_diff_vs_reference']:.2e}, "
        "fast max rel "
        f"{cube['batched_fast']['max_rel_diff_vs_reference']:.2e}"
    )
    sim = summary["simulator"]
    print(
        f"simulator ({sim['frames']} frames): per-frame "
        f"{sim['per_frame']['frames_per_s']:8.1f} frames/s | batched "
        f"{sim['batched']['frames_per_s']:8.1f} frames/s "
        f"({sim['batched']['speedup']:.2f}x, max rel "
        f"{sim['batched']['max_rel_diff_vs_reference']:.2e})"
    )
    cfar = summary["cfar"]
    print(
        f"ca_cfar (n={cfar['profile_length']}): loop "
        f"{cfar['loop']['elapsed_s'] * 1e6:7.0f} us | vectorized "
        f"{cfar['vectorized']['elapsed_s'] * 1e6:7.0f} us "
        f"({cfar['vectorized']['speedup']:.1f}x, mask identical: "
        f"{cfar['vectorized']['mask_identical']})"
    )
    if "model_forward" in summary:
        model = summary["model_forward"]
        print(
            f"model forward ({model['segments']} segments): "
            f"{model['batch_forward']['segments_per_s']:8.1f} segments/s "
            f"({model['batch_forward']['elapsed_s'] * 1e3:.1f} ms/batch)"
        )
    e2e = summary["end_to_end"]
    print(
        f"end-to-end ({e2e['frames']} frames): baseline "
        f"{e2e['baseline']['frames_per_s']:8.1f} frames/s | batched "
        f"fast {e2e['batched_fast']['frames_per_s']:8.1f} frames/s "
        f"({e2e['batched_fast']['speedup']:.2f}x)"
    )
    cache = summary["plan_cache"]
    print(
        f"plan cache: {cache['hits']} hits / {cache['misses']} misses "
        f"({cache['entries']} entries)"
    )
