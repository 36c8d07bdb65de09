"""Compiled-vs-eager model forward benchmark.

Times the joint-regression forward pass at serving batch sizes:

* **eager autograd** -- the training-style forward: every op records a
  graph node with backward closures (what serving paid before the
  compiled engine existed);
* **eager no_grad** -- the same modules with graph recording suppressed
  (:func:`repro.nn.tensor.no_grad`), the general fallback path;
* **compiled** -- the flat autograd-free plan from
  :mod:`repro.nn.inference` with Conv+BN folding, fused activations and
  a static memory plan.

Every compiled timing is paired with its deviation from the eager
output on the same inputs; the summary carries a ``within_tolerance``
verdict -- the perf claim and its correctness evidence live in the same
JSON (``BENCH_model.json``). The summary also reports the static memory
plan's footprint (``planned_bytes`` vs the unpacked ``arena_bytes``)
and a top-10 per-op timing profile.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.config import DspConfig, ModelConfig
from repro.core.regressor import HandJointRegressor
from repro.nn.tensor import Tensor
from repro.perf.bench import _best_of

DEFAULT_TOLERANCE = 1e-5


def bench_configs(smoke: bool):
    """Full-size model for real numbers, a shrunken one for CI smoke."""
    if smoke:
        dsp = DspConfig(
            range_bins=16, doppler_bins=4, azimuth_bins=8,
            elevation_bins=8, segment_frames=2,
        )
        model = ModelConfig(
            base_channels=4, hourglass_depth=1, num_blocks=1,
            feature_dim=16, lstm_hidden=16,
        )
        return dsp, model
    return DspConfig(), ModelConfig()


def run_model_bench(
    smoke: bool = False,
    repeats: int = 3,
    seed: int = 0,
    batch_sizes: Optional[Sequence[int]] = None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> Dict[str, Any]:
    """Benchmark the compiled inference engine; returns the summary.

    The summary's ``within_tolerance`` is ``False`` when any compiled
    output deviates from the eager forward by more than ``tolerance``;
    CI fails the bench job on it.
    """
    if smoke:
        repeats = 1
        if batch_sizes is None:
            batch_sizes = (4,)
    elif batch_sizes is None:
        batch_sizes = (4, 16)
    dsp, model = bench_configs(smoke)
    regressor = HandJointRegressor(dsp, model, seed=seed)
    regressor.eval()
    rng = np.random.default_rng(seed)
    plan = regressor.compiled()

    batches: List[Dict[str, Any]] = []
    worst_diff = 0.0
    for batch in batch_sizes:
        segments = rng.normal(
            size=(
                batch, dsp.segment_frames, dsp.doppler_bins,
                dsp.range_bins, dsp.angle_bins_total,
            )
        ).astype(np.float32)
        normalized = regressor.normalize_inputs(segments)

        eager = regressor.predict(segments, use_compiled=False)
        compiled = regressor.predict(segments)
        diff = float(np.abs(compiled - eager).max())
        worst_diff = max(worst_diff, diff)

        def autograd_forward() -> None:
            # Graph recording on (the parameters require grad): this is
            # what a forward through the training modules costs.
            regressor.forward(Tensor(normalized))

        t_autograd = _best_of(autograd_forward, repeats)
        t_no_grad = _best_of(
            lambda: regressor.predict(segments, use_compiled=False),
            repeats,
        )
        t_compiled = _best_of(lambda: regressor.predict(segments), repeats)
        batches.append(
            {
                "batch_size": int(batch),
                "eager_autograd": {
                    "elapsed_s": t_autograd,
                    "segments_per_s": batch / t_autograd,
                },
                "eager_no_grad": {
                    "elapsed_s": t_no_grad,
                    "segments_per_s": batch / t_no_grad,
                    "speedup_vs_autograd": t_autograd / t_no_grad,
                },
                "compiled": {
                    "elapsed_s": t_compiled,
                    "segments_per_s": batch / t_compiled,
                    "speedup_vs_autograd": t_autograd / t_compiled,
                    "speedup_vs_no_grad": t_no_grad / t_compiled,
                    "max_abs_diff_vs_eager": diff,
                },
            }
        )

    memory_plan: Optional[Dict[str, Any]] = None
    op_profile: List[Dict[str, Any]] = []
    if plan is not None:
        stats = plan.stats()
        memory_plan = {
            "arena_bytes": stats["arena_bytes"],
            "planned_bytes": stats["planned_bytes"],
            "planned_slots": stats["planned_slots"],
            "savings_ratio": (
                1.0 - stats["planned_bytes"] / stats["arena_bytes"]
                if stats["arena_bytes"] else 0.0
            ),
            "planned_lt_arena": (
                stats["planned_bytes"] < stats["arena_bytes"]
            ),
        }
        profile_input = regressor.normalize_inputs(
            rng.normal(
                size=(
                    max(batch_sizes), dsp.segment_frames,
                    dsp.doppler_bins, dsp.range_bins,
                    dsp.angle_bins_total,
                )
            ).astype(np.float32)
        )
        op_profile = plan.profile(profile_input)[:10]

    return {
        "smoke": smoke,
        "repeats": repeats,
        "seed": seed,
        "tolerance": tolerance,
        "max_abs_diff": worst_diff,
        "within_tolerance": worst_diff <= tolerance,
        "plan": plan.stats() if plan is not None else None,
        "memory_plan": memory_plan,
        "op_profile": op_profile,
        "batches": batches,
    }


def print_model_report(summary: Dict[str, Any]) -> None:
    """Human-readable one-screen report of a model bench summary."""
    for bench in summary["batches"]:
        batch = bench["batch_size"]
        autograd = bench["eager_autograd"]
        no_grad = bench["eager_no_grad"]
        compiled = bench["compiled"]
        print(
            f"model forward (B={batch}): autograd "
            f"{autograd['elapsed_s'] * 1e3:7.1f} ms | no_grad "
            f"{no_grad['elapsed_s'] * 1e3:7.1f} ms "
            f"({no_grad['speedup_vs_autograd']:.2f}x) | compiled "
            f"{compiled['elapsed_s'] * 1e3:7.1f} ms "
            f"({compiled['speedup_vs_autograd']:.2f}x)"
        )
    plan = summary.get("plan")
    if plan is not None:
        print(
            f"plan: {plan['ops']} ops over {plan['params']} params, "
            f"arena {plan['arena_bytes'] / 1e6:.1f} MB in "
            f"{plan['arena_buffers']} buffers"
        )
    memory = summary.get("memory_plan")
    if memory is not None:
        print(
            f"memory plan: {memory['planned_bytes'] / 1e6:.1f} MB in "
            f"{memory['planned_slots']} slots vs "
            f"{memory['arena_bytes'] / 1e6:.1f} MB arena "
            f"({memory['savings_ratio'] * 100:.0f}% saved)"
        )
    profile = summary.get("op_profile") or []
    if profile:
        print("top ops:")
        for row in profile[:5]:
            print(
                f"  {row['op']:<24s} op{row['op_id']:<4d} "
                f"{row['median_s'] * 1e3:8.2f} ms "
                f"({row['share'] * 100:5.1f}%)"
            )


__all__ = [
    "bench_configs",
    "print_model_report",
    "run_model_bench",
]
