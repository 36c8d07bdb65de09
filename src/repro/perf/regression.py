"""Bench-regression guard: compare a fresh benchmark run against the
committed ``BENCH_*.json`` baselines.

CI runs the smoke benchmarks on whatever shared runner it gets, so raw
wall-clock rates are not comparable to the committed numbers. The guard
therefore checks two kinds of signal that *are* portable:

* **ratios** -- speedup-vs-reference columns (vectorised over loop,
  compiled over eager, N workers over 1). These are computed on the
  same host within one run, so a real regression (a fast path silently
  falling back to the slow one) shows up no matter how slow the runner
  is. A fresh ratio must stay within ``tolerance`` (relative) of the
  committed one.
* **invariants** -- correctness booleans and zero-loss counters
  (``within_tolerance``, ``mask_identical``,
  ``lost_clean_frames == 0``). These must hold in the FRESH run
  outright; the committed value only documents that they ever held.

:func:`compare_bench` dispatches on the benchmark's shape (pipeline /
model / gateway), returns a row-per-check report, and never raises on a
regression -- callers (``mmhand bench-compare``) turn ``ok`` into an
exit code.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.errors import ReproError

DEFAULT_TOLERANCE = 0.5


def _dig(mapping: Dict[str, Any], path: str) -> Optional[Any]:
    node: Any = mapping
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


class _Report:
    def __init__(
        self,
        benchmark: str,
        tolerance: float,
        scale_mismatch: bool = False,
    ) -> None:
        self.benchmark = benchmark
        self.tolerance = tolerance
        self.scale_mismatch = scale_mismatch
        self.checks: List[Dict[str, Any]] = []

    def ratio(
        self, name: str, fresh: Optional[Any], committed: Optional[Any]
    ) -> None:
        """Fresh ratio must not fall more than ``tolerance`` below the
        committed ratio. Missing on either side is a skip, not a fail:
        smoke runs omit some sections and old baselines predate new
        columns. When one run is smoke and the other is not, the two
        were measured at different problem sizes and size-dependent
        speedups are incomparable; the floor then relaxes to 1.0 --
        the fast path must still beat its reference, which is exactly
        the "did it silently fall back" signal the guard exists for."""
        if fresh is None or committed is None:
            self.checks.append({
                "name": name, "kind": "ratio", "ok": True,
                "skipped": True, "fresh": fresh, "committed": committed,
            })
            return
        floor = float(committed) * (1.0 - self.tolerance)
        if self.scale_mismatch:
            floor = min(floor, 1.0)
        self.checks.append({
            "name": name, "kind": "ratio",
            "ok": float(fresh) >= floor, "skipped": False,
            "fresh": float(fresh), "committed": float(committed),
            "floor": floor,
        })

    def invariant(
        self, name: str, fresh: Optional[Any], expect: Any = True
    ) -> None:
        """The fresh run must satisfy the invariant outright."""
        self.checks.append({
            "name": name, "kind": "invariant",
            "ok": fresh == expect, "skipped": False,
            "fresh": fresh, "committed": expect,
        })

    def result(self) -> Dict[str, Any]:
        failed = [c for c in self.checks if not c["ok"]]
        return {
            "benchmark": self.benchmark,
            "tolerance": self.tolerance,
            "checks": self.checks,
            "failed": len(failed),
            "skipped": sum(1 for c in self.checks if c.get("skipped")),
            "ok": not failed,
        }


def _kind_of(summary: Dict[str, Any]) -> str:
    if summary.get("benchmark") == "gateway_serving":
        return "gateway_serving"
    if summary.get("benchmark") == "netfront_serving":
        return "netfront_serving"
    if summary.get("benchmark") == "campaign_training":
        return "campaign_training"
    if "cube_build" in summary:
        return "pipeline"
    if "within_tolerance" in summary:
        return "model"
    raise ReproError(
        "unrecognised benchmark summary: expected a BENCH_pipeline / "
        "BENCH_model / BENCH_serving / BENCH_training shape, got keys "
        f"{sorted(summary)[:8]}"
    )


def _compare_pipeline(
    fresh: Dict[str, Any], committed: Dict[str, Any], report: _Report
) -> None:
    for name in (
        "cube_build.batched_exact.speedup",
        "cube_build.batched_fast.speedup",
        "simulator.batched.speedup",
        "cfar.vectorized.speedup",
        "end_to_end.batched_fast.speedup",
    ):
        report.ratio(name, _dig(fresh, name), _dig(committed, name))
    report.invariant(
        "cfar.vectorized.mask_identical",
        _dig(fresh, "cfar.vectorized.mask_identical"),
    )
    diff = _dig(fresh, "cube_build.batched_exact.max_abs_diff_vs_reference")
    report.invariant(
        "cube_build.batched_exact.max_abs_diff_vs_reference<=1e-6",
        diff is not None and float(diff) <= 1e-6,
    )


def _compare_model(
    fresh: Dict[str, Any], committed: Dict[str, Any], report: _Report
) -> None:
    report.invariant(
        "within_tolerance", fresh.get("within_tolerance")
    )
    report.invariant(
        "memory_plan.planned_lt_arena",
        _dig(fresh, "memory_plan.planned_lt_arena"),
    )

    def best(summary: Dict[str, Any], column: str) -> Optional[float]:
        values = [
            _dig(row, column)
            for row in summary.get("batches", [])
            if isinstance(row, dict)
        ]
        values = [float(v) for v in values if v is not None]
        return max(values) if values else None

    for column in (
        "compiled.speedup_vs_autograd",
        "compiled.speedup_vs_no_grad",
    ):
        report.ratio(
            f"batches.max.{column}",
            best(fresh, column), best(committed, column),
        )


def _compare_gateway(
    fresh: Dict[str, Any], committed: Dict[str, Any], report: _Report
) -> None:
    report.invariant(
        "lost_clean_frames", fresh.get("lost_clean_frames"), expect=0
    )
    for row in fresh.get("rows", []):
        report.invariant(
            f"rows[workers={row.get('workers')}].worker_restarts",
            row.get("worker_restarts"), expect=0,
        )
    report.ratio(
        "speedup_max_vs_1_worker",
        fresh.get("speedup_max_vs_1_worker"),
        committed.get("speedup_max_vs_1_worker"),
    )


def _compare_netfront(
    fresh: Dict[str, Any], committed: Dict[str, Any], report: _Report
) -> None:
    """Netfront serving checks.

    The latency percentiles (connection setup p95, frame round-trip
    p95) are not portable across runners, so they gate only on sanity
    (present and positive -- the bench actually measured them); the
    robustness counters are the hard invariants: a clean loopback run
    must lose nothing and damage nothing.
    """
    for name in (
        "invariants.lost_clean_frames",
        "invariants.worker_restarts",
        "invariants.poses_shed",
        "invariants.frames_rejected",
        "invariants.client_errors",
    ):
        report.invariant(name, _dig(fresh, name), expect=0)
    for name in (
        "connection_setup.p95_ms",
        "round_trip.p95_ms",
    ):
        value = _dig(fresh, name)
        report.invariant(
            f"{name}>0", value is not None and float(value) > 0.0
        )
    if "fuzz" in fresh:
        report.invariant(
            "fuzz.protocol_errors>0",
            float(_dig(fresh, "fuzz.protocol_errors") or 0) > 0,
        )
    # Throughput shape: poses per clean frame is host-independent
    # (every frame past each session's window fill returns a pose).
    fresh_ratio = None
    committed_ratio = None
    if fresh.get("frames_sent"):
        fresh_ratio = (
            fresh.get("poses_received", 0) / fresh["frames_sent"]
        )
    if committed.get("frames_sent"):
        committed_ratio = (
            committed.get("poses_received", 0) / committed["frames_sent"]
        )
    report.ratio(
        "poses_per_clean_frame", fresh_ratio, committed_ratio
    )


def _compare_campaign(
    fresh: Dict[str, Any], committed: Dict[str, Any], report: _Report
) -> None:
    report.invariant(
        "training.losses_bit_identical",
        _dig(fresh, "training.losses_bit_identical"),
    )
    report.invariant(
        "generation.worker_invariant",
        _dig(fresh, "generation.worker_invariant"),
    )
    overlap = _dig(fresh, "prefetch.overlap_ratio")
    report.invariant(
        "prefetch.overlap_ratio_in_[0,1]",
        overlap is not None and 0.0 <= float(overlap) <= 1.0,
    )
    # Parallel generation must beat serial whenever the host can
    # actually parallelise; the committed baseline from a 1-core dev
    # box reads ~1x, so this is a fresh-run invariant, not a ratio.
    cpu_count = fresh.get("cpu_count")
    speedup = _dig(fresh, "generation.speedup")
    if isinstance(cpu_count, int) and cpu_count > 1:
        report.invariant(
            "generation.speedup>1_on_multicore",
            speedup is not None and float(speedup) > 1.0,
        )
    report.ratio(
        "generation.speedup",
        speedup, _dig(committed, "generation.speedup"),
    )
    report.ratio(
        "training.speedup",
        _dig(fresh, "training.speedup"),
        _dig(committed, "training.speedup"),
    )


def compare_bench(
    fresh: Dict[str, Any],
    committed: Dict[str, Any],
    tolerance: float = DEFAULT_TOLERANCE,
) -> Dict[str, Any]:
    """Compare a fresh benchmark summary against a committed baseline.

    Both summaries must be the same benchmark type; ``tolerance`` is
    the relative slack on ratio checks (0.5 = a fresh speedup may be up
    to 50% below the committed one before failing -- generous because
    CI runners vary wildly in core count and contention).
    """
    if not 0.0 <= tolerance < 1.0:
        raise ReproError(
            f"tolerance must be in [0, 1), got {tolerance}"
        )
    fresh_kind = _kind_of(fresh)
    committed_kind = _kind_of(committed)
    if (
        fresh_kind == "netfront_serving"
        and committed_kind == "gateway_serving"
        and isinstance(committed.get("netfront"), dict)
    ):
        # The netfront baseline is committed as a section inside
        # BENCH_serving.json (one serving baseline file); unwrap it.
        committed = committed["netfront"]
        committed_kind = _kind_of(committed)
    if fresh_kind != committed_kind:
        raise ReproError(
            f"benchmark type mismatch: fresh is {fresh_kind!r}, "
            f"committed is {committed_kind!r}"
        )
    report = _Report(
        fresh_kind, tolerance,
        scale_mismatch=(
            bool(fresh.get("smoke")) != bool(committed.get("smoke"))
        ),
    )
    if fresh_kind == "pipeline":
        _compare_pipeline(fresh, committed, report)
    elif fresh_kind == "model":
        _compare_model(fresh, committed, report)
    elif fresh_kind == "campaign_training":
        _compare_campaign(fresh, committed, report)
    elif fresh_kind == "netfront_serving":
        _compare_netfront(fresh, committed, report)
    else:
        _compare_gateway(fresh, committed, report)
    return report.result()


def print_comparison(result: Dict[str, Any]) -> None:
    """Human-readable table of a :func:`compare_bench` result."""
    print(
        f"bench-compare [{result['benchmark']}] "
        f"tolerance={result['tolerance']:.0%}: "
        f"{len(result['checks'])} checks, "
        f"{result['failed']} failed, {result['skipped']} skipped"
    )
    width = max(len(c["name"]) for c in result["checks"])
    for check in result["checks"]:
        if check.get("skipped"):
            status = "SKIP"
        else:
            status = "ok" if check["ok"] else "FAIL"
        line = f"  {check['name']:<{width}s} {status:>4s}"
        if check["kind"] == "ratio" and not check.get("skipped"):
            line += (
                f"  fresh {check['fresh']:.3f} vs committed "
                f"{check['committed']:.3f} (floor {check['floor']:.3f})"
            )
        else:
            line += f"  fresh {check['fresh']!r}"
        print(line)
