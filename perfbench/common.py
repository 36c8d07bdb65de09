"""Shared helpers: quantiles, process memory, provenance, spans, output."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import time
from pathlib import Path
from typing import Any, Dict, List, Sequence

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

FRAME_DEADLINE_MS = 100.0  # two radar frame periods at 20 Hz
ORACLE_TOL = 1e-5  # compiled-vs-eager tolerance (DESIGN.md section 6)


class BenchInvalid(RuntimeError):
    """The run could not produce a valid measurement (not merely slow)."""


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile; ``q`` in [0, 1]."""
    if len(values) == 0:
        raise BenchInvalid("no samples for a quantile")
    return float(np.quantile(np.asarray(values, dtype=np.float64), q))


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def vm_hwm_kb(pid: int) -> int:
    """Peak resident set (VmHWM) of one process in KiB, 0 if gone."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        return 0
    return 0


def descendants(pid: int) -> List[int]:
    """Every live descendant of ``pid`` (children first, breadth-wise)."""
    found: List[int] = []
    frontier = [pid]
    while frontier:
        parent = frontier.pop(0)
        kids: List[int] = []
        try:
            for task in os.listdir(f"/proc/{parent}/task"):
                try:
                    with open(f"/proc/{parent}/task/{task}/children") as fh:
                        kids.extend(int(x) for x in fh.read().split())
                except OSError:
                    continue
        except OSError:
            continue
        found.extend(kids)
        frontier.extend(kids)
    return found


def tree_peak_rss_mb(pid: int) -> float:
    """Summed VmHWM of a process and all its descendants, in MB."""
    total = sum(vm_hwm_kb(p) for p in [pid, *descendants(pid)])
    return total / 1024.0


def source_digest() -> str:
    """sha256 over the package sources (the checkout may not be a git
    repository, so this identifies the code under test either way)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(workload: str, seed: int, seconds: int, trace: bool) -> Dict[str, Any]:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "comparable_across_hosts": False,
    }


class SpanRecorder:
    """In-memory spans around the benchmark's own calls into each layer.

    A span is ``(name, start_s, end_s, key)``; ``key`` names the request
    it served (a session, or ``session#frame``), so spans of one request
    share it. Nothing is written until :meth:`dump`. A disabled
    recorder drops every span.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[tuple] = []

    def add(self, name: str, start: float, end: float, key: str = "") -> None:
        if self.enabled:
            self.spans.append((name, start, end, key))

    def durations(self, name: str) -> List[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    @staticmethod
    def cost_per_span_s(samples: int = 20000) -> float:
        """Measured cost of recording one span, clock reads included."""
        probe = SpanRecorder(True)
        clock = time.perf_counter
        start = clock()
        for _ in range(samples):
            t0 = clock()
            probe.add("probe", t0, clock())
        return (clock() - start) / samples

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, key in self.spans:
                fh.write(json.dumps({
                    "name": name, "start_s": start, "end_s": end, "key": key,
                }) + "\n")


def metric(value: float, unit: str) -> Dict[str, Any]:
    value = float(value)
    if not np.isfinite(value):
        raise BenchInvalid(f"non-finite metric value {value}")
    return {"value": value, "unit": unit}


def write_record(name: str, record: Dict[str, Any]) -> Path:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / name
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, default=float)
    return path
