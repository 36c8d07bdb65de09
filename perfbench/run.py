"""Benchmark of the mmHand socket-to-pose stack and of training.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload live_raw --seed 1 --seconds 10 --trace 0

Workloads: ``live_raw`` and ``live_cube`` drive ``mmhand serve --listen``
over TCP with an open-loop generator; ``train`` runs eager-autograd
training and held-out evaluation in process. ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` a separate traced run's per-layer
metrics. Every output is checked against a reference computed in the
same run. The last line of standard output is the JSON result; a
provenance line and a per-run record under ``.perfbench_out/`` come
before it. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import signal
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("live_raw", "live_cube", "train")
PR_SET_CHILD_SUBREAPER = 36
ORPHAN_GRACE_S = 15.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Set by the supervising process on the run it starts.
    parser.add_argument("--inner", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def supervise(argv) -> int:
    """Run the benchmark in a child and wait for every process it leaves.

    This process becomes a child subreaper, so whatever the run starts
    and leaves behind (the server's workers, multiprocessing's resource
    tracker) is re-parented here instead of to init. After the run has
    exited, each is given ``ORPHAN_GRACE_S`` to end on its own, then
    killed, and every one is waited for before this process exits.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: only the direct child is waited for
    child = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), *argv, "--inner"]
    )
    forward = lambda signum, _frame: child.send_signal(signum)
    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    code = child.wait()
    killed = reap_orphans(ORPHAN_GRACE_S)
    if killed:
        print(f"perfbench: killed {killed} process(es) left by the run",
              file=sys.stderr)
    return code


def reap_orphans(grace_s: float) -> int:
    """Wait for every child of this process, killing those still alive
    after ``grace_s``; returns how many were killed."""
    from perfbench.common import descendants

    deadline = time.monotonic() + grace_s
    killed = set()
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return len(killed)
        if pid:
            continue
        if time.monotonic() > deadline:
            for orphan in descendants(os.getpid()):
                try:
                    os.kill(orphan, signal.SIGKILL)
                    killed.add(orphan)
                except OSError:
                    pass
        time.sleep(0.02)


def declared_mismatch(metrics, trace: bool):
    """Problems if the metrics differ from those BENCHMARK.json declares
    for this mode, by name or unit."""
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in declared}
    got = {name: entry["unit"] for name, entry in metrics.items()}
    if got == units:
        return []
    return [
        f"metric {name!r}: declared {units.get(name)}, reported {got.get(name)}"
        for name in sorted(set(units) | set(got))
        if units.get(name) != got.get(name)
    ]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no package sources under {ROOT / 'src'}; run from "
            "the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    if not args.inner:
        return supervise(argv if argv is not None else sys.argv[1:])
    # A terminated run still unwinds, so its server is reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    from perfbench import common

    record = {"provenance": common.provenance(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )}
    print(json.dumps({"provenance": record["provenance"]}), flush=True)
    try:
        if args.workload == "train":
            from perfbench import train as runner
        else:
            from perfbench import live as runner
        metrics, attempted, failed, problems, info = runner.run(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    except common.BenchInvalid as error:
        print(f"perfbench: invalid run: {error}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 1
    problems.extend(declared_mismatch(metrics, bool(args.trace)))
    record.update({"metrics": metrics, "info": info, "problems": problems})
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    common.write_record(f"{tag}.json", record)
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }), flush=True)
    # A printed result carries its own verdict; a non-zero exit means
    # no result could be produced.
    return 0


if __name__ == "__main__":
    sys.exit(main())
