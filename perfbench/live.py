"""The live workloads: radar frames over TCP to `mmhand serve`.

Untraced runs measure the real deployment from outside: the server is
``python -m repro.cli serve --listen 127.0.0.1:0 --workers 2`` in a
subprocess with the CLI's other defaults (so its model seed is 0), fed
by :mod:`perfbench.loadgen`. Traced runs compose the same stack in this
process from public constructors (``Gateway``, ``start_in_thread``)
and add the per-layer readings of :mod:`perfbench.layers`.
"""

from __future__ import annotations

import asyncio
import os
import re
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

import numpy as np

from repro.config import DspConfig, ModelConfig, RadarConfig
from repro.errors import QueueFullError
from repro.eval.metrics import mpjpe
from repro.netfront import NetFrontClient

from perfbench import layers, oracle
from perfbench.common import (
    FRAME_DEADLINE_MS,
    OUT_DIR,
    ROOT,
    BenchInvalid,
    SpanRecorder,
    median,
    metric,
    quantile,
    tree_peak_rss_mb,
    descendants,
)
from perfbench.inputs import (
    FRAME_PERIOD_S,
    SERVER_SEED,
    WINDOW,
    Stream,
    attach_references,
    cube_pool,
    live_cube_streams,
    live_raw_stream,
    reference_regressor,
    simulate_captures,
)
from perfbench.loadgen import Connection, StreamState, drive

_clock = time.perf_counter

SERVER_CMD = [
    sys.executable, "-m", "repro.cli", "serve",
    "--listen", "127.0.0.1:0", "--workers", "2",
]
SETUPS = 3
WARMUP_S = 5.0
END_WAIT_S = 5.0
# Validity: the generator must keep its schedule, and the backlog of
# unanswered frames must not grow by more than this many frame
# periods' worth of load across the measured window.
MAX_LAG_P99_MS = 25.0
MAX_BACKLOG_GROWTH_PERIODS = 2.0
PROBE_EVERY_S = 0.1


# -- inputs -----------------------------------------------------------------
def build_inputs(workload: str, seed: int, seconds: float):
    """Streams for the load, one 4-frame stream per setup probe, and
    the raw frames behind them (replayed by the traced run)."""
    duration = WARMUP_S + seconds
    if workload == "live_raw":
        streams = [live_raw_stream(seed, duration)]
        raw_setup, truth_setup = simulate_captures(seed + 7919, SETUPS, WINDOW)
        setup = [
            Stream(kind="raw", frames=raw_setup[k], times=np.zeros(WINDOW),
                   first_id=0, truth=truth_setup[k], conn=0, open_time=0.0)
            for k in range(SETUPS)
        ]
        raw_frames = streams[0].frames
    else:
        streams, raw_frames = live_cube_streams(seed, duration)
        pool, truth, _ = cube_pool(seed + 7919, captures=1, frames_each=SETUPS * WINDOW)
        setup = [
            Stream(kind="cube", frames=pool[k * WINDOW:(k + 1) * WINDOW],
                   times=np.zeros(WINDOW), first_id=0,
                   truth=truth[k * WINDOW:(k + 1) * WINDOW], conn=0,
                   open_time=0.0)
            for k in range(SETUPS)
        ]
    # Frame-less sessions opened (and closed) during the measured
    # window, alternating connections: session-open latency under load.
    # Each opens at a seeded point of its slot, so the probes sample
    # every phase against the frame schedule rather than one per seed.
    template = streams[0]
    slots = np.arange(WARMUP_S, duration, PROBE_EVERY_S)
    jitter = np.random.default_rng([seed, 4]).uniform(0.0, PROBE_EVERY_S, len(slots))
    for k, t in enumerate(slots + jitter):
        streams.append(Stream(
            kind=template.kind, frames=template.frames[:0], times=np.zeros(0),
            first_id=0, truth=template.truth[:0], conn=(k + 1) % 2,
            open_time=float(t),
        ))
    attach_references(streams + setup, reference_regressor())
    return streams, setup, raw_frames


# -- the server subprocess --------------------------------------------------
class ServerProcess:
    """`mmhand serve --listen` in its own process group."""

    def __init__(self, tag: str) -> None:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        self.log_path = OUT_DIR / f"server-{tag}.log"
        env = dict(os.environ)
        src = str(ROOT / "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self.started = _clock()
        self._log = open(self.log_path, "w")
        self.proc = subprocess.Popen(
            SERVER_CMD, cwd=ROOT, env=env, stdout=self._log,
            stderr=subprocess.STDOUT, start_new_session=True,
        )
        self.known_pids: Dict[int, str] = {}  # pid -> its start time
        self.shm_names: set = set()
        try:
            self.host, self.port = self._await_listening(60.0)
        except BaseException:
            self.reap()
            raise

    def _await_listening(self, timeout_s: float):
        pattern = re.compile(r"netfront listening on ([\d.]+):(\d+)")
        deadline = _clock() + timeout_s
        while _clock() < deadline:
            if self.proc.poll() is not None:
                raise BenchInvalid(
                    f"server exited early ({self.proc.returncode}); "
                    f"see {self.log_path}"
                )
            with open(self.log_path) as fh:
                found = pattern.search(fh.read())
            if found:
                return found.group(1), int(found.group(2))
            time.sleep(0.01)
        raise BenchInvalid("server did not start listening in time")

    def observe(self) -> None:
        """Remember the worker pids and shared-memory segments in use."""
        for pid in [self.proc.pid, *descendants(self.proc.pid)]:
            started = _start_time(pid)
            if started:
                self.known_pids.setdefault(pid, started)
            try:
                with open(f"/proc/{pid}/maps") as fh:
                    for line in fh:
                        if "/dev/shm/" in line:
                            self.shm_names.add(line.split("/dev/shm/")[1].split()[0])
            except OSError:
                continue

    def peak_rss_mb(self) -> float:
        return tree_peak_rss_mb(self.proc.pid)

    def terminate(self, timeout_s: float = 60.0) -> Optional[int]:
        """SIGTERM (graceful drain); returns the exit code."""
        self.observe()
        try:
            self.proc.send_signal(signal.SIGTERM)
            return self.proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            return None
        finally:
            self.reap()

    def reap(self) -> Dict[str, int]:
        """Kill anything left of the process tree and unlink its
        shared-memory segments; report what had leaked."""
        leaked = {"processes": 0, "shm_segments": 0}
        if self.proc.poll() is None:
            self.observe()
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except OSError:
                pass
            self.proc.wait(timeout=30)
        children = {
            pid: started for pid, started in self.known_pids.items()
            if pid != self.proc.pid
        }

        def still_ours(pid: int) -> bool:
            return _start_time(pid) == children[pid]

        deadline = _clock() + 10.0
        while _clock() < deadline and any(map(still_ours, children)):
            time.sleep(0.02)
        for pid in filter(still_ours, children):
            leaked["processes"] += 1
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        for name in self.shm_names:
            path = f"/dev/shm/{name}"
            if os.path.exists(path):
                leaked["shm_segments"] += 1
                try:
                    os.unlink(path)
                except OSError:
                    pass
        if not self._log.closed:
            self._log.close()
        self.leaked = leaked
        return leaked


def _start_time(pid: int) -> str:
    """Start time of a live, non-zombie ``pid`` ("" otherwise); with the
    pid it identifies a process even if the pid is later reused."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return ""
    return "" if fields[0] == "Z" else fields[19]


def _pose_ok(stream: Stream, pose) -> bool:
    """The one pose of a 4-frame setup stream is right."""
    return pose.frame_id == WINDOW - 1 and bool(oracle.correct_mask(
        stream.refs[-1:], np.zeros(1), pose.joints[None]
    )[0])


def first_pose(host: str, port: int, stream: Stream):
    """Open a session, send one window, return its pose."""
    client = NetFrontClient.connect(host, port, timeout_s=60.0)
    try:
        session = client.open_session()
        send = client.send_raw if stream.kind == "raw" else client.send_cube
        for i in range(WINDOW):
            send(session, stream.frames[i], frame_id=i)
        poses = client.poll_poses(expect=1, timeout_s=60.0)
        client.close_session(session)
    finally:
        client.close()
    return poses[0]


def setup_probe(stream: Stream, tag: str, keep: bool):
    """Start a server and time it to its first correct pose."""
    server = ServerProcess(tag)
    try:
        pose = first_pose(server.host, server.port, stream)
        elapsed = _clock() - server.started
        server.observe()
    except BaseException:
        server.reap()
        raise
    good = _pose_ok(stream, pose)
    if not keep:
        code = server.terminate()
        good = good and code == 0 and not any(server.leaked.values())
    return server, elapsed, bool(good)


# -- the measured load ------------------------------------------------------
def run_load(host: str, port: int, streams: List[Stream], spans: SpanRecorder):
    states = [StreamState(s) for s in streams]
    per_conn = [[st for st in states if st.stream.conn == c] for c in (0, 1)]
    conns = [Connection(host, port, group, 0.0, spans) for group in per_conn]
    origin = _clock() + 0.2
    for conn in conns:
        conn.origin = origin
    drive(conns, end_wait_s=END_WAIT_S)
    return states, conns, origin


def backlog_growth(states, origin: float, lo: float, hi: float) -> float:
    """Change of the unanswered-frame count across [lo, hi), comparing
    the medians of its first and last fifths (sampled every 50 ms)."""
    sent, done = [], []
    for st in states:
        bearing = np.arange(st.stream.n) >= WINDOW - 1
        sent.append(st.sent_at[bearing])
        done.append(st.arrived_at[bearing])
    sent = np.concatenate(sent) - origin
    done = np.concatenate(done) - origin
    done = np.where(np.isnan(done), np.inf, done)
    grid = np.arange(lo, hi, 0.05)
    backlog = np.array([
        np.sum(sent <= t) - np.sum(done <= t) for t in grid
    ])
    fifth = max(1, len(grid) // 5)
    return float(np.median(backlog[-fifth:]) - np.median(backlog[:fifth]))


def live_metrics(states, conns, origin, lo: float, hi: float):
    """End-to-end metrics over frames scheduled in [lo, hi)."""
    seconds = hi - lo
    latencies, correct, bearing, sends, arrivals = [], 0, 0, [], []
    served, truth = [], []
    for st in states:
        s = st.stream
        in_window = (s.times >= lo) & (s.times < hi)
        sends.extend(st.sent_at[in_window & ~np.isnan(st.sent_at)])
        pose_frames = in_window & (np.arange(s.n) >= WINDOW - 1)
        ok = oracle.correct_mask(s.refs, st.arrived_at, st.poses) & pose_frames
        bearing += int(np.sum(pose_frames))
        correct += int(np.sum(ok))
        latencies.extend((st.arrived_at[ok] - origin - s.times[ok]) * 1e3)
        arrivals.extend(st.arrived_at[ok])
        served.append(st.poses[ok])
        truth.append(s.truth[ok])
    if bearing == 0 or len(latencies) < 2:
        raise BenchInvalid("no pose-bearing frames in the measured window")
    latencies = np.asarray(latencies)
    lags = np.concatenate([np.asarray(c.lags) for c in conns]) * 1e3
    opens = [
        (st.open_done - st.open_sent) * 1e3 for st in states
        if lo <= st.stream.open_time < hi and not np.isnan(st.open_done)
    ]
    good = np.sum(latencies <= FRAME_DEADLINE_MS)
    m = {
        "frame_latency_p50_ms": metric(median(latencies), "ms"),
        "goodput_ratio": metric(good / bearing, "ratio"),
        # Rates over the span the events actually took, as measured.
        "poses_per_s": metric(
            (correct - 1) / (max(arrivals) - min(arrivals)), "1/s"
        ),
        "session_open_p50_ms": metric(median(opens), "ms"),
        "samples_per_s": metric(
            (len(sends) - 1) / (max(sends) - min(sends)), "1/s"
        ),
        "mpjpe_mm": metric(mpjpe(np.concatenate(served), np.concatenate(truth)), "mm"),
    }
    info = {
        # Too few samples per run for a steady p99 at 20 frames/s; kept
        # in the record and reported by the traced run.
        "frame_latency_p99_ms": metric(quantile(latencies, 0.99), "ms"),
        "latency_samples": int(len(latencies)),
        "pose_bearing_frames": bearing,
        "session_open_samples": len(opens),
        "loadgen_lag_p99_ms": quantile(lags, 0.99),
        "loadgen_frames_sent": int(sum(np.sum(~np.isnan(st.sent_at)) for st in states)),
        "backlog_growth_frames": backlog_growth(states, origin, lo, hi),
        "offered_frames_per_s": len(sends) / seconds,
        "latency_ms": np.round(latencies, 2).tolist(),
        "lag_ms": np.round(lags, 2).tolist(),
    }
    return m, info


def check_validity(info: Dict[str, Any], offered_per_s: float) -> List[str]:
    problems = []
    if info["loadgen_lag_p99_ms"] > MAX_LAG_P99_MS:
        problems.append(
            f"generator fell behind its schedule (lag p99 "
            f"{info['loadgen_lag_p99_ms']:.1f} ms)"
        )
    limit = MAX_BACKLOG_GROWTH_PERIODS * offered_per_s * FRAME_PERIOD_S
    if info["backlog_growth_frames"] > limit:
        problems.append(
            f"server backlog grew by {info['backlog_growth_frames']:.0f} "
            f"frames over the window (limit {limit:.0f})"
        )
    return problems


def judge_all(states, setup_streams, setup_poses_ok, conns):
    verdicts = [
        oracle.judge(st.stream.refs, st.arrived_at, st.poses, st.duplicates)
        for st in states
    ]
    total = oracle.combine(verdicts)
    total.stray += sum(c.stray_poses for c in conns)
    errors = [e for c in conns for e in c.errors]
    opens = len([st for st in states])
    failed_opens = sum(1 for st in states if st.session_id is None)
    self_ok = oracle.self_check([
        (st.stream.refs, st.arrived_at, st.poses) for st in states
    ])
    attempted = total.attempted + opens + len(setup_streams)
    failed = total.failed + failed_opens + len(errors) + sum(
        1 for ok in setup_poses_ok if not ok
    )
    return total, attempted, failed, errors, self_ok


# -- untraced run -----------------------------------------------------------
def run_untraced(workload: str, seed: int, seconds: float):
    phases = {"start": _clock()}
    streams, setup_streams, _ = build_inputs(workload, seed, seconds)
    phases["inputs"] = _clock()
    setup_times, setup_ok = [], []
    server = None
    try:
        for k in range(SETUPS):
            keep = k == SETUPS - 1
            server, elapsed, good = setup_probe(
                setup_streams[k], f"{workload}-{seed}-{k}", keep
            )
            setup_times.append(elapsed)
            setup_ok.append(good)
        phases["setups"] = _clock()
        states, conns, origin = run_load(server.host, server.port, streams, SpanRecorder(False))
        phases["load"] = _clock()
        server.observe()
        peak_rss = server.peak_rss_mb()
        code = server.terminate()
        goodbyes = [c.await_goodbye(30.0) for c in conns]
        for conn in conns:
            conn.close()
    finally:
        if server is not None:
            server.reap()
    phases["teardown"] = _clock()
    m, info = live_metrics(states, conns, origin, WARMUP_S, WARMUP_S + seconds)
    m["setup_s"] = metric(median(setup_times), "s")
    m["peak_rss_mb"] = metric(peak_rss, "MB")
    total, attempted, failed, errors, self_ok = judge_all(
        states, setup_streams, setup_ok, conns
    )
    drain = goodbyes[0] or goodbyes[1] or {}
    problems = check_validity(info, info["offered_frames_per_s"])
    if code != 0:
        problems.append(f"server exit code {code} after SIGTERM")
    if drain.get("lost_clean_frames", 1) != 0 or drain.get("worker_restarts", 1) != 0:
        problems.append(f"drain report not clean: {drain}")
    if any(server.leaked.values()):
        problems.append(f"leaked after shutdown: {server.leaked}")
    if not self_ok:
        problems.append("oracle self-check failed")
    info.update({
        "setup_s_samples": setup_times,
        "oracle": {
            "attempted": total.attempted, "missing": total.missing,
            "wrong": total.wrong, "duplicates": total.duplicates,
            "stray": total.stray, "max_abs_error": total.max_error,
            "errors": errors[:10], "self_check": self_ok,
        },
        "drain": drain,
        "server_exit_code": code,
        "phase_s": _phase_durations(phases),
    })
    return m, attempted, failed, problems, info


def _phase_durations(stamps: Dict[str, float]) -> Dict[str, float]:
    names = list(stamps)
    return {
        name: round(stamps[name] - stamps[prev], 3)
        for prev, name in zip(names, names[1:])
    }


# -- traced run -------------------------------------------------------------
class TimedBackend:
    """The gateway as the netfront server sees it, with the server's
    calls into ``submit``/``submit_cube``/``pump`` timed."""

    def __init__(self, gateway, spans: SpanRecorder) -> None:
        self._gateway = gateway
        self._spans = spans
        self.pump_busy_s = 0.0
        self.pump_calls = 0
        self.backpressure_retries = 0
        self.occupancy_max = 0
        self._next_sample = 0.0

    def __getattr__(self, name):
        return getattr(self._gateway, name)

    def _timed_submit(self, fn, session_id, frame):
        t0 = _clock()
        try:
            return fn(session_id, frame)
        except QueueFullError:
            self.backpressure_retries += 1
            raise
        finally:
            self._spans.add("gateway.submit", t0, _clock(), session_id)

    def submit(self, session_id, frame):
        return self._timed_submit(self._gateway.submit, session_id, frame)

    def submit_cube(self, session_id, frame):
        return self._timed_submit(self._gateway.submit_cube, session_id, frame)

    def pump(self, check_liveness: bool = True):
        t0 = _clock()
        results = self._gateway.pump(check_liveness)
        t1 = _clock()
        if results:
            self.pump_busy_s += t1 - t0
            self.pump_calls += 1
            self._spans.add("gateway.pump", t0, t1)
        if t1 >= self._next_sample:
            self._next_sample = t1 + 0.05
            workers = self._gateway.stats(refresh=False)["workers"]
            for entry in workers.values():
                ring = entry.get("request_ring") or {}
                self.occupancy_max = max(self.occupancy_max, ring.get("occupancy", 0))
        return results


def traced_stack(streams, raw_frames, seed, lo, hi, spans, setup_stream=None):
    """Serve ``streams`` through the stack composed in this process with
    `mmhand serve --listen` defaults, then read every layer.

    Returns the per-layer metrics (netfront, gateway, serving, dsp,
    model), the oracle counts, problems and run details.
    """
    from repro.gateway import Gateway, GatewayConfig
    from repro.netfront import NetFrontConfig, start_in_thread
    from repro.serving import ServingConfig

    config = GatewayConfig(
        workers=2,
        serving=ServingConfig(
            max_batch_size=8, queue_capacity=64, policy="drop-oldest",
            enable_cache=True, hop_frames=1, shard_threads=0,
            precision="float32",
        ),
        seed=SERVER_SEED,
    )
    gateway = Gateway(RadarConfig(), DspConfig(), ModelConfig(), config)
    backend = TimedBackend(gateway, spans)
    handle = start_in_thread(backend, NetFrontConfig(host="127.0.0.1", port=0))
    setup, setup_ok = [], []
    try:
        if setup_stream is not None:
            pose = first_pose(handle.host, handle.port, setup_stream)
            setup, setup_ok = [setup_stream], [_pose_ok(setup_stream, pose)]
        t_run = _clock()
        states, conns, origin = run_load(handle.host, handle.port, streams, spans)
        run_wall = _clock() - t_run
        stats = asyncio.run_coroutine_threadsafe(
            _gateway_stats(gateway), handle.loop
        ).result(timeout=30.0)
        net = handle.stats()
        drain = handle.stop()
        for conn in conns:
            conn.close()
    finally:
        gateway.shutdown()
    e2e, info = live_metrics(states, conns, origin, lo, hi)
    total, attempted, failed, errors, self_ok = judge_all(
        states, setup, setup_ok, conns
    )
    problems = []
    if not self_ok:
        problems.append("oracle self-check failed")
    if drain.get("lost_clean_frames", 1) != 0 or drain.get("worker_restarts", 1) != 0:
        problems.append(f"drain report not clean: {drain}")
    per_layer = layers.live_layers(spans, conns, backend, stats, net, info, run_wall)
    per_layer.update(layers.dsp_layers(raw_frames))
    items = layers.stream_windows(streams)
    windows = np.stack([w for w, _, _ in items]).astype(np.float32)
    batch_mean = per_layer["serving.batch_size_mean"]["value"]
    per_layer.update(layers.model_layers(windows, batch_mean))
    isolated = per_layer["model.forward_ms.bN"]["value"] / max(1, int(round(batch_mean)))
    per_layer["gateway.forward_contention_ratio"] = metric(
        per_layer.pop("gateway.forward_per_segment_ms") / isolated, "ratio"
    )
    replay = layers.serving_replay(items)
    if replay["hits"] or per_layer["serving.cache_hit_ratio"]["value"] != 0.0:
        problems.append("segment cache served a window: inputs repeated")
    if replay["wrong"]:
        problems.append(f"MicroBatcher replay disagreed on {replay['wrong']} windows")
    per_layer["trace.frame_latency_p50_ms"] = e2e["frame_latency_p50_ms"]
    per_layer["trace.frame_latency_p99_ms"] = info.pop("frame_latency_p99_ms")
    info.update({
        "run_wall_s": run_wall, "drain": drain, "errors": errors[:10],
        "replay": replay, "items": items,
    })
    return per_layer, attempted, failed, problems, info


def run_traced(workload: str, seed: int, seconds: float):
    streams, setup_streams, raw_frames = build_inputs(workload, seed, seconds)
    spans = SpanRecorder(True)
    per_layer, attempted, failed, problems, info = traced_stack(
        streams, raw_frames, seed, WARMUP_S, WARMUP_S + seconds, spans,
        setup_stream=setup_streams[0],
    )
    per_layer.update(layers.trace_overhead(spans, info["run_wall_s"]))
    items = info.pop("items")
    rng = np.random.default_rng([seed, 5])
    pick = rng.choice(len(items), size=min(64, len(items)), replace=False)
    windows = np.stack([items[i][0] for i in pick]).astype(np.float32)
    labels = np.stack([items[i][2] for i in pick])
    _, losses = layers.train_steps(windows, labels, 4, seed, spans)
    if not np.all(np.isfinite(losses)):
        problems.append("non-finite training loss")
    per_layer.update(layers.train_layers(spans))
    per_layer["failed_ratio"] = metric(failed / attempted, "ratio")
    spans.dump(OUT_DIR / f"spans-{workload}-seed{seed}.jsonl")
    return per_layer, attempted, failed, problems, info


async def _gateway_stats(gateway):
    return gateway.stats(refresh=True)


def run(workload: str, seed: int, seconds: float, trace: bool):
    if trace:
        return run_traced(workload, seed, seconds)
    return run_untraced(workload, seed, seconds)
