"""Tests of the network front end (:mod:`repro.netfront`): wire
protocol encode/decode hardening, admission control (limits, auth
lockout, health ladder), live server round trips, the chaos-parity
drill (fuzzer + slow reader + mid-stream disconnect concurrent with
clean clients), graceful drain accounting, idle parking, and the
SIGTERM CLI path."""

import json
import os
import re
import signal
import socket
import struct
import threading
import time
from collections import deque

import numpy as np
import pytest

from conftest import serve_listen, stop_serve
from repro.config import DspConfig, ModelConfig, RadarConfig
from repro.errors import (
    AdmissionRejectedError,
    AuthError,
    NetFrontError,
    ProtocolError,
)
from repro.gateway import Gateway, GatewayConfig
from repro.gateway.loadgen import make_frame_pool
from repro.netfront import (
    AdmissionConfig,
    AdmissionController,
    FrameDecoder,
    HEADER_BYTES,
    NetFrontClient,
    NetFrontConfig,
    ProtocolFuzzer,
    decode_all,
    encode_message,
    reason_name,
    start_in_thread,
)
from repro.netfront.protocol import (
    ERR_AUTH_FAILED,
    ERR_AUTH_LOCKOUT,
    ERR_DRAINING,
    ERR_MAX_CONNECTIONS,
    ERR_MAX_SESSIONS,
    ERR_OVERLOADED,
    MSG_FRAME_CUBE,
    MSG_GOODBYE,
    MSG_HELLO,
    MSG_OPEN,
    MSG_PING,
)
from repro.resilience import HealthState
from repro.serving import ServingConfig

TOKEN = "netfront-test-token"


@pytest.fixture(scope="module")
def configs():
    """Small-but-real stack: every frame does model work."""
    radar = RadarConfig(samples_per_chirp=32, chirp_loops=8)
    dsp = DspConfig(
        range_bins=16, doppler_bins=4, azimuth_bins=8, elevation_bins=8,
        segment_frames=2,
    )
    model = ModelConfig(
        base_channels=4, hourglass_depth=1, num_blocks=1, feature_dim=16,
        lstm_hidden=16,
    )
    return radar, dsp, model


def _gateway(configs, workers=1, seed=7):
    radar, dsp, model = configs
    return Gateway(
        radar, dsp, model,
        GatewayConfig(
            workers=workers, ring_slots=32, seed=seed,
            serving=ServingConfig(
                max_batch_size=8, queue_capacity=32, policy="block"
            ),
        ),
    )


def _net_config(**kwargs):
    kwargs.setdefault("auth_token", TOKEN)
    kwargs.setdefault("idle_timeout_s", 60.0)
    return NetFrontConfig(**kwargs)


# ----------------------------------------------------------------------
# Wire protocol
# ----------------------------------------------------------------------


def test_protocol_roundtrip_all_payload_kinds():
    cube = np.random.default_rng(0).normal(size=(4, 16, 16))
    cases = [
        (MSG_PING, "", 0, None),
        (MSG_HELLO, "", 0, b"raw-bytes-token"),
        (MSG_OPEN, "sess-1", 0, {"hint": "json", "n": 3}),
        (MSG_FRAME_CUBE, "sess-1", 42, cube.astype(np.float32)),
        (MSG_FRAME_CUBE, "sess-1", 43, cube.astype(np.float64)),
        (MSG_FRAME_CUBE, "s", 44,
         (cube * 100).astype(np.int32)),
    ]
    blob = b"".join(
        encode_message(t, session_id=s, frame_id=f, payload=p)
        for t, s, f, p in cases
    )
    messages = decode_all(blob)
    assert len(messages) == len(cases)
    for message, (t, s, f, p) in zip(messages, cases):
        assert message.msg_type == t
        assert message.session_id == s
        assert message.frame_id == f
        if p is None:
            assert message.payload == b""
            assert message.array is None
        elif isinstance(p, bytes):
            assert message.payload == p
        elif isinstance(p, dict):
            assert message.json() == p
        else:
            assert message.array is not None
            assert message.array.dtype == p.dtype
            np.testing.assert_array_equal(message.array, p)


def test_protocol_streaming_decode_handles_any_split():
    frames = [
        encode_message(MSG_PING),
        encode_message(MSG_FRAME_CUBE, session_id="s", frame_id=7,
                       payload=np.arange(24, dtype=np.float32)),
        encode_message(MSG_GOODBYE, payload={"bye": True}),
    ]
    blob = b"".join(frames)
    # Feed in pathological chunk sizes, including byte-at-a-time.
    for chunk in (1, 3, HEADER_BYTES - 1, HEADER_BYTES + 1, 1000):
        decoder = FrameDecoder()
        out = []
        for start in range(0, len(blob), chunk):
            out.extend(decoder.feed(blob[start:start + chunk]))
        assert [m.msg_type for m in out] == [
            MSG_PING, MSG_FRAME_CUBE, MSG_GOODBYE,
        ]
        assert decoder.pending_bytes() == b""
        assert out[1].frame_id == 7


def test_protocol_rejects_corruption():
    good = encode_message(
        MSG_FRAME_CUBE, session_id="s", frame_id=1,
        payload=np.ones(16, dtype=np.float32),
    )

    # CRC: flip one payload bit.
    flipped = bytearray(good)
    flipped[HEADER_BYTES + 5] ^= 0x10
    with pytest.raises(ProtocolError, match="crc"):
        FrameDecoder().feed(bytes(flipped))

    # Bad magic fails fast -- even before a full header arrives.
    with pytest.raises(ProtocolError, match="magic"):
        FrameDecoder().feed(b"HTTP")

    # Unknown version.
    versioned = bytearray(good)
    versioned[4] = 99
    with pytest.raises(ProtocolError, match="version"):
        FrameDecoder().feed(bytes(versioned))

    # Oversized declared payload is rejected from the header alone,
    # before any payload bytes are buffered.
    with pytest.raises(ProtocolError, match="payload"):
        decoder = FrameDecoder(max_payload=1024)
        oversize = bytearray(good)
        struct.pack_into("<I", oversize, HEADER_BYTES - 8, 1 << 30)
        decoder.feed(bytes(oversize[:HEADER_BYTES]))

    # Shape/payload arithmetic mismatch.
    arr = encode_message(
        MSG_FRAME_CUBE, session_id="s", frame_id=1,
        payload=np.ones((2, 3), dtype=np.float32),
    )
    # ndim lives right after the dtype byte; corrupt a shape dim.
    mangled = bytearray(arr)
    # shape dims are 4 little-endian u32 before payload_len
    struct.pack_into("<I", mangled, HEADER_BYTES - 8 - 16, 7)
    with pytest.raises(ProtocolError):
        FrameDecoder().feed(bytes(mangled))


def test_protocol_truncated_message_stays_pending():
    good = encode_message(MSG_HELLO, payload=b"tok")
    decoder = FrameDecoder()
    assert decoder.feed(good[:-1]) == []
    assert len(decoder.pending_bytes()) == len(good) - 1
    out = decoder.feed(good[-1:])
    assert len(out) == 1
    assert out[0].payload == b"tok"


def test_fuzzer_is_deterministic():
    template = encode_message(
        MSG_FRAME_CUBE, session_id="s", frame_id=0,
        payload=np.ones(32, dtype=np.float32),
    )
    runs = []
    for _ in range(2):
        fuzzer = ProtocolFuzzer(seed=1234)
        chunks = []
        for chunk in fuzzer.stream(template):
            chunks.append(chunk)
            if len(chunks) >= 50:
                break
        runs.append(chunks)
    assert runs[0] == runs[1]
    # And the corruption actually corrupts: a decoder fed the fuzz
    # stream must hit a protocol error quickly.
    decoder = FrameDecoder(max_payload=1 << 20)
    with pytest.raises(ProtocolError):
        for chunk in runs[0]:
            decoder.feed(chunk)


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------


def test_admission_connection_and_session_limits():
    ctrl = AdmissionController(
        AdmissionConfig(max_connections=2, max_sessions=1)
    )
    assert ctrl.admit_connection() is None
    assert ctrl.admit_connection() is None
    code, reason = ctrl.admit_connection()
    assert code == ERR_MAX_CONNECTIONS
    assert reason_name(code) == "max_connections"
    ctrl.release_connection()
    assert ctrl.admit_connection() is None

    assert ctrl.admit_session() is None
    code, _ = ctrl.admit_session()
    assert code == ERR_MAX_SESSIONS
    ctrl.release_session()
    assert ctrl.admit_session() is None
    stats = ctrl.stats()
    assert stats["connections_rejected"] == 1
    assert stats["sessions_rejected"] == 1


def test_admission_auth_lockout_window_uses_injected_clock():
    clock = {"now": 100.0}
    ctrl = AdmissionController(
        AdmissionConfig(
            auth_token=b"secret", auth_failure_budget=3,
            auth_lockout_window_s=10.0,
        ),
        clock=lambda: clock["now"],
    )
    assert ctrl.check_token(b"secret") is None
    for _ in range(3):
        code, _ = ctrl.check_token(b"wrong")
        assert code == ERR_AUTH_FAILED
    # Budget burned: connections are now refused outright.
    code, _ = ctrl.admit_connection()
    assert code == ERR_AUTH_LOCKOUT
    # ... until the sliding window drains.
    clock["now"] += 10.1
    assert ctrl.admit_connection() is None
    assert ctrl.stats()["auth_failures"] == 3
    assert ctrl.stats()["auth_lockouts"] >= 1


def test_admission_health_ladder():
    health = {"state": HealthState.HEALTHY}
    ctrl = AdmissionController(health_fn=lambda: health["state"])
    assert ctrl.admit_connection() is None
    assert ctrl.admit_session() is None

    # Degraded: existing connections keep streaming, new sessions shed.
    health["state"] = HealthState.DEGRADED
    assert ctrl.admit_connection() is None
    code, _ = ctrl.admit_session()
    assert code == ERR_OVERLOADED

    # Unhealthy: new connections shed too.
    health["state"] = HealthState.UNHEALTHY
    code, _ = ctrl.admit_connection()
    assert code == ERR_OVERLOADED


def test_admission_draining_rejects_everything():
    ctrl = AdmissionController()
    ctrl.draining = True
    assert ctrl.admit_connection()[0] == ERR_DRAINING
    assert ctrl.admit_session()[0] == ERR_DRAINING


# ----------------------------------------------------------------------
# Live server
# ----------------------------------------------------------------------


def _pose_map(client):
    return {
        (p.session_id, p.frame_id): p.joints for p in client.poses
    }


def test_server_roundtrip_and_frame_id_mapping(configs):
    radar, dsp, model = configs
    gateway = _gateway(configs)
    handle = start_in_thread(gateway, _net_config())
    try:
        pool = make_frame_pool(dsp, 5, seed=3)
        with NetFrontClient.connect(
            handle.host, handle.port, token=TOKEN
        ) as client:
            assert client.welcome["version"] == 1
            session = client.open_session()
            # Client-chosen sparse frame ids must come back verbatim.
            ids = [100, 205, 333, 404, 512]
            for fid, cube in zip(ids, pool):
                client.send_cube(session, cube, frame_id=fid)
            poses = client.poll_poses(expect=4, timeout_s=60.0)
            assert len(poses) == 4  # first frame fills the window
            returned = sorted(p.frame_id for p in poses)
            assert returned == ids[1:]
            for pose in poses:
                assert pose.session_id == session
                assert pose.joints.shape[-1] == 3
            assert client.ping() < 5.0
    finally:
        report = handle.stop()
        gateway.shutdown()
    assert report["lost_clean_frames"] == 0
    assert report["frames_acked"] == 5
    assert report["poses_sent"] == 4


def test_server_rejects_bad_token_and_locks_out(configs):
    gateway = _gateway(configs)
    handle = start_in_thread(
        gateway,
        _net_config(auth_failure_budget=2, auth_lockout_window_s=60.0),
    )
    try:
        with pytest.raises(AuthError):
            NetFrontClient.connect(
                handle.host, handle.port, token="wrong-token"
            )
        with pytest.raises(AuthError):
            NetFrontClient.connect(
                handle.host, handle.port, token="still-wrong"
            )
        # Budget exhausted: even a correct token is now refused at the
        # door, which is what caps brute-force throughput.
        with pytest.raises((AuthError, AdmissionRejectedError)):
            NetFrontClient.connect(
                handle.host, handle.port, token=TOKEN
            )
        counters = gateway.metrics.snapshot()["counters"]
        assert counters.get("netfront.auth_failures", 0) >= 2
    finally:
        handle.stop()
        gateway.shutdown()


def test_server_unauthenticated_data_is_rejected(configs):
    gateway = _gateway(configs)
    handle = start_in_thread(gateway, _net_config())
    try:
        sock = socket.create_connection(
            (handle.host, handle.port), timeout=10.0
        )
        try:
            # OPEN before HELLO: the server must answer with a typed
            # error and close, never open the session.
            sock.sendall(encode_message(MSG_OPEN))
            sock.settimeout(10.0)
            data = b""
            while True:
                try:
                    chunk = sock.recv(4096)
                except OSError:
                    break
                if not chunk:
                    break
                data += chunk
            messages = decode_all(data)
            assert messages, "expected a typed error before close"
            from repro.netfront.protocol import MSG_ERROR
            assert messages[-1].msg_type == MSG_ERROR
        finally:
            sock.close()
    finally:
        handle.stop()
        gateway.shutdown()


def test_server_max_connections_gate(configs):
    gateway = _gateway(configs)
    handle = start_in_thread(gateway, _net_config(max_connections=1))
    try:
        with NetFrontClient.connect(
            handle.host, handle.port, token=TOKEN
        ):
            with pytest.raises(AdmissionRejectedError) as info:
                NetFrontClient.connect(
                    handle.host, handle.port, token=TOKEN
                )
            assert info.value.code == ERR_MAX_CONNECTIONS
        # Slot released on close: the next connection is admitted.
        time.sleep(0.2)
        with NetFrontClient.connect(
            handle.host, handle.port, token=TOKEN
        ) as client:
            assert client.welcome
    finally:
        handle.stop()
        gateway.shutdown()


def test_server_health_ladder_sheds_sessions_then_connections(configs):
    health = {"state": HealthState.HEALTHY}
    gateway = _gateway(configs)
    handle = start_in_thread(
        gateway, _net_config(), health_fn=lambda: health["state"]
    )
    try:
        client = NetFrontClient.connect(
            handle.host, handle.port, token=TOKEN
        )
        assert client.open_session()

        health["state"] = HealthState.DEGRADED
        with pytest.raises(NetFrontError) as info:
            client.open_session()
        assert "overloaded" in str(info.value)
        client.close()

        health["state"] = HealthState.UNHEALTHY
        with pytest.raises(AdmissionRejectedError) as info:
            NetFrontClient.connect(
                handle.host, handle.port, token=TOKEN
            )
        assert info.value.code == ERR_OVERLOADED
    finally:
        handle.stop()
        gateway.shutdown()


def test_server_unknown_session_is_typed_error(configs):
    radar, dsp, model = configs
    gateway = _gateway(configs)
    handle = start_in_thread(gateway, _net_config())
    try:
        pool = make_frame_pool(dsp, 1, seed=0)
        with NetFrontClient.connect(
            handle.host, handle.port, token=TOKEN
        ) as client:
            client.send_cube("no-such-session", pool[0], frame_id=0)
            deadline = time.monotonic() + 10.0
            while not client.errors and time.monotonic() < deadline:
                client.drain_messages(duration_s=0.1)
            assert client.errors
            assert client.errors[-1]["code"] == "unknown_session"
    finally:
        handle.stop()
        gateway.shutdown()


def test_connection_outbound_queue_sheds_oldest():
    """Unit-level slow-consumer check: the bounded outbound queue drops
    the OLDEST pose and keeps counting; it never grows past capacity and
    never blocks the producer."""

    # Build a real _Connection without a socket by bypassing __init__.
    from repro.netfront.server import _Connection

    conn = _Connection.__new__(_Connection)
    conn.outbound = deque()
    conn.outbound_capacity = 3
    conn.poses_shed = 0

    class _Event:
        def set(self):
            pass

    conn.wakeup = _Event()
    for i in range(5):
        conn.enqueue_pose(b"pose-%d" % i)
    assert len(conn.outbound) == 3
    assert conn.poses_shed == 2
    assert list(conn.outbound) == [b"pose-2", b"pose-3", b"pose-4"]


# ----------------------------------------------------------------------
# Chaos parity: fuzzer + slow reader + mid-stream disconnect vs clean
# ----------------------------------------------------------------------


def _run_clean_clients(host, port, pool, n_clients, frames_each):
    """Stream frames from ``n_clients`` concurrent clean clients;
    return {client_index: {frame_id: joints}} and the error count."""
    results = [{} for _ in range(n_clients)]
    errors = [0] * n_clients

    def work(index):
        with NetFrontClient.connect(
            host, port, token=TOKEN, timeout_s=30.0
        ) as client:
            session = client.open_session()
            for fid in range(frames_each):
                client.send_cube(
                    session, pool[fid % len(pool)], frame_id=fid
                )
            client.poll_poses(
                expect=frames_each - 1, timeout_s=120.0
            )
            for pose in client.poses:
                results[index][pose.frame_id] = pose.joints
            errors[index] = len(client.errors)

    threads = [
        threading.Thread(target=work, args=(i,), daemon=True)
        for i in range(n_clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=180.0)
    assert not any(t.is_alive() for t in threads), "clean client hung"
    return results, sum(errors)


def _fault_injectors(host, port, dsp, stop):
    """Three concurrent abusers: a protocol fuzzer, a slow reader that
    never drains its poses, and a client that disconnects mid-stream."""

    def fuzzer_loop():
        template = encode_message(
            MSG_FRAME_CUBE, session_id="fuzz", frame_id=0,
            payload=make_frame_pool(dsp, 1, seed=99)[0],
        )
        fuzzer = ProtocolFuzzer(seed=4242)
        while not stop.is_set():
            try:
                sock = socket.create_connection((host, port), 5.0)
            except OSError:
                time.sleep(0.01)
                continue
            try:
                sock.sendall(
                    encode_message(MSG_HELLO, payload=TOKEN.encode())
                )
                for chunk in fuzzer.stream(template):
                    if stop.is_set():
                        break
                    sock.sendall(chunk)
                    time.sleep(0.001)
            except OSError:
                pass  # quarantined: expected
            finally:
                sock.close()

    def slow_reader_loop():
        pool = make_frame_pool(dsp, 4, seed=55)
        while not stop.is_set():
            try:
                client = NetFrontClient.connect(
                    host, port, token=TOKEN, timeout_s=10.0
                )
            except Exception:
                time.sleep(0.05)
                continue
            try:
                session = client.open_session()
                for fid in range(4):
                    client.send_cube(session, pool[fid], frame_id=fid)
                # Never read the poses back; just sit on the socket.
                time.sleep(0.3)
            except Exception:
                pass
            finally:
                client.close()

    def disconnector_loop():
        pool = make_frame_pool(dsp, 2, seed=66)
        while not stop.is_set():
            try:
                client = NetFrontClient.connect(
                    host, port, token=TOKEN, timeout_s=10.0
                )
                session = client.open_session()
                client.send_cube(session, pool[0], frame_id=0)
                client.send_cube(session, pool[1], frame_id=1)
                # Yank the socket with poses still in flight.
                client._sock.close()
            except Exception:
                pass
            time.sleep(0.02)

    return [
        threading.Thread(target=fuzzer_loop, daemon=True,
                         name="chaos-fuzzer"),
        threading.Thread(target=slow_reader_loop, daemon=True,
                         name="chaos-slow-reader"),
        threading.Thread(target=disconnector_loop, daemon=True,
                         name="chaos-disconnector"),
    ]


def test_chaos_parity_clean_clients_unaffected(configs):
    """THE acceptance drill: a seeded protocol fuzzer, a slow reader
    and a mid-stream disconnector all hammer the server while clean
    clients stream. Every clean frame must be served with poses
    identical (<= 1e-6) to a no-fault baseline, no worker restarts, and
    the fuzzer's garbage must land in the dead-letter log with
    connection context."""
    radar, dsp, model = configs
    n_clients, frames_each = 2, 5
    pool = make_frame_pool(dsp, frames_each, seed=11)

    # Baseline: clean clients only, fresh gateway (seed-pinned).
    gateway = _gateway(configs, seed=21)
    handle = start_in_thread(gateway, _net_config())
    try:
        baseline, base_errors = _run_clean_clients(
            handle.host, handle.port, pool, n_clients, frames_each
        )
    finally:
        handle.stop()
        gateway.shutdown()
    assert base_errors == 0
    assert all(len(r) == frames_each - 1 for r in baseline)

    # Faulted run: identical clean clients + three fault injectors.
    gateway = _gateway(configs, seed=21)
    handle = start_in_thread(gateway, _net_config())
    stop = threading.Event()
    injectors = _fault_injectors(handle.host, handle.port, dsp, stop)
    try:
        for t in injectors:
            t.start()
        time.sleep(0.2)  # let the chaos ramp before clean traffic
        faulted, fault_errors = _run_clean_clients(
            handle.host, handle.port, pool, n_clients, frames_each
        )
        stop.set()
        for t in injectors:
            t.join(timeout=30.0)
        stats = handle.stats()
        dead = gateway.dead_letters.tail()
    finally:
        stop.set()
        handle.stop()
        counters = gateway.metrics.snapshot()["counters"]
        gateway.shutdown()

    # 1. Clean clients got every pose, bit-comparable to baseline.
    assert fault_errors == 0
    for clean, chaos in zip(baseline, faulted):
        assert sorted(clean) == sorted(chaos)
        for fid, joints in clean.items():
            np.testing.assert_allclose(
                chaos[fid], joints, atol=1e-6,
                err_msg=f"pose drifted under chaos (frame {fid})",
            )

    # 2. The pool survived untouched.
    assert counters.get("gateway.worker_restarts", 0) == 0

    # 3. The fuzzer's garbage was quarantined with connection context.
    protocol_letters = [
        r for r in dead if r["stage"] == "netfront-protocol"
    ]
    assert protocol_letters, "fuzzer ran but nothing was dead-lettered"
    sample = protocol_letters[-1]
    assert re.match(r"conn\d+@", sample["session_id"])
    assert sample["payload_len"] > 0
    assert counters.get("netfront.protocol_errors", 0) >= len(
        protocol_letters
    )
    # Only the offending connections died; the accounting in stats
    # still balances for everything the gateway accepted.
    accounting = stats["netfront"]["accounting"]
    assert accounting["lost_clean_frames"] == 0


# ----------------------------------------------------------------------
# Drain
# ----------------------------------------------------------------------


def test_drain_reports_accounting_and_notifies_clients(configs):
    radar, dsp, model = configs
    gateway = _gateway(configs)
    handle = start_in_thread(gateway, _net_config())
    client = None
    try:
        pool = make_frame_pool(dsp, 4, seed=9)
        client = NetFrontClient.connect(
            handle.host, handle.port, token=TOKEN
        )
        session = client.open_session()
        for fid in range(4):
            client.send_cube(session, pool[fid], frame_id=fid)
        client.poll_poses(expect=3, timeout_s=60.0)

        report = handle.drain()
        assert report["frames_acked"] == 4
        assert report["poses_sent"] == 3
        assert report["lost_clean_frames"] == 0
        assert report["drain_timed_out"] is False

        # The client sees an orderly GOODBYE carrying the accounting.
        client.drain_messages(duration_s=5.0)
        assert client.server_draining
        assert client.goodbye["lost_clean_frames"] == 0

        # New connections are refused while draining.
        with pytest.raises(AdmissionRejectedError) as info:
            NetFrontClient.connect(
                handle.host, handle.port, token=TOKEN, timeout_s=5.0
            )
        assert info.value.code == ERR_DRAINING
    except AdmissionRejectedError:
        raise
    except OSError:
        pass  # listener already closed: equally correct refusal
    finally:
        if client is not None:
            client.close()
        handle.stop()
        gateway.shutdown()


def _cpu_seconds(pid):
    """User + system CPU time of one process, from /proc/<pid>/stat."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def test_idle_pool_parks_and_stops_promptly(configs):
    """An idle 2-worker pool behind netfront parks on its doorbells:
    under 5% of one CPU in total over 2 s, and stop() returns well
    inside its deadline while the pump loop is parked."""
    gateway = _gateway(configs, workers=2)
    handle = start_in_thread(gateway, _net_config())
    try:
        pids = [os.getpid()] + [
            worker.process.pid for worker in gateway._workers
        ]
        time.sleep(0.5)  # let start-up work settle
        before = [_cpu_seconds(pid) for pid in pids]
        start = time.monotonic()
        time.sleep(2.0)
        elapsed = time.monotonic() - start
        used = sum(_cpu_seconds(pid) for pid in pids) - sum(before)
        assert used / elapsed < 0.05, used / elapsed

        start = time.monotonic()
        report = handle.stop(timeout_s=30.0)
        assert time.monotonic() - start < 5.0
        assert report["lost_clean_frames"] == 0
        assert not handle.thread.is_alive()
    finally:
        gateway.shutdown()


def test_serve_cli_sigterm_drains_and_exits_zero():
    """`mmhand serve --listen` + SIGTERM: graceful drain, goodbye frame
    to connected clients, full accounting, exit code 0."""
    with serve_listen() as (proc, port, output):
        pool = make_frame_pool(DspConfig(), 8, seed=0)
        with NetFrontClient.connect(
            "127.0.0.1", port, timeout_s=30.0
        ) as client:
            session = client.open_session()
            for fid in range(8):
                client.send_cube(session, pool[fid], frame_id=fid)
            # Default DspConfig has a 4-frame window: 8 frames -> 5.
            client.poll_poses(expect=5, timeout_s=120.0)

            proc.send_signal(signal.SIGTERM)
            client.drain_messages(duration_s=10.0)
            assert client.server_draining
            assert client.goodbye["reason"] == "SIGTERM"
            assert client.goodbye["lost_clean_frames"] == 0

        returncode = stop_serve(proc, output, sigterm=False)
        assert returncode == 0, (
            f"serve exited {returncode}:\n" + "".join(output)
        )


def _shm_segments() -> set:
    return {
        name for name in os.listdir("/dev/shm") if name.startswith("psm_")
    }


@pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="needs POSIX shared memory"
)
def test_serve_cli_second_sigterm_during_shutdown_is_ignored():
    """A second SIGTERM ~50 ms after the first lands while the workers
    are being joined: it is logged and ignored, so the process still
    exits 0 and unlinks every ring it created."""
    before = _shm_segments()
    with serve_listen() as (proc, port, output):
        proc.send_signal(signal.SIGTERM)
        time.sleep(0.05)
        proc.send_signal(signal.SIGTERM)
        returncode = stop_serve(proc, output, sigterm=False)
    assert returncode == 0, (
        f"serve exited {returncode}:\n" + "".join(output)
    )
    assert not _shm_segments() - before
