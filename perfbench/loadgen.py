"""Open-loop load generator: one process, two TCP connections.

Each connection is driven by one thread (the calling thread drives
connection 0, a second thread connection 1), so the generator never
uses more than two threads. Sessions are multiplexed over the
connections. Every frame has a scheduled send time fixed before the
run; a thread sends each frame when it falls due whether or not
earlier poses have come back, and between sends it reads and decodes
whatever the server pushed. How late each send ran is recorded.

Only the wire protocol's public functions are used: ``encode_message``
and ``FrameDecoder.feed``. With a :class:`SpanRecorder` enabled, each of
those calls, the connect/handshake and every session open is wrapped in
a span.
"""

from __future__ import annotations

import heapq
import select
import socket
import threading
import time
from typing import Dict, List, Optional

import numpy as np

from repro.netfront.protocol import (
    MSG_CLOSE,
    MSG_CLOSED,
    MSG_ERROR,
    MSG_FRAME_CUBE,
    MSG_FRAME_RAW,
    MSG_GOODBYE,
    MSG_HELLO,
    MSG_OPEN,
    MSG_POSE,
    MSG_SESSION,
    MSG_WELCOME,
    FrameDecoder,
    encode_message,
)

from perfbench.common import BenchInvalid, SpanRecorder
from perfbench.inputs import WINDOW, Stream

_clock = time.perf_counter
CLOSE_GRACE_S = 2.0


class StreamState:
    """Client-side bookkeeping of one stream during the run."""

    def __init__(self, stream: Stream) -> None:
        self.stream = stream
        self.session_id: Optional[str] = None
        self.open_sent = np.nan
        self.open_done = np.nan
        self.next_frame = 0
        self.sent_at = np.full(stream.n, np.nan)
        self.arrived_at = np.full(stream.n, np.nan)
        self.poses = np.full((stream.n, 21, 3), np.nan, dtype=np.float32)
        self.duplicates = 0
        self.closed = False
        self.close_sent = False


class Connection:
    """One socket, its decoder and the streams multiplexed over it."""

    def __init__(
        self, host: str, port: int, states: List[StreamState],
        origin: float, spans: SpanRecorder,
    ) -> None:
        self.states = states
        self.origin = origin
        self.spans = spans
        self.errors: List[Dict] = []
        self.stray_poses = 0
        self.goodbye: Optional[Dict] = None
        self.lags: List[float] = []
        self.decoder = FrameDecoder()
        self.decoded = 0
        self.by_session: Dict[str, StreamState] = {}
        self.by_token: Dict[int, StreamState] = {}
        self.active: List[StreamState] = []  # opened, close not yet sent
        start = _clock()
        self.sock = socket.create_connection((host, port), timeout=30.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.sendall(encode_message(MSG_HELLO))
        welcome = self._await(lambda m: m.msg_type in (MSG_WELCOME, MSG_ERROR))
        if welcome.msg_type != MSG_WELCOME:
            raise BenchInvalid(f"handshake refused: {welcome.json()}")
        self.connect_s = _clock() - start
        spans.add("netfront.connect", start, start + self.connect_s)

    # -- wire helpers ---------------------------------------------------
    def _encode(self, msg_type: int, **fields) -> bytes:
        t0 = _clock()
        data = encode_message(msg_type, **fields)
        key = f"{fields.get('session_id', '')}#{fields.get('frame_id', 0)}"
        self.spans.add("netfront.encode", t0, _clock(), key)
        return data

    def _decode(self, data: bytes):
        t0 = _clock()
        messages = self.decoder.feed(data)
        self.spans.add("netfront.decode", t0, _clock())
        self.decoded += len(messages)
        return messages

    def _await(self, predicate, timeout_s: float = 30.0):
        deadline = _clock() + timeout_s
        while _clock() < deadline:
            self.sock.settimeout(max(0.001, deadline - _clock()))
            data = self.sock.recv(1 << 20)
            if not data:
                raise BenchInvalid("server closed the connection")
            for message in self._decode(data):
                if predicate(message):
                    return message
                self._absorb(message, _clock())
        raise BenchInvalid("no reply before the deadline")

    # -- message handling -----------------------------------------------
    def _absorb(self, message, now: float) -> None:
        kind = message.msg_type
        if kind == MSG_POSE:
            state = self.by_session.get(message.session_id)
            if state is None:
                self.stray_poses += 1
                return
            i = message.frame_id - state.stream.first_id
            if not 0 <= i < state.stream.n:
                self.stray_poses += 1
                return
            if not np.isnan(state.arrived_at[i]):
                state.duplicates += 1
                return
            state.arrived_at[i] = now
            state.poses[i] = message.array
        elif kind == MSG_SESSION:
            state = self.by_token.pop(message.frame_id, None)
            if state is None:
                raise BenchInvalid("unexpected session grant")
            state.session_id = message.session_id
            state.open_done = now
            self.by_session[message.session_id] = state
            self.spans.add(
                "netfront.session_open", state.open_sent, now, message.session_id
            )
        elif kind == MSG_CLOSED:
            state = self.by_session.get(message.session_id)
            if state is not None:
                state.closed = True
        elif kind == MSG_ERROR:
            body = message.json()
            body["frame_id"] = message.frame_id
            body["at"] = now
            self.errors.append(body)
        elif kind == MSG_GOODBYE:
            self.goodbye = message.json()

    def _read_ready(self, timeout_s: float) -> None:
        readable, _, _ = select.select([self.sock], [], [], max(0.0, timeout_s))
        if not readable:
            return
        data = self.sock.recv(1 << 20)
        now = _clock()
        if not data:
            raise BenchInvalid("server closed the connection mid-run")
        for message in self._decode(data):
            self._absorb(message, now)

    def _maybe_close(self, state: StreamState, now: float) -> bool:
        """Close a finished session once its last pose is in (or its
        grace period passed): closing earlier would orphan that pose."""
        if state.session_id is None:
            return False
        last = state.stream.n - 1
        if last >= 0:
            if state.next_frame <= last:
                return False
            if np.isnan(state.arrived_at[last]) and (
                now - self.origin < state.stream.times[last] + CLOSE_GRACE_S
            ):
                return False
        self.sock.sendall(self._encode(MSG_CLOSE, session_id=state.session_id))
        state.close_sent = True
        return True

    # -- the run --------------------------------------------------------
    def run(self, end_wait_s: float) -> None:
        """Send every scheduled frame on time and collect the poses."""
        heap = []
        for token, state in enumerate(self.states):
            heapq.heappush(heap, (state.stream.open_time, 0, token))
        waiting: List[int] = []  # streams whose session grant is pending
        sock = self.sock
        sock.settimeout(30.0)
        horizon = max(
            s.stream.times[-1] if s.stream.n else s.stream.open_time
            for s in self.states
        ) + end_wait_s
        while True:
            now = _clock()
            if waiting:
                ready = [t for t in waiting if self.states[t].session_id]
                for token in ready:
                    waiting.remove(token)
                    state = self.states[token]
                    heapq.heappush(
                        heap,
                        (state.stream.times[state.next_frame], 1, token),
                    )
            if heap and heap[0][0] <= now - self.origin:
                due, action, token = heapq.heappop(heap)
                state = self.states[token]
                if action == 0:
                    self.by_token[token] = state
                    state.open_sent = _clock()
                    self.lags.append(state.open_sent - self.origin - due)
                    sock.sendall(self._encode(MSG_OPEN, frame_id=token))
                    self.active.append(state)
                    if state.stream.n:
                        heapq.heappush(heap, (state.stream.times[0], 1, token))
                    continue
                if state.session_id is None:
                    waiting.append(token)
                    continue
                i = state.next_frame
                stream = state.stream
                msg_type = MSG_FRAME_RAW if stream.kind == "raw" else MSG_FRAME_CUBE
                data = self._encode(
                    msg_type, session_id=state.session_id,
                    frame_id=stream.first_id + i, payload=stream.frames[i],
                )
                sent = _clock()
                sock.sendall(data)
                state.sent_at[i] = sent
                self.lags.append(sent - self.origin - due)
                state.next_frame = i + 1
                if state.next_frame < stream.n:
                    heapq.heappush(heap, (stream.times[i + 1], 1, token))
                continue
            if self.active:
                self.active = [
                    s for s in self.active if not self._maybe_close(s, now)
                ]
            if not heap and not waiting and self._all_answered():
                return
            if now - self.origin > horizon:
                return
            timeout = 0.02
            if heap:
                timeout = min(timeout, heap[0][0] - (now - self.origin))
            self._read_ready(timeout)

    def _all_answered(self) -> bool:
        for state in self.states:
            pending = np.isnan(state.arrived_at[WINDOW - 1 :])
            if pending.any():
                return False
            if not state.closed:
                return False
        return True

    def await_goodbye(self, timeout_s: float) -> Optional[Dict]:
        deadline = _clock() + timeout_s
        try:
            while self.goodbye is None and _clock() < deadline:
                self._read_ready(min(0.1, deadline - _clock()))
        except (BenchInvalid, OSError):
            pass
        return self.goodbye

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


def drive(connections: List[Connection], end_wait_s: float) -> None:
    """Run connection 0 on this thread and connection 1 on a second."""
    failures: List[BaseException] = []

    def target(conn: Connection) -> None:
        try:
            conn.run(end_wait_s)
        except BaseException as error:  # re-raised on the main thread
            failures.append(error)

    helpers = [
        threading.Thread(target=target, args=(c,), name="loadgen-conn")
        for c in connections[1:]
    ]
    for thread in helpers:
        thread.start()
    target(connections[0])
    for thread in helpers:
        thread.join(timeout=120.0)
        if thread.is_alive():
            raise BenchInvalid("load generator thread did not finish")
    if failures:
        raise failures[0]
