"""The asyncio TCP front end: sockets in, ``Gateway.submit`` behind.

:class:`NetFrontServer` is the network edge of the serving stack. Each
client connection speaks the length-prefixed CRC-checked protocol from
:mod:`repro.netfront.protocol`; decoded frames feed the multi-process
:class:`~repro.gateway.Gateway` and regressed poses stream back to the
connection that owns the session. The design rule throughout is that
**every failure mode degrades one connection, never the pool**:

* *admission* -- connections and sessions pass the
  :class:`~repro.netfront.admission.AdmissionController` gates before
  any resource is committed; rejects are typed wire errors
  (``max_connections`` / ``max_sessions`` / ``overloaded`` /
  ``auth_lockout``), not accept-then-starve;
* *auth* -- the HELLO token is checked in constant time under a
  handshake deadline; failures burn the sliding lockout budget;
* *deadlines* -- reads carry an idle deadline and a periodic reaper
  sweeps connections that stall mid-message (slowloss/slowloris
  defence); writes time out so a wedged socket cannot pin its writer
  task; frame submits that cannot clear ring backpressure before their
  deadline are rejected with ``backpressure``;
* *slow consumers* -- each connection owns a bounded outbound pose
  queue; when the client cannot keep up the **oldest** pose is shed
  and counted (``netfront.poses_shed``), the serving pool never
  blocks;
* *protocol errors* -- the offending bytes are dead-lettered with
  connection/session context into the shared
  :class:`~repro.resilience.DeadLetterLog` and only that connection is
  closed;
* *overload* -- the PR 5 health ladder gates admission: ``degraded``
  sheds new sessions, ``unhealthy`` sheds new connections;
* *drain* -- SIGTERM stops the listener, lets in-flight frames flush
  through :meth:`Gateway.drain`, sends every client a GOODBYE frame
  carrying the final accounting, and exits 0 only when every submitted
  frame is acked or dead-lettered.

All internal deadlines use ``time.monotonic``; wall-clock time appears
only in logs. Nothing polls on a timer: the pump loop parks until the
gateway's response doorbell turns readable or one heartbeat period
passes, whichever comes first.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.errors import (
    GatewayError,
    NetFrontError,
    ProtocolError,
    QueueFullError,
)
from repro.netfront.admission import (
    AdmissionConfig,
    AdmissionController,
    reason_name,
)
from repro.netfront.protocol import (
    DEFAULT_MAX_PAYLOAD,
    ERR_AUTH_REQUIRED,
    ERR_BACKPRESSURE,
    ERR_DEADLINE,
    ERR_DRAINING,
    ERR_OVERLOADED,
    ERR_PROTOCOL,
    ERR_UNKNOWN_SESSION,
    FLAG_DRAINING,
    MSG_CLOSE,
    MSG_CLOSED,
    MSG_ERROR,
    MSG_FRAME_CUBE,
    MSG_FRAME_RAW,
    MSG_GOODBYE,
    MSG_HELLO,
    MSG_OPEN,
    MSG_PING,
    MSG_PONG,
    MSG_POSE,
    MSG_SESSION,
    MSG_WELCOME,
    PROTOCOL_VERSION,
    FrameDecoder,
    WireMessage,
    encode_message,
)
from repro.obs.logging import get_logger
from repro.obs.metrics import describe_netfront_metrics

_connection_counter = itertools.count()
_logger = get_logger("netfront")


@dataclass
class NetFrontConfig:
    """Tunables of the network front end."""

    host: str = "127.0.0.1"
    port: int = 0  # 0: ephemeral; the bound port lands on .port
    auth_token: Optional[str] = None
    max_connections: int = 64
    max_sessions: int = 256
    auth_failure_budget: int = 8
    auth_lockout_window_s: float = 60.0
    # Deadline for the client to complete the HELLO handshake.
    handshake_timeout_s: float = 5.0
    # A connection silent for this long is reaped (slowloris defence).
    idle_timeout_s: float = 30.0
    # Deadline for one socket write to drain before the connection is
    # declared wedged and closed.
    write_timeout_s: float = 5.0
    # How long one frame may wait out ring backpressure before it is
    # rejected with a typed wire error.
    submit_deadline_s: float = 2.0
    # Poses buffered per connection; overflow sheds the OLDEST pose.
    outbound_queue: int = 64
    max_payload_bytes: int = DEFAULT_MAX_PAYLOAD
    reaper_interval_s: float = 0.25
    drain_timeout_s: float = 30.0

    def __post_init__(self) -> None:
        if self.outbound_queue < 1:
            raise NetFrontError("outbound_queue must be >= 1")
        for name in (
            "handshake_timeout_s", "idle_timeout_s", "write_timeout_s",
            "submit_deadline_s", "reaper_interval_s", "drain_timeout_s",
        ):
            if getattr(self, name) <= 0:
                raise NetFrontError(f"{name} must be > 0")

    def admission(self) -> AdmissionConfig:
        token = self.auth_token
        return AdmissionConfig(
            max_connections=self.max_connections,
            max_sessions=self.max_sessions,
            auth_token=(
                token.encode("utf-8") if isinstance(token, str) else token
            ),
            auth_failure_budget=self.auth_failure_budget,
            auth_lockout_window_s=self.auth_lockout_window_s,
        )


class _Connection:
    """Server-side state of one client socket."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        outbound_capacity: int,
        max_payload: int,
    ) -> None:
        self.id = f"conn{next(_connection_counter)}"
        self.reader = reader
        self.writer = writer
        peer = writer.get_extra_info("peername")
        self.peer = f"{peer[0]}:{peer[1]}" if peer else "?"
        self.decoder = FrameDecoder(max_payload=max_payload)
        self.inbox: Deque[WireMessage] = deque()
        self.outbound: Deque[bytes] = deque()
        self.outbound_capacity = outbound_capacity
        self.wakeup = asyncio.Event()
        self.sessions: Set[str] = set()
        # session -> (gateway frame id -> client frame id); the gateway
        # numbers frames densely per session, the client numbers them
        # however it likes -- poses go back under the client's ids.
        self.frame_ids: Dict[str, Dict[int, int]] = {}
        self.submitted: Dict[str, int] = {}
        self.authed = False
        self.closing = False
        self.last_activity = time.monotonic()
        self.opened_at = time.monotonic()
        self.poses_shed = 0
        self.writer_task: Optional[asyncio.Task] = None

    def touch(self) -> None:
        self.last_activity = time.monotonic()

    def enqueue_pose(self, encoded: bytes) -> bool:
        """Queue one pose for the writer task; shed-oldest on overflow.

        Returns False when an old pose was shed to make room.
        """
        shed = False
        if len(self.outbound) >= self.outbound_capacity:
            self.outbound.popleft()
            self.poses_shed += 1
            shed = True
        self.outbound.append(encoded)
        self.wakeup.set()
        return not shed

    def label(self, session_id: str = "") -> str:
        """Dead-letter / log context: connection, peer and session."""
        base = f"{self.id}@{self.peer}"
        return f"{base}/{session_id}" if session_id else base


class NetFrontServer:
    """Asyncio TCP server bridging the wire protocol to a gateway.

    ``backend`` is normally a started-or-not
    :class:`~repro.gateway.Gateway`; anything exposing the same
    ``open_session`` / ``close_session`` / ``submit`` / ``submit_cube``
    / ``pump`` / ``outstanding`` / ``response_doorbell`` /
    ``heartbeat_interval_s`` / ``health`` / ``dead_letters`` /
    ``metrics`` surface works. All backend calls happen on the server's
    event loop, matching the dispatcher's single-threaded contract.
    """

    def __init__(
        self,
        backend,
        config: Optional[NetFrontConfig] = None,
        health_fn=None,
    ) -> None:
        self.backend = backend
        self.config = config if config is not None else NetFrontConfig()
        self.metrics = backend.metrics
        describe_netfront_metrics(self.metrics)
        self.dead_letters = backend.dead_letters
        self.admission = AdmissionController(
            self.config.admission(),
            health_fn=(
                health_fn if health_fn is not None else backend.health
            ),
        )
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: Dict[str, _Connection] = {}
        self._session_conn: Dict[str, _Connection] = {}
        self._tasks: List[asyncio.Task] = []
        self._stopped = asyncio.Event()
        # Set by the pump loop after every pump; see _next_pump.
        self._pumped = asyncio.Event()
        self.draining = False
        self.drain_report: Optional[Dict[str, Any]] = None
        self.port: Optional[int] = None
        self.host: Optional[str] = None

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> "NetFrontServer":
        if getattr(self.backend, "_started", True) is False:
            self.backend.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        loop = asyncio.get_running_loop()
        self._tasks = [
            loop.create_task(self._pump_loop(), name="netfront-pump"),
            loop.create_task(self._reaper_loop(), name="netfront-reaper"),
        ]
        _logger.info(
            "netfront_listening", host=self.host, port=self.port,
            auth=self.config.auth_token is not None,
            max_connections=self.config.max_connections,
            max_sessions=self.config.max_sessions,
        )
        return self

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT trigger the graceful drain (idempotent)."""
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError, ValueError):
                loop.add_signal_handler(
                    signum,
                    lambda s=signum: asyncio.ensure_future(
                        self.begin_drain(signal.Signals(s).name)
                    ),
                )

    async def wait_stopped(self) -> None:
        await self._stopped.wait()

    async def begin_drain(
        self, reason: str = "drain"
    ) -> Dict[str, Any]:
        """SIGTERM path: stop accepting, flush in-flight, say goodbye.

        Idempotent; concurrent calls await the first one's report.
        """
        if self.draining:
            while self.drain_report is None:
                await asyncio.sleep(0.01)
            return self.drain_report
        self.draining = True
        self.admission.draining = True
        _logger.info("netfront_drain_begin", reason=reason)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Flush in-flight frames: the pump loop keeps routing poses
        # until the gateway owes nothing (the async equivalent of
        # Gateway.drain, which must not block this event loop).
        deadline = time.monotonic() + self.config.drain_timeout_s
        drain_timed_out = False
        while self.backend.outstanding() > 0:
            if time.monotonic() >= deadline:
                drain_timed_out = True
                break
            await self._next_pump()
        # Give every writer a moment to flush queued poses.
        flush_deadline = time.monotonic() + min(
            2.0, self.config.drain_timeout_s
        )
        while (
            any(c.outbound for c in self._connections.values())
            and time.monotonic() < flush_deadline
        ):
            await asyncio.sleep(0.005)
        report = self._accounting()
        report["reason"] = reason
        report["drain_timed_out"] = drain_timed_out
        # Goodbye frame to every client, then teardown.
        goodbye = encode_message(
            MSG_GOODBYE, flags=FLAG_DRAINING, payload=report
        )
        for conn in list(self._connections.values()):
            await self._send_now(conn, goodbye)
            await self._close_connection(conn, "drain")
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            with contextlib.suppress(asyncio.CancelledError):
                await task
        self.drain_report = report
        _logger.info("netfront_drain_done", **{
            k: v for k, v in report.items()
            if not isinstance(v, (dict, list))
        })
        self._stopped.set()
        return report

    def _accounting(self) -> Dict[str, Any]:
        """Frame accounting: every submitted frame answered or
        dead-lettered (`lost_clean_frames` must be 0 on a clean
        drain)."""
        counters = self.metrics.snapshot()["counters"]
        submitted = counters.get("netfront.frames_submitted", 0)
        acked = counters.get("gateway.acks", 0)
        dead = self.dead_letters.total
        return {
            "frames_received": counters.get("netfront.frames_in", 0),
            "frames_submitted": submitted,
            "frames_rejected": counters.get(
                "netfront.frames_rejected", 0
            ),
            "frames_acked": acked,
            "dead_letters": dead,
            "lost_clean_frames": max(0, submitted - acked - dead),
            "poses_sent": counters.get("netfront.poses_out", 0),
            "poses_shed": counters.get("netfront.poses_shed", 0),
            "protocol_errors": counters.get(
                "netfront.protocol_errors", 0
            ),
            "worker_restarts": counters.get(
                "gateway.worker_restarts", 0
            ),
        }

    # -- background tasks -----------------------------------------------
    async def _pump_loop(self) -> None:
        """The gateway's event-loop tick: drain poses, route them, then
        park until the response doorbell rings or a heartbeat period
        passes (the timer keeps the gateway's liveness checks running
        on an idle pool)."""
        loop = asyncio.get_running_loop()
        wake = asyncio.Event()
        doorbell = self.backend.response_doorbell
        period = self.backend.heartbeat_interval_s
        loop.add_reader(doorbell, wake.set)
        try:
            while True:
                wake.clear()
                try:
                    results = self.backend.pump()
                except GatewayError:
                    results = []
                self._route_results(results)
                self._pumped.set()
                # A timer callback, not asyncio.wait_for: on Python 3.11
                # wait_for can swallow the cancel that stops this task.
                timer = loop.call_later(period, wake.set)
                try:
                    await wake.wait()
                finally:
                    timer.cancel()
        finally:
            loop.remove_reader(doorbell)

    async def _next_pump(self) -> None:
        """Wait until the pump loop has run once more (bounded by a
        heartbeat period, so a waiter never outlives a dead loop)."""
        self._pumped.clear()
        timer = asyncio.get_running_loop().call_later(
            self.backend.heartbeat_interval_s, self._pumped.set
        )
        try:
            await self._pumped.wait()
        finally:
            timer.cancel()

    def _route_results(self, results) -> None:
        for result in results:
            conn = self._session_conn.get(result.session_id)
            if conn is None or conn.closing:
                self.metrics.counter(
                    "netfront.poses_orphaned"
                ).increment()
                continue
            client_fid = conn.frame_ids.get(
                result.session_id, {}
            ).pop(result.frame_index, result.frame_index)
            encoded = encode_message(
                MSG_POSE,
                session_id=result.session_id,
                frame_id=client_fid,
                payload=np.asarray(result.joints, dtype=np.float32),
            )
            if conn.enqueue_pose(encoded):
                self.metrics.counter("netfront.poses_out").increment()
            else:
                # Oldest pose shed for a slow consumer: counted, the
                # pool never blocked on this client.
                self.metrics.counter("netfront.poses_out").increment()
                self.metrics.counter("netfront.poses_shed").increment()

    async def _reaper_loop(self) -> None:
        """Close connections idle past the deadline (slowloris)."""
        while True:
            await asyncio.sleep(self.config.reaper_interval_s)
            now = time.monotonic()
            for conn in list(self._connections.values()):
                if conn.closing:
                    continue
                if now - conn.last_activity > self.config.idle_timeout_s:
                    self.metrics.counter(
                        "netfront.idle_reaped"
                    ).increment()
                    await self._send_error(
                        conn, ERR_DEADLINE,
                        f"idle for more than "
                        f"{self.config.idle_timeout_s:.0f}s",
                    )
                    await self._close_connection(conn, "idle")

    async def _writer_loop(self, conn: _Connection) -> None:
        """Drain one connection's outbound queue under write deadlines."""
        try:
            while not conn.closing:
                if not conn.outbound:
                    conn.wakeup.clear()
                    await conn.wakeup.wait()
                    continue
                encoded = conn.outbound.popleft()
                conn.writer.write(encoded)
                self.metrics.counter("netfront.bytes_out").increment(
                    len(encoded)
                )
                try:
                    await asyncio.wait_for(
                        conn.writer.drain(),
                        timeout=self.config.write_timeout_s,
                    )
                    # A consumer keeping up with its pose stream is
                    # alive even if it never sends -- don't reap it.
                    conn.touch()
                except asyncio.TimeoutError:
                    self.metrics.counter(
                        "netfront.write_deadline_closes"
                    ).increment()
                    await self._close_connection(conn, "write-deadline")
                    return
        except (ConnectionError, asyncio.CancelledError, OSError):
            pass

    # -- connection handling --------------------------------------------
    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        conn = _Connection(
            reader, writer,
            outbound_capacity=self.config.outbound_queue,
            max_payload=self.config.max_payload_bytes,
        )
        rejection = self.admission.admit_connection()
        if rejection is not None:
            code, why = rejection
            self.metrics.counter(
                "netfront.connections_rejected"
            ).increment()
            self.metrics.events.emit(
                "netfront_reject", conn=conn.label(),
                code=reason_name(code), reason=why,
            )
            with contextlib.suppress(ConnectionError, OSError):
                writer.write(encode_message(
                    MSG_ERROR, flags=code,
                    payload={"code": reason_name(code), "message": why},
                ))
                await writer.drain()
            writer.close()
            return
        self._connections[conn.id] = conn
        self.metrics.counter("netfront.connections_opened").increment()
        loop = asyncio.get_running_loop()
        conn.writer_task = loop.create_task(
            self._writer_loop(conn), name=f"netfront-writer-{conn.id}"
        )
        try:
            if not await self._handshake(conn):
                return
            self.metrics.histogram(
                "netfront.connection_setup_s"
            ).observe(time.monotonic() - conn.opened_at)
            await self._serve_connection(conn)
        except ProtocolError as error:
            await self._quarantine(conn, error)
        except (
            ConnectionError, asyncio.IncompleteReadError, OSError
        ):
            self.metrics.counter("netfront.disconnects").increment()
        finally:
            await self._close_connection(conn, "eof")

    async def _read_messages(
        self, conn: _Connection, timeout_s: float
    ) -> Optional[WireMessage]:
        """Next decoded message, or None on clean EOF.

        Raises :class:`ProtocolError` on garbage bytes and
        :class:`asyncio.TimeoutError` when the deadline passes without
        a complete message (a stalled or malicious trickle).
        """
        deadline = time.monotonic() + timeout_s
        while not conn.inbox:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise asyncio.TimeoutError()
            data = await asyncio.wait_for(
                conn.reader.read(65536), timeout=remaining
            )
            if not data:
                return None
            conn.touch()
            self.metrics.counter("netfront.bytes_in").increment(
                len(data)
            )
            conn.inbox.extend(conn.decoder.feed(data))
        return conn.inbox.popleft()

    async def _handshake(self, conn: _Connection) -> bool:
        """HELLO -> WELCOME under the handshake deadline."""
        try:
            message = await self._read_messages(
                conn, self.config.handshake_timeout_s
            )
        except asyncio.TimeoutError:
            self.metrics.counter(
                "netfront.handshake_timeouts"
            ).increment()
            await self._send_error(
                conn, ERR_DEADLINE, "handshake deadline expired"
            )
            return False
        if message is None:
            return False
        if message.msg_type != MSG_HELLO:
            await self._send_error(
                conn, ERR_AUTH_REQUIRED,
                f"expected hello, got {message.type_name}",
            )
            return False
        failure = self.admission.check_token(message.payload)
        if failure is not None:
            code, why = failure
            self.metrics.counter("netfront.auth_failures").increment()
            self.metrics.events.emit(
                "netfront_auth_failure", conn=conn.label(),
            )
            await self._send_error(conn, code, why)
            return False
        conn.authed = True
        await self._send_now(conn, encode_message(
            MSG_WELCOME,
            payload={
                "version": PROTOCOL_VERSION,
                "max_payload": self.config.max_payload_bytes,
                "outbound_queue": self.config.outbound_queue,
                "idle_timeout_s": self.config.idle_timeout_s,
            },
        ))
        return True

    async def _serve_connection(self, conn: _Connection) -> None:
        while not conn.closing and not self.draining:
            try:
                message = await self._read_messages(
                    conn, self.config.idle_timeout_s
                )
            except asyncio.TimeoutError:
                if conn.decoder.pending_bytes():
                    # A partial message stalled past the deadline: the
                    # slowloris trickle pattern. Socket-level activity
                    # does not excuse it -- the *message* never
                    # completed.
                    self.metrics.counter(
                        "netfront.read_deadline_closes"
                    ).increment()
                    await self._send_error(
                        conn, ERR_DEADLINE,
                        "read deadline expired mid-message",
                    )
                    return
                # No partial message: merely quiet. The reaper owns the
                # idle verdict (writes count as liveness there).
                continue
            if message is None:
                return
            if message.msg_type == MSG_GOODBYE:
                return
            await self._dispatch(conn, message)

    async def _dispatch(
        self, conn: _Connection, message: WireMessage
    ) -> None:
        if message.msg_type == MSG_PING:
            await self._send_now(conn, encode_message(
                MSG_PONG, frame_id=message.frame_id
            ))
        elif message.msg_type == MSG_OPEN:
            await self._open_session(conn, message)
        elif message.msg_type in (MSG_FRAME_CUBE, MSG_FRAME_RAW):
            await self._ingest_frame(conn, message)
        elif message.msg_type == MSG_CLOSE:
            self._close_session(conn, message.session_id)
            await self._send_now(conn, encode_message(
                MSG_CLOSED, session_id=message.session_id,
                frame_id=message.frame_id,
            ))
        elif message.msg_type == MSG_HELLO:
            pass  # redundant hello after auth: ignore
        else:
            raise ProtocolError(
                f"client sent server-only message "
                f"{message.type_name}"
            )

    async def _open_session(
        self, conn: _Connection, message: WireMessage
    ) -> None:
        rejection = self.admission.admit_session()
        if rejection is not None:
            code, why = rejection
            self.metrics.counter(
                "netfront.sessions_rejected"
            ).increment()
            await self._send_now(conn, encode_message(
                MSG_ERROR, flags=code, frame_id=message.frame_id,
                payload={"code": reason_name(code), "message": why},
            ))
            return
        try:
            session_id = self.backend.open_session()
        except GatewayError as error:
            self.admission.release_session()
            await self._send_error(conn, ERR_OVERLOADED, str(error))
            return
        conn.sessions.add(session_id)
        conn.frame_ids[session_id] = {}
        conn.submitted[session_id] = 0
        self._session_conn[session_id] = conn
        self.metrics.counter("netfront.sessions_opened").increment()
        await self._send_now(conn, encode_message(
            MSG_SESSION, session_id=session_id,
            frame_id=message.frame_id,
        ))

    def _close_session(self, conn: _Connection, session_id: str) -> None:
        if session_id not in conn.sessions:
            return
        conn.sessions.discard(session_id)
        self._session_conn.pop(session_id, None)
        self.admission.release_session()
        with contextlib.suppress(GatewayError):
            self.backend.close_session(session_id)

    async def _ingest_frame(
        self, conn: _Connection, message: WireMessage
    ) -> None:
        self.metrics.counter("netfront.frames_in").increment()
        if self.draining:
            await self._send_error(
                conn, ERR_DRAINING, "server is draining",
                frame_id=message.frame_id,
            )
            self.metrics.counter("netfront.frames_rejected").increment()
            return
        sid = message.session_id
        if sid not in conn.sessions:
            self.metrics.counter("netfront.frames_rejected").increment()
            await self._send_error(
                conn, ERR_UNKNOWN_SESSION,
                f"connection does not own session {sid!r}",
                frame_id=message.frame_id,
            )
            return
        if message.array is None:
            raise ProtocolError(
                f"frame {message.frame_id} of {sid!r} carried no array "
                "payload"
            )
        submit = (
            self.backend.submit_cube
            if message.msg_type == MSG_FRAME_CUBE
            else self.backend.submit
        )
        deadline = time.monotonic() + self.config.submit_deadline_s
        wait_start = time.monotonic()
        while True:
            try:
                submit(sid, message.array)
                break
            except QueueFullError:
                # Ring backpressure: this connection's task waits for
                # the next pump (the pool keeps serving everyone else)
                # and retries until its deadline, then the frame is
                # rejected with a typed error instead of wedging the
                # socket.
                if time.monotonic() >= deadline:
                    self.metrics.counter(
                        "netfront.frames_rejected"
                    ).increment()
                    self.metrics.counter(
                        "netfront.submit_deadlines"
                    ).increment()
                    await self._send_error(
                        conn, ERR_BACKPRESSURE,
                        f"worker rings full past the "
                        f"{self.config.submit_deadline_s:.1f}s submit "
                        "deadline",
                        frame_id=message.frame_id,
                    )
                    return
                await self._next_pump()
            except GatewayError as error:
                # Session died underneath (e.g. closed during drain).
                self.metrics.counter(
                    "netfront.frames_rejected"
                ).increment()
                await self._send_error(
                    conn, ERR_UNKNOWN_SESSION, str(error),
                    frame_id=message.frame_id,
                )
                return
        self.metrics.histogram("netfront.submit_wait_s").observe(
            time.monotonic() - wait_start
        )
        gateway_fid = conn.submitted[sid]
        conn.submitted[sid] = gateway_fid + 1
        conn.frame_ids[sid][gateway_fid] = message.frame_id
        self.metrics.counter("netfront.frames_submitted").increment()

    # -- failure paths --------------------------------------------------
    async def _quarantine(
        self, conn: _Connection, error: ProtocolError
    ) -> None:
        """Dead-letter the offending bytes; close only this connection."""
        self.metrics.counter("netfront.protocol_errors").increment()
        pending = conn.decoder.pending_bytes()
        session = next(iter(conn.sessions), "")
        self.dead_letters.record(
            session_id=conn.label(session),
            frame_index=conn.decoder.messages_decoded,
            stage="netfront-protocol",
            reason=str(error),
            corr_id=conn.label(session),
            payload=pending,
        )
        self.metrics.events.emit(
            "netfront_protocol_error", conn=conn.label(),
            reason=str(error), pending_bytes=len(pending),
        )
        await self._send_error(conn, ERR_PROTOCOL, str(error))

    async def _send_error(
        self,
        conn: _Connection,
        code: int,
        message: str,
        frame_id: int = 0,
    ) -> None:
        await self._send_now(conn, encode_message(
            MSG_ERROR, flags=code, frame_id=frame_id,
            payload={"code": reason_name(code), "message": message},
        ))

    async def _send_now(self, conn: _Connection, encoded: bytes) -> None:
        """Control-path write, bypassing the pose queue."""
        if conn.closing:
            return
        try:
            conn.writer.write(encoded)
            self.metrics.counter("netfront.bytes_out").increment(
                len(encoded)
            )
            await asyncio.wait_for(
                conn.writer.drain(), timeout=self.config.write_timeout_s
            )
            conn.touch()
        except (
            ConnectionError, asyncio.TimeoutError, OSError
        ):
            pass

    async def _close_connection(
        self, conn: _Connection, why: str
    ) -> None:
        if conn.closing:
            return
        conn.closing = True
        for session_id in list(conn.sessions):
            self._close_session(conn, session_id)
        if conn.writer_task is not None:
            conn.writer_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await conn.writer_task
        with contextlib.suppress(ConnectionError, OSError):
            conn.writer.close()
        self._connections.pop(conn.id, None)
        self.admission.release_connection()
        self.metrics.counter("netfront.connections_closed").increment()
        if conn.poses_shed:
            self.metrics.events.emit(
                "netfront_close", conn=conn.label(), why=why,
                poses_shed=conn.poses_shed,
            )

    # -- introspection --------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        snapshot = self.metrics.snapshot()
        snapshot["netfront"] = {
            "connections": len(self._connections),
            "draining": self.draining,
            "admission": self.admission.stats(),
            "accounting": self._accounting(),
        }
        return snapshot


# -- synchronous harness -----------------------------------------------
class NetFrontHandle:
    """A server running on a background thread's event loop.

    Gives blocking callers (tests, the CLI bench) a clean surface:
    ``host``/``port`` for clients, :meth:`drain` to trigger the SIGTERM
    path programmatically, :meth:`stop` to tear everything down.
    """

    def __init__(self, server: NetFrontServer, loop, thread) -> None:
        self.server = server
        self.loop = loop
        self.thread = thread

    @property
    def host(self) -> str:
        return self.server.host or "127.0.0.1"

    @property
    def port(self) -> int:
        return int(self.server.port or 0)

    def _run(self, coro, timeout_s: float = 60.0):
        future = asyncio.run_coroutine_threadsafe(coro, self.loop)
        return future.result(timeout=timeout_s)

    def drain(self, timeout_s: float = 60.0) -> Dict[str, Any]:
        """Run the graceful-drain path; returns the accounting report."""
        return self._run(
            self.server.begin_drain("programmatic"), timeout_s
        )

    def stats(self) -> Dict[str, Any]:
        async def _stats():
            return self.server.stats()
        return self._run(_stats(), 10.0)

    def stop(self, timeout_s: float = 60.0) -> Dict[str, Any]:
        """Drain (if not already) and stop the loop thread."""
        report = self.drain(timeout_s)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=timeout_s)
        return report


def start_in_thread(
    backend,
    config: Optional[NetFrontConfig] = None,
    health_fn=None,
    timeout_s: float = 60.0,
) -> NetFrontHandle:
    """Start a :class:`NetFrontServer` on a dedicated loop thread.

    The backend is started (and later pumped) exclusively on that
    thread, honouring the gateway's single-threaded dispatcher
    contract.
    """
    server = NetFrontServer(backend, config, health_fn=health_fn)
    loop = asyncio.new_event_loop()
    ready = threading.Event()
    failure: List[BaseException] = []

    def runner() -> None:
        asyncio.set_event_loop(loop)

        async def boot():
            try:
                await server.start()
            except BaseException as error:  # pragma: no cover
                failure.append(error)
            finally:
                ready.set()

        loop.create_task(boot())
        loop.run_forever()
        # Drain-cancelled tasks finish; then the loop closes cleanly.
        pending = asyncio.all_tasks(loop)
        for task in pending:
            task.cancel()
        if pending:
            loop.run_until_complete(
                asyncio.gather(*pending, return_exceptions=True)
            )
        loop.close()

    thread = threading.Thread(
        target=runner, name="netfront-server", daemon=True
    )
    thread.start()
    if not ready.wait(timeout_s):
        raise NetFrontError("netfront server failed to start in time")
    if failure:
        raise failure[0]
    return NetFrontHandle(server, loop, thread)


async def serve_until_signal(
    backend, config: Optional[NetFrontConfig] = None
) -> Dict[str, Any]:
    """CLI path: start, install SIGTERM/SIGINT handlers, serve until a
    signal triggers the drain, return the accounting report."""
    server = NetFrontServer(backend, config)
    await server.start()
    server.install_signal_handlers()
    print(
        f"netfront listening on {server.host}:{server.port}",
        flush=True,
    )
    await server.wait_stopped()
    return server.drain_report or {}
