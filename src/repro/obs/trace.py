"""Hierarchical trace spans for the whole pipeline.

A span measures one named unit of work (``dsp.range_fft``,
``model.forward``, ``serving.batch``) with wall-clock start/duration,
the identity of its parent span on the same thread, and arbitrary
key/value fields. Spans nest through a thread-local stack, so
concurrent sessions and worker threads each get a coherent ancestry
without any coordination; finished spans land in one bounded,
process-wide buffer.

Two exporters cover the common workflows:

* :meth:`Tracer.export_jsonl` -- one JSON object per line, trivially
  greppable and diffable;
* :meth:`Tracer.export_chrome` -- the Chrome trace-event format, load
  the file in ``chrome://tracing`` (or https://ui.perfetto.dev) to see
  the nested timeline per thread.

Spans also propagate **across process boundaries**: every span carries a
``trace_id`` (the root span's id), :meth:`Tracer.remote_context` parents
new spans under a ``(trace_id, parent_span_id)`` pair received from
another process (the gateway ships it in the shm-ring slot header), and
:func:`export_chrome_merged` folds span records from many processes into
one Chrome trace with per-process lanes. Span ids are seeded from the
pid so ids minted in a dispatcher and its forked workers never collide,
and every exported record carries a wall-clock ``start_unix`` so lanes
from different processes align on a shared axis.

The module-level functions operate on the process-global tracer so
instrumented library code only needs ``from repro.obs import trace``
and ``with trace.span("dsp.range_fft", frames=n): ...``. Tracing is
enabled by default; the per-span cost is two ``perf_counter`` calls and
one dict, and the buffer is bounded, so leaving it on in production is
deliberate.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Deque, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import ObservabilityError

# Span ids must stay unique across every process whose spans merge into
# one trace (dispatcher + gateway workers). Seeding the counter with the
# pid in the high bits gives each process its own id space without any
# cross-process coordination; the seed is re-derived after fork.
_ids_lock = threading.Lock()
_ids_pid: Optional[int] = None
_span_ids = itertools.count(1)


def _new_span_id() -> int:
    global _ids_pid, _span_ids
    pid = os.getpid()
    if pid != _ids_pid:
        with _ids_lock:
            if pid != _ids_pid:
                _span_ids = itertools.count(((pid & 0x3FFFFF) << 40) | 1)
                _ids_pid = pid
    return next(_span_ids)


class TraceContext:
    """A ``(trace_id, span_id)`` pair that can cross a process boundary."""

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: int, span_id: int) -> None:
        self.trace_id = trace_id
        self.span_id = span_id


class Span:
    """One unit of traced work; created by :meth:`Tracer.span`."""

    __slots__ = (
        "name", "span_id", "trace_id", "parent_id", "correlation_id",
        "start_s", "end_s", "fields", "status", "error", "thread_id",
        "thread_name",
    )

    def __init__(
        self,
        name: str,
        parent_id: Optional[int],
        correlation_id: Optional[str],
        start_s: float,
        fields: Dict[str, Any],
        trace_id: Optional[int] = None,
    ) -> None:
        self.name = name
        self.span_id = _new_span_id()
        # Root spans start a new trace: the trace id is their own id.
        self.trace_id = trace_id if trace_id else self.span_id
        self.parent_id = parent_id
        self.correlation_id = correlation_id
        self.start_s = start_s
        self.end_s: Optional[float] = None
        self.fields = fields
        self.status = "ok"
        self.error: Optional[str] = None
        thread = threading.current_thread()
        self.thread_id = thread.ident or 0
        self.thread_name = thread.name

    @property
    def duration_s(self) -> float:
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    def set(self, **fields: Any) -> None:
        """Attach extra fields to a live span."""
        self.fields.update(fields)

    def to_dict(self) -> Dict[str, Any]:
        record = {
            "name": self.name,
            "span_id": self.span_id,
            "trace_id": self.trace_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "status": self.status,
            "thread_id": self.thread_id,
            "thread_name": self.thread_name,
        }
        if self.correlation_id is not None:
            record["correlation_id"] = self.correlation_id
        if self.error is not None:
            record["error"] = self.error
        if self.fields:
            record["fields"] = dict(self.fields)
        return record


class Tracer:
    """Bounded collector of finished spans with thread-local nesting."""

    def __init__(self, capacity: int = 65536, enabled: bool = True) -> None:
        if capacity < 1:
            raise ObservabilityError("tracer capacity must be >= 1")
        self.enabled = enabled
        self._finished: Deque[Span] = deque(maxlen=capacity)
        self._local = threading.local()
        self._lock = threading.Lock()
        # Span timestamps are perf_counter-relative to ``_epoch``;
        # ``_epoch_unix`` is the matching wall-clock instant so spans
        # from different processes can be merged on one absolute axis,
        # and ``_epoch_monotonic`` the matching system-wide monotonic
        # instant, the clock of cross-process stage stamps.
        self._epoch = time.perf_counter()
        self._epoch_unix = time.time()
        self._epoch_monotonic = time.monotonic()

    # -- thread-local context ------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def current(self) -> Optional[Span]:
        """The innermost live span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def get_correlation(self) -> Optional[str]:
        return getattr(self._local, "correlation_id", None)

    def set_correlation(self, correlation_id: Optional[str]) -> None:
        """Set this thread's correlation id; inherited by new spans."""
        self._local.correlation_id = correlation_id

    @contextmanager
    def correlation(self, correlation_id: str) -> Iterator[None]:
        """Scope a correlation id over a block (restores the previous)."""
        previous = self.get_correlation()
        self.set_correlation(correlation_id)
        try:
            yield
        finally:
            self.set_correlation(previous)

    # -- cross-process context -----------------------------------------
    def current_context(self) -> Optional[TraceContext]:
        """The propagatable context of this thread's innermost span."""
        span = self.current()
        if span is not None:
            return TraceContext(span.trace_id, span.span_id)
        return getattr(self._local, "remote", None)

    @contextmanager
    def remote_context(
        self, trace_id: int, parent_span_id: int
    ) -> Iterator[None]:
        """Parent this thread's new root spans under a remote span.

        Used on the receiving side of a process boundary: the gateway
        worker scopes each frame's work under the ``(trace_id,
        parent_span_id)`` pair the dispatcher stamped into the ring slot
        header, so the worker's spans join the dispatcher's trace.
        A zero ``trace_id`` means "no context" and is a no-op scope.
        """
        if not trace_id:
            yield
            return
        previous = getattr(self._local, "remote", None)
        self._local.remote = TraceContext(trace_id, parent_span_id)
        try:
            yield
        finally:
            self._local.remote = previous

    # -- timestamp conversion ------------------------------------------
    def rel_from_monotonic(self, monotonic_ts: float) -> float:
        """A ``time.monotonic()`` timestamp -- possibly taken in another
        process, since the clock is system-wide -- as this tracer's
        relative seconds."""
        return monotonic_ts - self._epoch_monotonic

    def rel_from_perf(self, perf_ts: float) -> float:
        """A ``perf_counter`` timestamp as relative seconds."""
        return perf_ts - self._epoch

    def now_s(self) -> float:
        return time.perf_counter() - self._epoch

    # -- span lifecycle -------------------------------------------------
    @contextmanager
    def span(self, name: str, **fields: Any) -> Iterator[Optional[Span]]:
        """Trace a block as one span; exception-safe and re-raising.

        Yields the live :class:`Span` (or ``None`` when tracing is
        disabled) so callers can :meth:`Span.set` result fields.
        """
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is not None:
            parent_id: Optional[int] = parent.span_id
            trace_id: Optional[int] = parent.trace_id
        else:
            remote = getattr(self._local, "remote", None)
            if remote is not None:
                parent_id = remote.span_id
                trace_id = remote.trace_id
            else:
                parent_id = None
                trace_id = None
        span = Span(
            name,
            parent_id,
            self.get_correlation(),
            time.perf_counter() - self._epoch,
            fields,
            trace_id=trace_id,
        )
        stack.append(span)
        try:
            yield span
        except BaseException as exc:
            span.status = "error"
            span.error = type(exc).__name__
            raise
        finally:
            span.end_s = time.perf_counter() - self._epoch
            stack.pop()
            with self._lock:
                self._finished.append(span)

    def record(
        self,
        name: str,
        start_s: float,
        end_s: float,
        *,
        trace_id: Optional[int] = None,
        parent_id: Optional[int] = None,
        correlation_id: Optional[str] = None,
        status: str = "ok",
        **fields: Any,
    ) -> Optional[Span]:
        """Inject an already-timed span straight into the buffer.

        For work whose boundaries were measured out-of-band (the gateway
        worker attributes a batched forward to each frame after the
        fact): timestamps are this tracer's relative seconds (see
        :meth:`rel_from_monotonic` / :meth:`rel_from_perf`), and the parent
        may live in another process.
        """
        if not self.enabled:
            return None
        span = Span(
            name, parent_id, correlation_id, start_s, fields,
            trace_id=trace_id,
        )
        span.end_s = end_s
        span.status = status
        with self._lock:
            self._finished.append(span)
        return span

    # -- introspection --------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._finished)

    def _to_records(self, spans: List[Span]) -> List[Dict[str, Any]]:
        pid = os.getpid()
        records = []
        for span in spans:
            record = span.to_dict()
            record["pid"] = pid
            record["start_unix"] = self._epoch_unix + record["start_s"]
            records.append(record)
        return records

    def spans(self) -> List[Dict[str, Any]]:
        """Finished spans, oldest first, as plain dicts."""
        with self._lock:
            spans = list(self._finished)
        return self._to_records(spans)

    def drain(self) -> List[Dict[str, Any]]:
        """Pop every finished span as dicts (empties the buffer).

        Gateway workers drain on each stats request so repeated drains
        ship incremental batches over the control pipe.
        """
        with self._lock:
            spans = list(self._finished)
            self._finished.clear()
        return self._to_records(spans)

    def clear(self) -> None:
        with self._lock:
            self._finished.clear()

    @contextmanager
    def disabled(self) -> Iterator[None]:
        """Temporarily disable tracing (benchmark baselines, tests)."""
        previous = self.enabled
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = previous

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Aggregate finished spans by name: count / total / mean / max."""
        totals: Dict[str, Dict[str, float]] = {}
        for record in self.spans():
            entry = totals.setdefault(
                record["name"],
                {"count": 0, "total_s": 0.0, "mean_s": 0.0, "max_s": 0.0,
                 "errors": 0},
            )
            entry["count"] += 1
            entry["total_s"] += record["duration_s"]
            entry["max_s"] = max(entry["max_s"], record["duration_s"])
            if record["status"] != "ok":
                entry["errors"] += 1
        for entry in totals.values():
            entry["mean_s"] = entry["total_s"] / entry["count"]
        return totals

    # -- exporters ------------------------------------------------------
    def export_jsonl(self, path: str) -> str:
        """Write finished spans as JSON lines; returns ``path``."""
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(path, "w") as fh:
            for record in self.spans():
                fh.write(json.dumps(record, default=str) + "\n")
        return path

    def export_chrome(self, path: str) -> str:
        """Write finished spans in Chrome trace-event format.

        Emits complete ("ph": "X") events with microsecond timestamps;
        nesting is reconstructed by the viewer from the per-thread
        ts/dur stacking. Load in ``chrome://tracing`` or Perfetto.
        """
        events = []
        for record in sorted(self.spans(), key=lambda r: r["start_s"]):
            args: Dict[str, Any] = {
                "span_id": record["span_id"],
                "parent_id": record["parent_id"],
                "status": record["status"],
            }
            if "correlation_id" in record:
                args["correlation_id"] = record["correlation_id"]
            if "error" in record:
                args["error"] = record["error"]
            args.update(record.get("fields", {}))
            events.append(
                {
                    "name": record["name"],
                    "cat": record["name"].split(".", 1)[0],
                    "ph": "X",
                    "ts": record["start_s"] * 1e6,
                    "dur": record["duration_s"] * 1e6,
                    "pid": os.getpid(),
                    "tid": record["thread_id"],
                    "args": args,
                }
            )
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(
                {"traceEvents": events, "displayTimeUnit": "ms"},
                fh, default=str,
            )
        return path


def chrome_events(
    records: Iterable[Dict[str, Any]],
    process_names: Optional[Dict[int, str]] = None,
) -> List[Dict[str, Any]]:
    """Span records (possibly from many processes) as Chrome events.

    Records are aligned on their wall-clock ``start_unix`` (falling back
    to ``start_s`` for legacy records), normalised so the earliest event
    sits at ts=0, and each distinct pid gets a ``process_name`` metadata
    event (a named lane in Perfetto); threads likewise get
    ``thread_name`` metadata.
    """
    records = sorted(
        records, key=lambda r: r.get("start_unix", r["start_s"])
    )
    if not records:
        return []
    base = min(r.get("start_unix", r["start_s"]) for r in records)
    events: List[Dict[str, Any]] = []
    seen_pids: Dict[int, str] = {}
    seen_threads: Dict[Tuple[int, int], str] = {}
    for record in records:
        pid = record.get("pid", os.getpid())
        tid = record["thread_id"]
        if pid not in seen_pids:
            seen_pids[pid] = (process_names or {}).get(pid, f"pid-{pid}")
        thread_key = (pid, tid)
        if thread_key not in seen_threads:
            seen_threads[thread_key] = record.get("thread_name", str(tid))
        args: Dict[str, Any] = {
            "span_id": record["span_id"],
            "trace_id": record.get("trace_id"),
            "parent_id": record["parent_id"],
            "status": record["status"],
        }
        if "correlation_id" in record:
            args["correlation_id"] = record["correlation_id"]
        if "error" in record:
            args["error"] = record["error"]
        args.update(record.get("fields", {}))
        events.append(
            {
                "name": record["name"],
                "cat": record["name"].split(".", 1)[0],
                "ph": "X",
                "ts": (record.get("start_unix", record["start_s"]) - base)
                * 1e6,
                "dur": record["duration_s"] * 1e6,
                "pid": pid,
                "tid": tid,
                "args": args,
            }
        )
    metadata: List[Dict[str, Any]] = []
    for index, (pid, name) in enumerate(sorted(seen_pids.items())):
        metadata.append(
            {"name": "process_name", "ph": "M", "pid": pid,
             "args": {"name": name}}
        )
        metadata.append(
            {"name": "process_sort_index", "ph": "M", "pid": pid,
             "args": {"sort_index": index}}
        )
    for (pid, tid), name in sorted(seen_threads.items()):
        metadata.append(
            {"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
             "args": {"name": name}}
        )
    return metadata + events


def export_chrome_merged(
    path: str,
    records: Iterable[Dict[str, Any]],
    process_names: Optional[Dict[int, str]] = None,
) -> str:
    """Write span records from many processes as one Chrome trace."""
    events = chrome_events(records, process_names)
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(
            {"traceEvents": events, "displayTimeUnit": "ms"},
            fh, default=str,
        )
    return path


_GLOBAL = Tracer()


def get_tracer() -> Tracer:
    """The process-global tracer used by the instrumented library."""
    return _GLOBAL


def span(name: str, **fields: Any):
    """``with trace.span("dsp.range_fft", frames=n):`` on the global
    tracer."""
    return _GLOBAL.span(name, **fields)


def current() -> Optional[Span]:
    return _GLOBAL.current()


def correlation(correlation_id: str):
    return _GLOBAL.correlation(correlation_id)


def current_context() -> Optional[TraceContext]:
    return _GLOBAL.current_context()


def remote_context(trace_id: int, parent_span_id: int):
    return _GLOBAL.remote_context(trace_id, parent_span_id)


def record(name: str, start_s: float, end_s: float, **kwargs: Any):
    return _GLOBAL.record(name, start_s, end_s, **kwargs)


def drain() -> List[Dict[str, Any]]:
    return _GLOBAL.drain()


def set_correlation(correlation_id: Optional[str]) -> None:
    _GLOBAL.set_correlation(correlation_id)


def get_correlation() -> Optional[str]:
    return _GLOBAL.get_correlation()


def export_chrome(path: str) -> str:
    return _GLOBAL.export_chrome(path)


def export_jsonl(path: str) -> str:
    return _GLOBAL.export_jsonl(path)


def clear() -> None:
    _GLOBAL.clear()


def summary() -> Dict[str, Dict[str, float]]:
    return _GLOBAL.summary()
