"""Unified metrics for every layer of the pipeline.

The pipeline-wide metrics registry: deliberately small and
dependency-free, in the spirit of Prometheus client libraries --
counters (monotonic), gauges (set/sample), latency histograms with
streaming percentile summaries, and a bounded structured event log.
Everything is thread-safe.

Beyond the original serving registry it adds:

* **collectors** -- callbacks run at snapshot/exposition time that pull
  third-party state (the DSP plan cache, queue depths) into first-class
  instruments, so derived metrics are never stale;
* **Prometheus text exposition** (:meth:`MetricsRegistry.to_prometheus`)
  alongside the plain-dict :meth:`MetricsRegistry.snapshot`;
* a **process-global registry** (:func:`get_registry` and the
  module-level :func:`counter`/:func:`gauge`/:func:`histogram` facade)
  shared by the DSP, radar, model and training layers.

Metric names follow ``layer.component.unit`` (``dsp.plan_cache.hits``,
``train.epoch.loss``); the Prometheus renderer sanitises them to
``mmhand_layer_component_unit``. Serving keeps its historical bare
names (``poses``, ``latency_s``) for snapshot compatibility.
"""

from __future__ import annotations

import re
import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional

import numpy as np

from repro.errors import ServingError


class Counter:
    """A monotonically increasing counter."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def increment(self, amount: int = 1) -> None:
        if amount < 0:
            raise ServingError(
                f"counter {self.name!r} cannot decrease (amount={amount})"
            )
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """A value that can move both ways (queue depth, open sessions)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += float(delta)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


# Default cumulative bucket bounds for the Prometheus exposition --
# latency-oriented (seconds), from half a millisecond to ten seconds;
# +Inf is implicit and added by the renderer.
DEFAULT_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0,
)


class Histogram:
    """Reservoir of observations with percentile summaries.

    Keeps the most recent ``capacity`` observations (sliding reservoir);
    for serving latencies this biases the percentiles toward current
    behaviour, which is what a live dashboard wants. Lifetime ``count``,
    ``sum`` and ``mean`` cover every observation ever made;
    ``window_mean`` is the mean of the retained window only. Alongside
    the reservoir, every observation lands in a fixed set of cumulative
    lifetime buckets (``bucket_counts``) so the Prometheus exposition
    can emit true ``le``-labelled histogram series.
    """

    def __init__(
        self,
        name: str,
        capacity: int = 4096,
        buckets: Optional[tuple] = None,
    ) -> None:
        if capacity < 1:
            raise ServingError("histogram capacity must be >= 1")
        self.name = name
        self._samples: Deque[float] = deque(maxlen=capacity)
        self._count = 0
        self._total = 0.0
        self.buckets = tuple(sorted(buckets or DEFAULT_BUCKETS))
        # _bucket_counts[i] counts observations <= buckets[i]
        # (cumulative, lifetime); observations above the last bound only
        # land in the implicit +Inf bucket (== lifetime count).
        self._bucket_counts = [0] * len(self.buckets)
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._samples.append(value)
            self._count += 1
            self._total += value
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    for i in range(index, len(self.buckets)):
                        self._bucket_counts[i] += 1
                    break

    def bucket_counts(self) -> List[tuple]:
        """Cumulative ``(le, count)`` pairs, ending with ``(inf, n)``."""
        with self._lock:
            pairs = list(zip(self.buckets, self._bucket_counts))
            pairs.append((float("inf"), self._count))
        return pairs

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        """Lifetime sum of every observed value."""
        with self._lock:
            return self._total

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0-100) of the retained samples."""
        with self._lock:
            if not self._samples:
                return 0.0
            return float(np.percentile(np.asarray(self._samples), q))

    def summary(self) -> Dict[str, float]:
        with self._lock:
            if not self._samples:
                return {
                    "count": self._count, "sum": 0.0, "mean": 0.0,
                    "window_mean": 0.0,
                    "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0,
                }
            arr = np.asarray(self._samples)
            p50, p95, p99 = np.percentile(arr, [50.0, 95.0, 99.0])
            return {
                "count": self._count,
                "sum": self._total,
                "mean": self._total / self._count,
                "window_mean": float(arr.mean()),
                "p50": float(p50),
                "p95": float(p95),
                "p99": float(p99),
                "max": float(arr.max()),
            }


class EventLog:
    """Bounded structured event log.

    Events are plain dicts with a monotonically increasing sequence
    number and a relative timestamp; the log keeps the most recent
    ``capacity`` entries and counts how many it has evicted
    (:attr:`dropped`) so ring saturation is visible rather than silent.
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ServingError("event log capacity must be >= 1")
        self._events: Deque[Dict[str, Any]] = deque(maxlen=capacity)
        self._seq = 0
        self._dropped = 0
        self._start = time.perf_counter()
        self._lock = threading.Lock()

    def emit(self, kind: str, **fields: Any) -> Dict[str, Any]:
        with self._lock:
            event = {
                "seq": self._seq,
                "t_s": time.perf_counter() - self._start,
                "kind": kind,
                **fields,
            }
            self._seq += 1
            if len(self._events) == self._events.maxlen:
                self._dropped += 1
            self._events.append(event)
            return event

    @property
    def emitted(self) -> int:
        """Lifetime count of events ever emitted."""
        with self._lock:
            return self._seq

    @property
    def dropped(self) -> int:
        """Events evicted because the ring was full."""
        with self._lock:
            return self._dropped

    def tail(self, count: Optional[int] = None) -> List[Dict[str, Any]]:
        with self._lock:
            events = list(self._events)
        if count is None:
            return events
        return events[-count:]

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)


def _prometheus_name(name: str, prefix: str = "mmhand") -> str:
    """Sanitise a ``layer.component.unit`` name for Prometheus."""
    sanitised = re.sub(r"[^a-zA-Z0-9_]", "_", name)
    sanitised = re.sub(r"_+", "_", sanitised).strip("_")
    return f"{prefix}_{sanitised}"


class MetricsRegistry:
    """Namespace of counters, gauges and histograms plus the event log.

    Instruments are created on first use so call sites never need to
    pre-declare them; :meth:`snapshot` renders everything to plain
    python values for ``server.stats()`` and JSON reports, and
    :meth:`to_prometheus` renders the text exposition format.
    Registered collectors are invoked before either rendering so
    derived instruments (plan-cache counters, queue depth) are fresh.
    """

    def __init__(self, histogram_capacity: int = 4096,
                 event_capacity: int = 1024) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._histogram_capacity = histogram_capacity
        self._collectors: List[Callable[["MetricsRegistry"], None]] = []
        self._help: Dict[str, str] = {}
        self.events = EventLog(event_capacity)
        self._lock = threading.Lock()

    def describe(self, name: str, help_text: str) -> None:
        """Attach a ``# HELP`` string to an instrument by name."""
        with self._lock:
            self._help[name] = help_text

    def counter(self, name: str) -> Counter:
        with self._lock:
            if name not in self._counters:
                self._counters[name] = Counter(name)
            return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            if name not in self._gauges:
                self._gauges[name] = Gauge(name)
            return self._gauges[name]

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            if name not in self._histograms:
                self._histograms[name] = Histogram(
                    name, self._histogram_capacity
                )
            return self._histograms[name]

    def register_collector(
        self, collect: Callable[["MetricsRegistry"], None]
    ) -> None:
        """Register a callback that refreshes derived instruments.

        Collectors run (in registration order) at the start of
        :meth:`snapshot` and :meth:`to_prometheus`. Registering the
        same callable twice is a no-op.
        """
        with self._lock:
            if collect not in self._collectors:
                self._collectors.append(collect)

    def _run_collectors(self) -> None:
        with self._lock:
            collectors = list(self._collectors)
        for collect in collectors:
            collect(self)

    def snapshot(self) -> Dict[str, Any]:
        self._run_collectors()
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {n: c.value for n, c in counters.items()},
            "gauges": {n: g.value for n, g in gauges.items()},
            "histograms": {n: h.summary() for n, h in histograms.items()},
            "events": len(self.events),
            "events_emitted": self.events.emitted,
            "events_dropped": self.events.dropped,
        }

    def _help_text(self, name: str, kind: str) -> str:
        with self._lock:
            text = self._help.get(name)
        return text or f"{kind} {name!r} (mmhand pipeline)"

    @staticmethod
    def _fmt_le(bound: float) -> str:
        if bound == float("inf"):
            return "+Inf"
        text = f"{bound:.10f}".rstrip("0").rstrip(".")
        return text or "0"

    def to_prometheus(self, prefix: str = "mmhand") -> str:
        """Render the registry in Prometheus text exposition format.

        Counters become ``<prefix>_<name>_total``, gauges
        ``<prefix>_<name>``, and histograms full Prometheus
        *histograms*: cumulative ``_bucket{le=...}`` series (lifetime
        counts, ``+Inf`` included) plus ``_sum``/``_count``, with the
        reservoir quantiles kept alongside as ``<metric>_quantiles``
        summary series for dashboards that want percentiles without
        server-side ``histogram_quantile``. Every metric gets a
        ``# HELP`` line (override with :meth:`describe`).
        """
        self._run_collectors()
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        lines: List[str] = []
        for name in sorted(counters):
            metric = _prometheus_name(name, prefix)
            if not metric.endswith("_total"):
                metric += "_total"
            lines.append(f"# HELP {metric} {self._help_text(name, 'counter')}")
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {counters[name].value}")
        for name in sorted(gauges):
            metric = _prometheus_name(name, prefix)
            lines.append(f"# HELP {metric} {self._help_text(name, 'gauge')}")
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {gauges[name].value}")
        for name in sorted(histograms):
            metric = _prometheus_name(name, prefix)
            histogram = histograms[name]
            summary = histogram.summary()
            lines.append(
                f"# HELP {metric} {self._help_text(name, 'histogram')}"
            )
            lines.append(f"# TYPE {metric} histogram")
            for bound, count in histogram.bucket_counts():
                lines.append(
                    f'{metric}_bucket{{le="{self._fmt_le(bound)}"}} {count}'
                )
            lines.append(f"{metric}_sum {summary['sum']}")
            lines.append(f"{metric}_count {summary['count']}")
            quantile_metric = f"{metric}_quantiles"
            lines.append(
                f"# HELP {quantile_metric} reservoir quantiles of "
                f"{name!r} (sliding window)"
            )
            lines.append(f"# TYPE {quantile_metric} summary")
            for label, key in (("0.5", "p50"), ("0.95", "p95"),
                               ("0.99", "p99")):
                lines.append(
                    f'{quantile_metric}{{quantile="{label}"}} {summary[key]}'
                )
        events_metric = f"{prefix}_events_dropped_total"
        lines.append(
            f"# HELP {events_metric} events evicted from the bounded "
            "event log (ring saturation)"
        )
        lines.append(f"# TYPE {events_metric} counter")
        lines.append(f"{events_metric} {self.events.dropped}")
        emitted_metric = f"{prefix}_events_emitted_total"
        lines.append(
            f"# HELP {emitted_metric} events ever emitted into the "
            "event log"
        )
        lines.append(f"# TYPE {emitted_metric} counter")
        lines.append(f"{emitted_metric} {self.events.emitted}")
        return "\n".join(lines) + "\n"


# HELP strings for the network front end's instruments, attached by the
# server at startup so a Prometheus scrape of a serving process is
# self-describing (`mmhand_netfront_*`).
NETFRONT_METRIC_HELP = {
    "netfront.connections_opened":
        "TCP connections admitted past the admission gate",
    "netfront.connections_rejected":
        "TCP connections refused at admission (limits, lockout, "
        "health ladder, drain)",
    "netfront.connections_closed": "TCP connections torn down",
    "netfront.disconnects": "connections dropped by the peer mid-stream",
    "netfront.auth_failures": "HELLO frames with a bad token",
    "netfront.handshake_timeouts":
        "connections that missed the handshake deadline",
    "netfront.sessions_opened": "gateway sessions opened over the wire",
    "netfront.sessions_rejected":
        "OPEN requests refused (session limit or degraded pool)",
    "netfront.frames_in": "radar frames received on the wire",
    "netfront.frames_submitted": "frames forwarded into Gateway.submit",
    "netfront.frames_rejected":
        "frames refused (unknown session, drain, backpressure deadline)",
    "netfront.submit_deadlines":
        "frames that waited out the submit deadline on full rings",
    "netfront.poses_out": "pose results queued to clients",
    "netfront.poses_shed":
        "oldest poses shed from bounded outbound queues (slow consumer)",
    "netfront.poses_orphaned":
        "poses whose owning connection had already closed",
    "netfront.protocol_errors":
        "connections quarantined for malformed bytes (dead-lettered)",
    "netfront.idle_reaped": "connections reaped by the idle deadline",
    "netfront.read_deadline_closes":
        "connections closed for stalling mid-message (slowloris)",
    "netfront.write_deadline_closes":
        "connections closed because a socket write stalled",
    "netfront.bytes_in": "bytes read off client sockets",
    "netfront.bytes_out": "bytes written to client sockets",
    "netfront.connection_setup_s":
        "accept-to-welcome handshake latency (seconds)",
    "netfront.submit_wait_s":
        "time one frame waited for ring space before submit (seconds)",
}


def describe_netfront_metrics(registry: "MetricsRegistry") -> None:
    """Attach the ``netfront.*`` HELP strings to ``registry``."""
    for name, help_text in NETFRONT_METRIC_HELP.items():
        registry.describe(name, help_text)


_GLOBAL = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global registry shared by the pipeline layers."""
    return _GLOBAL


def counter(name: str) -> Counter:
    """``metrics.counter("dsp.plan_cache.hits")`` on the global registry."""
    return _GLOBAL.counter(name)


def gauge(name: str) -> Gauge:
    return _GLOBAL.gauge(name)


def histogram(name: str) -> Histogram:
    return _GLOBAL.histogram(name)


def emit(kind: str, **fields: Any) -> Dict[str, Any]:
    """Emit a structured event into the global registry's event log."""
    return _GLOBAL.events.emit(kind, **fields)
