"""Inference service runtime: many radar sessions, one shared model.

``repro.serving`` multiplexes concurrent client streams through a
single :class:`~repro.core.regressor.HandJointRegressor`:

* :class:`Session` / :class:`FrameWindow` -- per-client sliding-window
  state (factored out of the single-session streaming estimator);
* :class:`RequestQueue` -- bounded admission that blocks producers
  while full, with per-session fairness;
* :class:`MicroBatcher` -- fuses ready windows across sessions into one
  batched forward pass, with a content-hash LRU :class:`SegmentCache`;
* :class:`MetricsRegistry` -- counters, gauges, latency histograms and
  a structured event log, snapshotted by ``InferenceServer.stats()``;
* :class:`InferenceServer` -- the composition, run inside every
  gateway worker behind ``mmhand serve --listen``.

Failures degrade instead of crashing (see DESIGN.md "Resilience"):
malformed frames are quarantined into the server's
:class:`~repro.resilience.DeadLetterLog`, the compiled inference plan
runs behind a :class:`~repro.resilience.CircuitBreaker` that falls
back to the eager forward, and per-session
:class:`~repro.resilience.ErrorBudget` objects drive the
healthy/degraded/unhealthy ladder reported by
``InferenceServer.health()`` / ``stats()`` / Prometheus.
"""

from repro.serving.batcher import MicroBatcher, PoseResult
from repro.serving.cache import SegmentCache, segment_key
from repro.obs.metrics import (
    Counter,
    EventLog,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.serving.queue import RequestQueue
from repro.serving.server import InferenceServer, ServingConfig
from repro.serving.session import FrameWindow, SegmentRequest, Session

__all__ = [
    "Counter",
    "EventLog",
    "FrameWindow",
    "Gauge",
    "Histogram",
    "InferenceServer",
    "MetricsRegistry",
    "MicroBatcher",
    "PoseResult",
    "RequestQueue",
    "SegmentCache",
    "SegmentRequest",
    "ServingConfig",
    "Session",
    "segment_key",
]
