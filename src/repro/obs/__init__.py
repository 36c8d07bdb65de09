"""Observability for the whole pipeline: traces, metrics, logs.

``repro.obs`` is the dependency-free layer every other subsystem
reports through (the only imports are numpy and the error hierarchy):

* :mod:`repro.obs.trace` -- hierarchical trace spans
  (``with trace.span("dsp.range_fft", frames=n):``) with thread-safe
  context propagation and exporters to JSONL and the Chrome
  ``chrome://tracing`` format;
* :mod:`repro.obs.metrics` -- the unified
  :class:`~repro.obs.metrics.MetricsRegistry` with collectors,
  Prometheus text exposition and a process-global facade;
* :mod:`repro.obs.logging` -- structured logfmt/JSON logging with rate
  limiting and span/session correlation ids;
* :mod:`repro.obs.profiler` -- a sampling profiler
  (``sys._current_frames()`` on a timer thread) with folded-stack
  export and picklable, mergeable per-process profiles.

Span and metric names follow ``layer.component.unit``
(``dsp.cube.bandpass_s``, ``radar.synthesize.sequence``,
``train.epoch.loss``); see DESIGN.md "Observability" for the taxonomy.
"""

from repro.obs import logging, metrics, profiler, trace
from repro.obs.logging import StructuredLogger, configure, get_logger
from repro.obs.metrics import (
    Counter,
    EventLog,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
)
from repro.obs.profiler import SamplingProfiler, merge_profiles
from repro.obs.trace import Span, TraceContext, Tracer, get_tracer

__all__ = [
    "Counter",
    "EventLog",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SamplingProfiler",
    "Span",
    "StructuredLogger",
    "TraceContext",
    "Tracer",
    "configure",
    "get_logger",
    "get_registry",
    "get_tracer",
    "logging",
    "merge_profiles",
    "metrics",
    "profiler",
    "trace",
]
