"""Observability: exposition, lifecycle events, SLOs and live profiling.

Small, dependency-free subsystems every serving layer shares:

* :mod:`repro.observability.exposition` -- renders a
  :class:`~repro.metrics.MetricsRegistry`'s labeled families as
  Prometheus text format 0.0.4 and serves it over a lightweight HTTP
  endpoint (:class:`MetricsExporter`) that also routes JSON side pages
  such as ``/healthz`` and ``/readyz``, plus the label-merge helper
  ``Federation.scrape_all()`` uses for single-pane scraping;
* :mod:`repro.observability.logs` -- one bounded ring of leveled events
  per member (:class:`LogRecorder`) keyed by wire-propagated trace ids
  (:func:`new_trace_id`): a trace is its export filtered to traced events,
  so one publication's lifecycle (queue wait, shard settle, verdict push,
  verdict flip) can be reconstructed even across process pods, and logs
  are its export filtered by level, with an optional JSON-lines sink;
* :mod:`repro.observability.slo` -- declared per-op latency objectives
  and an availability error budget evaluated as multi-window burn rates
  (:class:`SloEvaluator`), exported as ``repro_slo_*`` gauges;
* :mod:`repro.observability.profiling` -- a sampling profiler
  (:class:`SamplingProfiler`) over ``sys._current_frames()`` producing
  flamegraph-compatible collapsed stacks from a live process.
"""

from repro.observability.exposition import (
    EXPOSITION_CONTENT_TYPE,
    MetricsExporter,
    merge_expositions,
    render_exposition,
)
from repro.observability.logs import LogRecorder, new_trace_id
from repro.observability.profiling import SamplingProfiler
from repro.observability.slo import DEFAULT_OBJECTIVES, LatencyObjective, SloEvaluator

__all__ = [
    "DEFAULT_OBJECTIVES",
    "EXPOSITION_CONTENT_TYPE",
    "LatencyObjective",
    "LogRecorder",
    "MetricsExporter",
    "SamplingProfiler",
    "SloEvaluator",
    "merge_expositions",
    "new_trace_id",
    "render_exposition",
]
