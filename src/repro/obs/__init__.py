"""Unified observability: flight-recorder tracing, metrics, and reports.

Three faces, one substrate:

* :mod:`repro.obs.trace` — the :class:`FlightRecorder` every mission run
  records its per-phase timings and frame counters into, and the framed
  JSONL trace files a traced campaign writes its summaries to.  Strictly a
  side channel: campaign records stay byte-identical with tracing on or
  off.
* :mod:`repro.obs.metrics` — the process-local :data:`METRICS` registry of
  counters/gauges/histograms fed by the mission runner, the dispatch
  worker/queue, the fault-space probe backends and the campaign service,
  exported deterministically and served as Prometheus text on
  ``GET /metrics``.
* :mod:`repro.obs.report` — ``python -m repro.obs report <dir>``, the
  deterministic per-phase time-breakdown over a trace directory, and
  ``python -m repro.obs compare <a> <b>`` (:mod:`repro.obs.compare`), the
  statistical per-phase regression attribution between two of them.

Fleet-wide aggregation rides the same substrate: every worker process
flushes crash-safe snapshots of its registry
(:func:`repro.obs.export.flush_metrics`) into its dispatch directory, and
:func:`repro.obs.aggregate.fleet_render` merges any set of snapshots —
deterministically, regardless of arrival order — into one Prometheus page,
which is what the campaign service serves on ``GET /metrics``.

This package sits low in the layer order: ``trace`` depends only on
:mod:`repro.jsonl` and ``metrics``/``export``/``aggregate`` on the stdlib,
so core, dispatch, faults and service layers can all instrument themselves
without import cycles (``report`` and ``compare`` pull in the bench table
renderers and are imported lazily by the CLI).
"""

from repro.obs.aggregate import fleet_render, merge_snapshots, render_merged
from repro.obs.export import MetricsExporter, flush_metrics, process_exporter
from repro.obs.metrics import METRICS, Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.trace import (
    PHASES,
    TRACE_KIND,
    TRACE_SCHEMA_VERSION,
    FlightRecorder,
    append_trace_summary,
    iter_trace_summaries,
    trace_filename,
)

__all__ = [
    "METRICS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsExporter",
    "MetricsRegistry",
    "fleet_render",
    "flush_metrics",
    "merge_snapshots",
    "process_exporter",
    "render_merged",
    "PHASES",
    "TRACE_KIND",
    "TRACE_SCHEMA_VERSION",
    "FlightRecorder",
    "append_trace_summary",
    "iter_trace_summaries",
    "trace_filename",
]
