"""Telemetry: spans -> trace export, metrics registry, run artifacts.

The observability stack, bottom-up:

- :mod:`repro.hardware.clock` records :class:`Span`s on the shared timeline;
- :mod:`repro.telemetry.trace` exports the timeline as Chrome trace-event
  JSON (Perfetto / ``chrome://tracing``);
- :mod:`repro.telemetry.metrics` is the registry every data-path op reports
  counters/gauges/histograms to;
- :mod:`repro.telemetry.run_report` bundles config + phase breakdown +
  bandwidths + metrics snapshot into the per-run JSON manifest that
  ``benchmarks/compare_runs.py`` diffs between commits;
- utilization / bandwidth / cache are the derived views the paper figures
  are read from.
"""

from repro.telemetry.utilization import utilization_trace, mean_utilization
from repro.telemetry.bandwidth import algo_bw, bus_bw, bw_from_gather_stats
from repro.telemetry.cache import cache_report, per_rank_cache_stats
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    set_registry,
)
from repro.telemetry.report import format_table
from repro.telemetry.run_report import RunReport, report_from_node
from repro.telemetry.trace import export_chrome_trace, trace_events

__all__ = [
    "utilization_trace",
    "mean_utilization",
    "algo_bw",
    "bus_bw",
    "bw_from_gather_stats",
    "cache_report",
    "per_rank_cache_stats",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
    "format_table",
    "RunReport",
    "report_from_node",
    "export_chrome_trace",
    "trace_events",
]
