"""Telemetry: the run's metrics store, SLO probes, pressure index.

Where :mod:`repro.obs` records *events* for post-hoc analysis, this
package keeps the run's numbers. A :class:`MetricsRegistry` is the one
series store: its gauges are :class:`~repro.metrics.TimeSeries`, so the
per-tick series the paper's figures read (``World.recorder``) and the
live instruments the control plane consumes mid-run (counters, gauges,
histograms, windowed rates) share one dotted namespace, all stamped on
the sim clock (same seed ⇒ byte-identical exports). One exporter set
writes it: JSONL snapshot, Prometheus text, long-form CSV. Also here:
per-tenant :class:`SloMonitor` probes with per-migration violation
attribution, and a cluster :class:`PressureIndex`. See DESIGN.md §12.
"""

from repro.telemetry.instruments import (
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    WindowedRate,
)
from repro.telemetry.export import (
    metrics_snapshot,
    metrics_to_csv,
    metrics_to_jsonl,
    metrics_to_prometheus,
    prometheus_text,
)
from repro.telemetry.slo import SloMonitor, SloSpec, slo_aware_selector
from repro.telemetry.pressure import PressureConfig, PressureIndex
from repro.telemetry.dashboard import render_dashboard

__all__ = [
    "NULL_METRICS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "PressureConfig",
    "PressureIndex",
    "SloMonitor",
    "SloSpec",
    "WindowedRate",
    "metrics_snapshot",
    "metrics_to_csv",
    "metrics_to_jsonl",
    "metrics_to_prometheus",
    "prometheus_text",
    "render_dashboard",
    "slo_aware_selector",
]
