"""Measurement: time series, report helpers, and terminal rendering.

Everything the paper's evaluation plots or tabulates is computed from
these primitives: per-tick throughput series (Figures 4-6, 10), migration
reports (Tables II-III, Figures 7-8), and WSS traces (Figure 9). A run's
series are the gauges of its :class:`~repro.telemetry.MetricsRegistry`
(``World.recorder``); each gauge is a :class:`TimeSeries`, and the
registry's series API (``record``, ``series``, ``has``, ``names``) is
its base class :class:`~repro.metrics.recorder.Recorder`.
"""

from repro.metrics.series import TimeSeries
from repro.metrics.analysis import recovery_time, window_mean
from repro.metrics.export import fault_log_to_dict, report_to_dict

__all__ = [
    "TimeSeries",
    "fault_log_to_dict",
    "recovery_time",
    "report_to_dict",
    "window_mean",
]
