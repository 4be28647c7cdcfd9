"""Observability: sim-clock tracing, exporters, and a self-profiler.

The tracing layer answers the *why* questions the aggregate series of
a :class:`~repro.telemetry.MetricsRegistry` cannot — which precopy round
stalled, which planner decision bounced a VM, which fault window an
abort fell into — as time-aligned spans and events across every
subsystem. Traces are bound to the simulation clock, so a trace is as
deterministic as the run itself. See DESIGN.md §8.
"""

from repro.obs.tracer import NULL_TRACER, NullTracer, Span, TraceEvent, Tracer
from repro.obs.export import (
    chrome_trace_doc,
    spans_of,
    trace_to_chrome,
    trace_to_jsonl,
)
from repro.obs.check import missing_categories, validate_chrome_trace
from repro.obs.profiler import SelfProfiler

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "SelfProfiler",
    "Span",
    "TraceEvent",
    "Tracer",
    "chrome_trace_doc",
    "missing_categories",
    "spans_of",
    "trace_to_chrome",
    "trace_to_jsonl",
    "validate_chrome_trace",
]
