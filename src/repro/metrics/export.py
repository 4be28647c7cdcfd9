"""Result export: migration reports and fault logs as JSON-ready dicts.

Recorded series live in the run's
:class:`~repro.telemetry.MetricsRegistry` and export through
:mod:`repro.telemetry.export` (JSONL, Prometheus text, CSV); these
helpers turn :class:`~repro.core.base.MigrationReport` objects and
:class:`~repro.faults.FaultLog` timelines into plain dicts for
``json.dumps``.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Any, Optional

__all__ = ["fault_log_to_dict", "report_to_dict"]


def report_to_dict(report: Any) -> dict:
    """A migration report as a JSON-ready dict (including derived
    totals, which dataclass serialization would drop)."""
    out = dataclasses.asdict(report)
    for key, value in out.items():
        if isinstance(value, enum.Enum):
            out[key] = value.value
    out["total_bytes"] = report.total_bytes
    out["total_time"] = report.total_time
    return out


def fault_log_to_dict(log: Any, until: Optional[float] = None) -> dict:
    """A :class:`~repro.faults.FaultLog` as a JSON-ready dict: the event
    timeline plus the downtime-attribution summary. ``until`` truncates
    still-open VM outages (defaults to the last event's time)."""
    events = log.to_rows()
    if until is None:
        until = events[-1][0] if events else 0.0
    return {
        "events": [{"t": t, "action": action, "kind": kind,
                    "target": target, "detail": detail}
                   for t, action, kind, target, detail in events],
        "outages": [{"vm": vm, "start": start, "end": end}
                    for vm, start, end in log.outages],
        "mttr": log.mttr(),
        "vm_unavailable_seconds": log.vm_unavailable_seconds(until),
        "unavailable_vms": log.unavailable_vms(),
    }
