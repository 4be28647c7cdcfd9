"""Tests for metrics export (report dicts, long-form series CSV)."""

import csv
import json

from repro.core.base import MigrationReport
from repro.metrics import report_to_dict
from repro.telemetry import MetricsRegistry, metrics_to_csv


def sample_registry():
    r = MetricsRegistry()
    for t in range(5):
        r.record("vm0.throughput", float(t), float(t * 10))
        r.record("vm0.reservation", float(t), 100.0 - t)
    r.inc("vm0.faults")  # an instrument, not a series: never exported
    return r


def test_report_to_dict_includes_derived_fields():
    rep = MigrationReport("agile", "vm0", start_time=1.0)
    rep.end_time = 11.0
    rep.precopy_bytes = 100.0
    rep.metadata_bytes = 1.0
    d = report_to_dict(rep)
    assert d["technique"] == "agile"
    assert d["total_bytes"] == 101.0
    assert d["total_time"] == 10.0
    json.dumps(d)  # must be JSON-serializable


def test_metrics_to_csv_long_form(tmp_path):
    reg = sample_registry()
    reg.set("pressure", 0.5)  # a live gauge is a series too
    path = metrics_to_csv(reg, tmp_path / "all.csv")
    rows = list(csv.reader(path.open()))
    assert rows[0] == ["series", "t", "value"]
    # series name-sorted, samples in time order within each
    assert [r[0] for r in rows[1:]] == \
        ["pressure"] + ["vm0.reservation"] * 5 + ["vm0.throughput"] * 5
    assert rows[-1] == ["vm0.throughput", "4.0", "40.0"]


def test_metrics_to_csv_selected_names(tmp_path):
    path = metrics_to_csv(sample_registry(), tmp_path / "sel.csv",
                          names=["vm0.throughput"])
    rows = list(csv.reader(path.open()))
    assert len(rows) == 1 + 5
    assert [float(r[1]) for r in rows[1:]] == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert [float(r[2]) for r in rows[1:]] == [0.0, 10.0, 20.0, 30.0, 40.0]


def test_metrics_to_csv_empty_registry(tmp_path):
    unsampled = MetricsRegistry()
    unsampled.gauge("empty")  # a series with no samples adds no rows
    for reg in (MetricsRegistry(), unsampled):
        path = metrics_to_csv(reg, tmp_path / "e.csv")
        rows = list(csv.reader(path.open()))
        assert rows == [["series", "t", "value"]]


def test_csv_roundtrip_preserves_float_precision(tmp_path):
    reg = MetricsRegistry()
    reg.record("x", 1 / 3, 0.1 + 0.2)  # values repr() must round-trip
    path = metrics_to_csv(reg, tmp_path / "p.csv")
    _, row = list(csv.reader(path.open()))
    s = reg.series("x")
    assert row[0] == "x"
    assert float(row[1]) == s.t[0]
    assert float(row[2]) == s.v[0]
