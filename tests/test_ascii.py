"""Tests for terminal rendering helpers."""

from repro.metrics.ascii import format_table, span_timeline, sparkline


def test_sparkline_monotone():
    line = sparkline(list(range(100)), width=10)
    assert len(line) == 10
    assert line[0] in " .:"
    assert line[-1] in "%@"
    # density is non-decreasing for a monotone series
    blocks = " .:-=+*#%@"
    levels = [blocks.index(c) for c in line]
    assert levels == sorted(levels)


def test_sparkline_empty_and_flat():
    assert sparkline([]) == ""
    assert sparkline([0.0, 0.0], width=5) == "  "


def test_sparkline_short_input():
    assert len(sparkline([1.0, 2.0], width=70)) == 2


def test_format_table_alignment():
    lines = format_table(["name", "value"],
                         [["pre-copy", 470.0], ["agile", 108.0]])
    assert len(lines) == 3
    assert "pre-copy" in lines[1]
    assert lines[1].index("470.0") > lines[1].index("pre-copy")
    # numeric cells right-aligned under their column
    assert lines[1].endswith("470.0")


def test_format_table_empty_rows():
    lines = format_table(["a", "b"], [])
    assert len(lines) == 1


def test_span_timeline_empty():
    assert span_timeline([]) == ["  (no spans)"]


def test_span_timeline_bar_placement():
    lines = span_timeline([("a", 0.0, 5.0), ("b", 5.0, 10.0)], width=10)
    assert len(lines) == 3  # axis + two rows
    bar_a = lines[1].split("|")[1]
    bar_b = lines[2].split("|")[1]
    assert bar_a == "#####     "
    assert bar_b == "     #####"
    assert lines[1].endswith("0.00-5.00s")


def test_span_timeline_explicit_axis_clips():
    # span extends past t1: bar is clipped to the axis, label intact
    (axis, row) = span_timeline([("x", 2.0, 20.0)], t0=0.0, t1=10.0,
                                width=10)
    assert "0.00" in axis and "10.00s" in axis
    bar = row.split("|")[1]
    assert bar == "  ########"
    assert row.endswith("2.00-20.00s")


def test_span_timeline_zero_duration_gets_min_width_bar():
    (_, row) = span_timeline([("p", 3.0, 3.0)], t0=0.0, t1=10.0, width=10)
    assert row.split("|")[1].count("#") == 1


def test_span_timeline_label_truncation():
    long = "x" * 100
    (_, row) = span_timeline([(long, 0.0, 1.0)], label_width=8)
    assert row.startswith("  " + "x" * 8 + "|")
