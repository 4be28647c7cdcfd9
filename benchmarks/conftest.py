"""Shared infrastructure for the paper-reproduction benchmarks.

Every table and figure of the paper's evaluation (§V) has a bench module
in this directory. The actual experiment drivers live in
:mod:`repro.experiments.runners`; this conftest adds a session-wide memo
(several tables are projections of the same runs — Tables I-III all come
from the pressure scenario) and an ``emit`` fixture that prints through
pytest's capture so the reproduced rows land in the teed bench output.

Absolute values are not expected to match the paper (our substrate is a
calibrated simulator, DESIGN.md §1) — the *shape* assertions (who wins,
by roughly what factor, where curves bend) are enforced with asserts.
"""

from __future__ import annotations

import pytest

from repro.experiments import runners
from repro.experiments.runners import (  # re-exported for bench modules
    MIGRATE_AT as MIGRATE_AT,
    TABLE1_WINDOW as TABLE1_WINDOW,
)

_cache: dict = {}


def pressure_run(technique: str, kind: str = "kv") -> dict:
    key = ("pressure", technique, kind)
    if key not in _cache:
        _cache[key] = runners.pressure_run(technique, kind)
    return _cache[key]


def single_vm_run(technique: str, size_gib: float, busy: bool) -> dict:
    key = ("single", technique, size_gib, busy)
    if key not in _cache:
        _cache[key] = runners.single_vm_run(technique, size_gib, busy)
    return _cache[key]


def wss_run() -> dict:
    if "wss" not in _cache:
        _cache["wss"] = runners.wss_run()
    return _cache["wss"]


@pytest.fixture
def emit(capsys):
    """Print through pytest's capture so bench output reaches the
    terminal (and the teed bench_output.txt)."""
    def _emit(*lines: str) -> None:
        with capsys.disabled():
            for line in lines:
                print(line)
    return _emit


def run_once(benchmark, fn):
    """Execute ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
