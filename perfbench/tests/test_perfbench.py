"""Tests of the benchmark's own code, on tiny workloads.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import layers, run, timing
from perfbench.scenarios import WORKLOADS
from perfbench.worker import run_once, set_up

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DRIVEN = [w["name"] for w in SPEC["workloads"]]
#: small enough for seconds-long runs, large enough for real pressure
TINY = {"paper-agile-kv": 1 / 16, "paper-precopy-oltp-half": 1 / 8,
        "fleet-churn": 0.1}


def tiny_run(workload, seed=0, traced=False):
    trace = layers.LayerTrace() if traced else None
    scenario, setup = set_up(workload, seed, TINY[workload], trace)
    rep = run_once(scenario, layers.LayerTrace() if traced else None)
    return scenario, setup, rep


@pytest.fixture(scope="module")
def fleet_traced():
    return tiny_run("fleet-churn", traced=True)


@pytest.mark.parametrize("workload", DRIVEN)
def test_tiny_run_of_each_workload_passes_its_checks(workload):
    _, setup, rep = tiny_run(workload)
    assert rep["wall_s"] > 0 and rep["sim_s"] > 0 and rep["ticks"] > 0
    assert rep["checks"], "every workload checks its outcome"
    # the YCSB load ramp is in absolute bytes (up to 6 GB), so a shrunken
    # KV testbed never gets back to its peak: that check needs full size
    failed = [c for c in rep["checks"]
              if not c[1] and c[0] != "kv_throughput_recovers"]
    assert not failed, failed
    assert len(rep["digest"]) == 64
    assert set(setup) == {"setup.import_s", "setup.build_s",
                          "setup.preload_s"}


def test_self_times_plus_sim_self_equal_traced_wall(fleet_traced):
    _, _, rep = fleet_traced
    lay = rep["layers"]
    self_times = [v for k, v in lay.items()
                  if k.endswith("_s") and k not in ("sim.self_s",
                                                    "trace.wrapper_s")]
    assert math.isclose(sum(self_times) + lay["sim.self_s"],
                        rep["raw_wall_s"], rel_tol=0, abs_tol=1e-9)
    assert all(v >= 0 for v in self_times)
    assert lay["vmd.calls"] > 0 and lay["fleet.refresh_s"] > 0


def test_traced_pressure_run_attributes_eviction_and_sampling():
    _, setup, rep = tiny_run("paper-agile-kv", traced=True)
    lay = rep["layers"]
    assert lay["mem.evict_calls"] > 0 and lay["mem.pages_evicted"] > 0
    assert 0 < lay["mem.evict_yield"] <= 1
    assert 0 < lay["workloads.sample_yield"] <= 1
    assert lay["sim.events"] >= rep["ticks"]
    assert setup["setup.preload_s"] > 0
    assert set(rep["phases"]) == {"warmup", "migration", "settle"}


def _patch_targets():
    targets = []
    for _, module, cls_name, methods in layers.SPANS:
        root = getattr(__import__(module, fromlist=[cls_name]), cls_name)
        for cls in layers._classes(root):
            targets += [(cls, m) for m in methods if m in cls.__dict__]
    from repro.cluster import scenarios, setup
    from repro.mem.pages import PageSet
    from repro.sim.kernel import Simulator
    return targets + [(PageSet, "lru_candidates"), (Simulator, "step"),
                      (scenarios, "preload_dataset"),
                      (setup, "preload_dataset")]


def test_wrappers_are_removed_after_the_traced_run():
    for name in layers.SUBCLASS_MODULES:
        __import__(name)
    before = {(owner, m): owner.__dict__[m] for owner, m in _patch_targets()}
    tiny_run("paper-precopy-oltp-half", traced=True)
    after = {(owner, m): owner.__dict__[m] for owner, m in _patch_targets()}
    assert all(after[k] is before[k] for k in before)


@pytest.mark.parametrize("workload", ["fleet-churn", "paper-agile-kv"])
def test_digest_is_stable_across_two_runs(workload):
    first = tiny_run(workload)[2]
    second = tiny_run(workload, traced=True)[2]
    assert first["digest"] == second["digest"]
    assert first["modelled"] == second["modelled"]


def test_chunked_run_matches_the_unchunked_pressure_run():
    scenario, _, rep = tiny_run("paper-precopy-oltp-half")
    other = WORKLOADS["paper-precopy-oltp-half"](0, TINY[
        "paper-precopy-oltp-half"])
    other.build()
    other.lab.run_until_migrated(start=other.migrate_at,
                                 limit=other.LIMIT_S, settle=other.SETTLE_S)
    assert other.lab.report == scenario.lab.report
    assert other.world.sim.now == scenario.sim_seconds
    for name in scenario.world.recorder.names():
        a = scenario.world.recorder.series(name)
        b = other.world.recorder.series(name)
        assert (a.t == b.t).all() and (a.v == b.v).all(), name


def test_digest_depends_on_the_seed():
    assert tiny_run("fleet-churn", seed=0)[2]["digest"] \
        != tiny_run("fleet-churn", seed=1)[2]["digest"]


def test_every_benchmark_metric_is_computed(fleet_traced):
    _, setup, rep = fleet_traced
    timed = {"reps": [rep], "peak_rss_mib": 50.0}
    traced = {"reps": [rep], "setup": setup}
    checks = [("ok", True, "")]
    e2e = run.end_to_end(timed, [0.5, 0.4, 0.6], checks)
    assert set(e2e) == {m["name"] for m in SPEC["end_to_end"]}
    assert e2e["setup_s"] == 0.5
    per = run.per_layer(timed, traced)
    assert {m["name"] for m in SPEC["per_layer"]} <= set(per)


def test_benchmark_json_follows_its_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    names = [m["name"] for k in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[k]]
    assert len(names) == len(set(names))
    assert set(DRIVEN) <= set(WORKLOADS)
    e2e = {m["name"]: m for m in SPEC["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s"
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet-churn",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_speed_clock_splits_phases_and_corrects_for_speed():
    clock = timing.SpeedClock()
    clock.phase("a")
    clock.phase("b")
    assert math.isclose(sum(clock.phases.values()), clock.raw_s)
    assert clock.raw_s > 0 and clock.ref_s > 0
    assert 0 < timing.speed_now() < 100
