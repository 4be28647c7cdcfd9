"""The benchmark's workloads, built from the program's public entry points.

Each workload is a :class:`Scenario`: ``build()`` wires a world ready to
run, ``run(clock)`` drives it and after the run ``checks()``,
``digest()`` and ``modelled()`` read the simulated outcome. Inputs are a
pure function of the seed.

A run advances the simulation in ``world.run`` chunks of
:data:`CHUNK_SIM_S` simulated seconds so the clock can calibrate between
them. Splitting ``run(until=...)`` does not reorder a single event, so a
chunked run is event for event the run its scenario makes unchunked.

``scale`` shrinks a workload for the benchmark's own tests; ``run.py``
runs every workload at its registered scale.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import json
import math
from pathlib import Path

GIB = float(2 ** 30)
MIB = float(2 ** 20)
#: simulated seconds per ``world.run`` call
CHUNK_SIM_S = 5.0

REFERENCE = json.loads(
    (Path(__file__).with_name("reference.json")).read_text())


def load_program() -> None:
    """Import every program module a workload touches (timed as
    ``setup.import_s``)."""
    import repro.cluster.scenarios  # noqa: F401
    import repro.experiments.fleet  # noqa: F401
    import repro.experiments.runners  # noqa: F401


def _jsonable(value):
    """Report fields as exact JSON values (enums by value, floats by repr)."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "value") and not isinstance(value, (int, float)):
        return value.value
    if isinstance(value, float) or type(value).__module__ == "numpy":
        return float(value)
    return value


def _report_dict(report) -> dict:
    return _jsonable(dataclasses.asdict(report))


def _digest(payload: dict, recorder) -> str:
    """sha256 over the JSON payload and every recorded time series."""
    h = hashlib.sha256(json.dumps(payload, sort_keys=True).encode())
    for name in recorder.names():
        series = recorder.series(name)
        h.update(name.encode())
        h.update(series.t.tobytes())
        h.update(series.v.tobytes())
    return h.hexdigest()


class Scenario:
    """One workload instance: build, run, then read the outcome."""

    def __init__(self, seed: int, scale: float = 1.0):
        self.seed = int(seed)
        self.scale = float(scale)
        self.sim_seconds = 0.0

    @property
    def world(self):
        raise NotImplementedError

    def build(self) -> None:
        raise NotImplementedError

    def run(self, clock) -> None:
        """Run to the end, closing each phase on ``clock``
        (a :class:`~perfbench.timing.SpeedClock`)."""
        raise NotImplementedError

    def advance(self, clock, until: float) -> None:
        """``world.run`` to ``until`` in chunks, lapping ``clock``."""
        world = self.world
        while world.sim.now < until:
            world.run(until=min(world.sim.now + CHUNK_SIM_S, until))
            clock.lap()

    def checks(self) -> list:
        """``[(name, passed, detail), ...]`` over the simulated outcome."""
        raise NotImplementedError

    def digest_payload(self) -> dict:
        raise NotImplementedError

    def digest(self) -> str:
        return _digest(self.digest_payload(), self.world.recorder)

    def modelled(self) -> dict:
        """Simulated (not host-time) per-layer statistics."""
        raise NotImplementedError


class PressureScenario(Scenario):
    """The §V-C testbed: four 10 GiB VMs on a 23 GiB host; vm0 migrates.

    Driven phase by phase as ``pressure_run`` drives it:
    ``start_migration_at``, run to the trigger time, run until the
    migration's ``done`` event fires, then a settle window from the
    migration's end.
    """

    #: ``pressure_run`` settles this long after the migration ends and
    #: gives it this long to finish
    SETTLE_S = 250.0
    LIMIT_S = 5000.0
    #: ``pressure_run``'s OLTP trigger time (KV uses ``MIGRATE_AT``)
    OLTP_MIGRATE_AT = 100.0

    def __init__(self, technique: str, kind: str, seed: int,
                 scale: float = 1.0, reference: str = ""):
        super().__init__(seed, scale)
        self.technique = technique
        self.kind = kind
        #: key of the paper's row in reference.json ("" for none)
        self.reference = reference
        self.lab = None
        self.resident_at_launch = 0.0

    @property
    def world(self):
        return self.lab.world

    @property
    def migrate_at(self) -> float:
        from repro.experiments.runners import MIGRATE_AT
        return MIGRATE_AT if self.kind == "kv" else self.OLTP_MIGRATE_AT

    def _size_overrides(self) -> dict:
        """Every size default of ``make_pressure_scenario`` times scale."""
        from repro.cluster.scenarios import make_pressure_scenario
        if self.scale == 1.0:
            return {}
        params = inspect.signature(make_pressure_scenario).parameters
        return {name: p.default * self.scale for name, p in params.items()
                if name.endswith("_bytes")}

    def build(self) -> None:
        from repro.cluster.scenarios import (TestbedConfig,
                                             make_pressure_scenario)
        self.lab = make_pressure_scenario(
            self.technique, self.kind, config=TestbedConfig(seed=self.seed),
            **self._size_overrides())

    def run(self, clock) -> None:
        lab, sim = self.lab, self.lab.world.sim
        start = self.migrate_at
        lab.start_migration_at(start)
        # stop just short of the trigger to read the resident set the
        # migration starts from
        self.advance(clock, math.nextafter(start, 0.0))
        self.resident_at_launch = float(lab.migrate_vm.pages.resident_bytes())
        self.advance(clock, start)
        clock.phase("warmup")
        done = lab.manager.done
        while not done.triggered:
            if sim.now >= self.LIMIT_S:
                raise RuntimeError(f"migration still running at "
                                   f"t = {sim.now:g} s")
            self.advance(clock, min(sim.now + CHUNK_SIM_S, self.LIMIT_S))
        clock.phase("migration")
        # the event fired at report.end_time, where run_until_event
        # would have stopped
        self.advance(clock, lab.report.end_time + self.SETTLE_S)
        clock.phase("settle")
        self.sim_seconds = sim.now

    # -- outcome ---------------------------------------------------------------
    def _avg(self):
        """Mean throughput over the four VMs (the Figs 4-6 series)."""
        import numpy as np
        from repro.metrics import TimeSeries
        rec = self.world.recorder
        series = [rec.series(f"{vm.name}.throughput") for vm in self.lab.vms]
        avg = TimeSeries("avg")
        for t, v in zip(series[0].t, np.mean([s.v for s in series], axis=0)):
            avg.append(t, v)
        return avg

    def summary(self) -> dict:
        """The throughput levels ``pressure_run`` reports."""
        from repro.experiments.runners import TABLE1_WINDOW
        r = self.lab.report
        avg = self._avg()
        start = self.migrate_at
        after = avg.between(r.end_time + 30, r.end_time + 240).mean()
        return {
            # KV has an unloaded warm phase before the ramp; OLTP
            # thrashes from the start, so its peak is the plateau
            "peak": (avg.between(80.0, 140.0).mean() if self.kind == "kv"
                     else after),
            "thrash": avg.between(start - 40, start).mean(),
            "after": after,
            "table1": avg.between(start, start + TABLE1_WINDOW).mean(),
        }

    def checks(self) -> list:
        from repro.core.base import MigrationOutcome
        r = self.lab.report
        s = self.summary()
        out = [("outcome_completed", r.outcome is MigrationOutcome.COMPLETED,
                f"outcome={r.outcome}")]
        vm_bytes = float(self.lab.migrate_vm.memory_bytes)
        if self.technique == "agile":
            out.append(("agile_moves_less_than_vm",
                        r.total_bytes < vm_bytes,
                        f"{r.total_bytes / MIB:.1f} MiB vs VM "
                        f"{vm_bytes / MIB:.1f} MiB"))
        else:
            out.append(("precopy_moves_resident_set",
                        r.total_bytes >= self.resident_at_launch,
                        f"{r.total_bytes / MIB:.1f} MiB vs resident "
                        f"{self.resident_at_launch / MIB:.1f} MiB"))
        if self.kind == "kv":
            out.append(("kv_throughput_recovers",
                        s["after"] >= 0.9 * s["peak"],
                        f"after {s['after']:.1f} vs 0.9 x peak "
                        f"{s['peak']:.1f}"))
        else:
            out.append(("oltp_plateau_above_thrash",
                        s["after"] > s["thrash"],
                        f"plateau {s['after']:.3f} vs thrash "
                        f"{s['thrash']:.3f}"))
        return out

    def digest_payload(self) -> dict:
        return {"report": _report_dict(self.lab.report),
                "summary": _jsonable(self.summary()),
                "resident_at_launch": self.resident_at_launch,
                "sim_seconds": self.sim_seconds}

    def modelled(self) -> dict:
        r = self.lab.report
        out = {"core.migration_sim_s": float(r.total_time),
               "core.downtime_sim_s": float(r.downtime or 0.0),
               "core.migrated_gib": r.total_bytes / GIB,
               "core.rounds": float(r.rounds),
               "ref.migration_time_ratio": 0.0,
               "ref.data_moved_ratio": 0.0,
               "ref.throughput_ratio": 0.0}
        if self.reference and self.scale == 1.0:
            row = REFERENCE["paper_rows"][self.reference]
            out["ref.migration_time_ratio"] = (float(r.total_time)
                                               / row["migration_time_s"])
            out["ref.data_moved_ratio"] = (r.total_bytes / MIB
                                           / row["data_moved_mb"])
            out["ref.throughput_ratio"] = (self.summary()["table1"]
                                           / row["table1_throughput"])
        return out


class FleetScenario(Scenario):
    """The ``repro.experiments.fleet`` churn scenario, scaled up to
    8 racks x 8 hosts of 72 MiB, 16 tenants, bursty arrivals at
    0.5 x hosts/9 per second for 300 s, plus 15 s to drain."""

    HORIZON_S = 300.0
    DRAIN_S = 15.0

    def __init__(self, seed: int, scale: float = 1.0):
        super().__init__(seed, scale)
        self.fleet = None

    @property
    def world(self):
        return self.fleet.world

    def config(self):
        from repro.experiments.fleet import FleetConfig
        side = max(2, round(8 * self.scale))
        horizon = self.HORIZON_S * self.scale
        base = FleetConfig()
        demand = dataclasses.replace(
            base.demand, horizon_s=horizon, n_tenants=16,
            base_rate_per_s=0.5 * side * side / 9)
        return FleetConfig(n_racks=side, hosts_per_rack=side,
                           host_memory_bytes=72 * MIB, seed=self.seed,
                           until=horizon + self.DRAIN_S, demand=demand)

    def build(self) -> None:
        from repro.experiments.fleet import make_fleet
        self.fleet = make_fleet(self.config())

    def run(self, clock) -> None:
        self.advance(clock, self.fleet.config.until)
        clock.phase("run")
        self.sim_seconds = self.world.sim.now

    def checks(self) -> list:
        from repro.vm.vm import VmState
        sched = self.fleet.scheduler
        c = sched.counters
        arrivals = len(self.fleet.specs)
        vms = self.world.vms
        terminated = sorted(n for n, vm in vms.items()
                            if vm.state is VmState.TERMINATED)
        strays = sorted(set(vms) - set(sched.running))
        departures = sum(1 for line in sched.placement_log
                         if line.startswith("depart "))
        return [
            ("boots_plus_rejected_equal_arrivals",
             c["booted"] + c["rejected"] == arrivals,
             f"{c['booted']} booted + {c['rejected']} rejected vs "
             f"{arrivals} arrivals"),
            ("no_termination_outside_departure",
             not terminated and not strays
             and c["booted"] == departures + len(sched.running),
             f"{len(terminated)} terminated left behind, {len(strays)} "
             f"untracked, {c['booted']} booted = {departures} departed + "
             f"{len(sched.running)} running"),
        ]

    def _attempts(self) -> list:
        return self.fleet.control.supervisor.attempts

    def digest_payload(self) -> dict:
        sched = self.fleet.scheduler
        return {"counters": dict(sched.counters),
                "rebalance": dict(self.fleet.rebalancer.counters),
                "placement_log": list(sched.placement_log),
                "rebalance_log": list(self.fleet.rebalancer.log),
                "plan_log": list(self.fleet.control.planner.log),
                "attempts": [_report_dict(r) for r in self._attempts()],
                "sim_seconds": self.sim_seconds}

    def modelled(self) -> dict:
        attempts = self._attempts()
        c = self.fleet.scheduler.counters
        return {"core.migration_sim_s": sum(r.total_time or 0.0
                                            for r in attempts),
                "core.downtime_sim_s": sum(r.downtime or 0.0
                                           for r in attempts),
                "core.migrated_gib": sum(r.total_bytes
                                         for r in attempts) / GIB,
                "core.rounds": float(sum(r.rounds for r in attempts)),
                "fleet.boots": float(c["booted"]),
                "fleet.rejected": float(c["rejected"]),
                "fleet.moves": float(len(attempts)),
                "ref.migration_time_ratio": 0.0,
                "ref.data_moved_ratio": 0.0,
                "ref.throughput_ratio": 0.0}


#: workload name -> factory(seed, scale)
WORKLOADS = {
    "paper-agile-kv": lambda seed, scale=1.0: PressureScenario(
        "agile", "kv", seed, scale, reference="agile-kv"),
    "paper-precopy-oltp-half": lambda seed, scale=1.0: PressureScenario(
        "pre-copy", "oltp", seed, 0.5 * scale),
    "fleet-churn": lambda seed, scale=1.0: FleetScenario(seed, scale),
    # the full-size pre-copy run: by hand only (about 80 s a run)
    "paper-precopy-oltp": lambda seed, scale=1.0: PressureScenario(
        "pre-copy", "oltp", seed, scale, reference="precopy-oltp"),
}

#: nominal host seconds of one run of each workload on a 2-core machine;
#: fixes how many runs fit in ``--seconds`` independently of the speed
#: the machine happens to have
RUN_SECONDS = {"paper-agile-kv": 45.0, "paper-precopy-oltp-half": 22.0,
               "fleet-churn": 3.0, "paper-precopy-oltp": 80.0}


def run_seeds(workload: str, seed: int, seconds: float) -> list:
    """Seeds of the runs that fill ``seconds``: ``seed`` itself, then
    ``seed + 1000``, ``seed + 2000``, ... (distinct inputs average out
    the work a single stream happens to draw)."""
    n = max(1, round(seconds / RUN_SECONDS[workload]))
    return [seed + 1000 * i for i in range(n)]
