"""One benchmark process: set a workload up, and optionally run it.

    python3 -m perfbench.worker setup --workload W --seed N
    python3 -m perfbench.worker run --workload W --seed N --seconds S
    python3 -m perfbench.worker run --workload W --seed N --traced

Prints one JSON line. ``ready`` is the ``time.monotonic()`` reading at
the moment the world is wired and ready to run, so the parent can time
set-up from before it started this interpreter; ``speed`` is the
machine's speed just after (:func:`~perfbench.timing.speed_now`). A timed ``run`` runs
the workload once per seed of :func:`~perfbench.scenarios.run_seeds`,
each time on a fresh world; a ``--traced`` run runs it once, at
``--seed``, under :class:`~perfbench.layers.LayerTrace`.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time

from perfbench.layers import LayerTrace, call_cost
from perfbench.scenarios import WORKLOADS, load_program, run_seeds
from perfbench.timing import SpeedClock, speed_now


def set_up(workload: str, seed: int, scale: float = 1.0,
           trace: LayerTrace | None = None):
    """Import the program and wire the workload. Returns the scenario
    and the set-up breakdown in host seconds."""
    t0 = time.perf_counter()
    load_program()
    t1 = time.perf_counter()
    scenario = WORKLOADS[workload](seed, scale)
    if trace is not None:
        trace.wrap_function("setup.preload", "repro.", "preload_dataset")
    try:
        scenario.build()
    finally:
        if trace is not None:
            trace.remove()
    t2 = time.perf_counter()
    preload = trace.self_s["setup.preload"] if trace is not None else 0.0
    return scenario, {"setup.import_s": t1 - t0,
                      "setup.build_s": t2 - t1 - preload,
                      "setup.preload_s": preload}


def run_once(scenario, trace: LayerTrace | None = None) -> dict:
    """Run a built scenario and read its outcome. ``wall_s`` is
    speed-corrected host time, ``raw_wall_s`` and the phases raw."""
    ticks0 = scenario.world.engine.tick_index
    if trace is not None:
        trace.install()
    clock = SpeedClock()
    try:
        scenario.run(clock)
    finally:
        if trace is not None:
            trace.remove()
    out = {"seed": scenario.seed,
           "wall_s": clock.ref_s,
           "raw_wall_s": clock.raw_s,
           "phases": clock.phases,
           "sim_s": scenario.sim_seconds,
           "ticks": scenario.world.engine.tick_index - ticks0,
           "checks": [list(c) for c in scenario.checks()],
           "digest": scenario.digest(),
           "modelled": scenario.modelled()}
    if trace is not None:
        out["layers"] = trace.metrics(clock.raw_s, call_cost())
    return out


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench.worker")
    ap.add_argument("mode", choices=("setup", "run"))
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args(argv)

    setup_trace = LayerTrace() if args.traced else None
    scenario, setup = set_up(args.workload, args.seed, trace=setup_trace)
    result = {"ready": time.monotonic(), "speed": speed_now(),
              "setup": setup}
    if args.mode == "run":
        seeds = ([args.seed] if args.traced
                 else run_seeds(args.workload, args.seed, args.seconds))
        reps = []
        for seed in seeds:
            if reps:
                scenario = WORKLOADS[args.workload](seed)
                scenario.build()
            reps.append(run_once(scenario,
                                 LayerTrace() if args.traced else None))
            scenario = None
            gc.collect()  # the last world's pages are garbage by now
        result["reps"] = reps
        result["peak_rss_mib"] = peak_rss_mib()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
