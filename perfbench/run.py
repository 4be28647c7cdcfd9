#!/usr/bin/env python3
"""Run one benchmark workload and print every metric by name with its unit.

    python3 perfbench/run.py --workload paper-agile-kv --seed 0 \\
        --seconds 15 --trace 0

Run it from the repository root. The metrics it prints, their units and
which ones a run reports are those of ``BENCHMARK.json``: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
ones. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it say the same for a reader.

Every measurement runs in a child process (``perfbench.worker``), one
at a time:

* set-up probes: start an interpreter, import the program and wire the
  workload, then exit. ``setup_s`` is the median over the probes and the
  timed run's own set-up, each timed from before its interpreter started
  and scaled to the reference speed measured just after;
* the timed run: runs the workload at the seeds that fill ``--seconds``
  (``scenarios.run_seeds``: at least ``--seed`` itself) and reports the
  median;
* with ``--trace 1``, instead: one untraced run at ``--seed`` and one
  traced run at ``--seed`` in a process of its own, so the span wrappers
  never run while timing.

Each run's simulated outcome is checked and digested. Every digest at
one seed must be equal, within the invocation and across invocations of
the same program source (``.perfbench/digests.json`` keeps the first
one).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

#: every child process must end within this many seconds of our start
BUDGET_S = 170.0
#: set-up probes besides the timed run's own set-up
SETUP_PROBES = 4
DIGEST_STORE = Path(".perfbench") / "digests.json"


class WorkerFailed(RuntimeError):
    pass


def source_hash(root: Path) -> str:
    """Hash of the program source, so stored digests follow the code."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class Runner:
    """Spawns the worker processes of one invocation."""

    def __init__(self, root: Path, workload: str, seed: int,
                 deadline: float):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        env = dict(os.environ)
        paths = [str(root / "src"), str(root)]
        if env.get("PYTHONPATH"):
            paths.append(env["PYTHONPATH"])
        env["PYTHONPATH"] = os.pathsep.join(paths)
        self.env = env

    def spawn(self, mode: str, *extra: str) -> tuple:
        """Run one worker; returns (monotonic time at spawn, its JSON)."""
        cmd = [sys.executable, "-m", "perfbench.worker", mode,
               "--workload", self.workload, "--seed", str(self.seed),
               *extra]
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                text=True, timeout=max(1.0, self.deadline - t_spawn))
        except subprocess.TimeoutExpired as exc:
            raise WorkerFailed(f"{mode} worker ran past the time budget") \
                from exc
        if proc.returncode != 0:
            raise WorkerFailed(f"{mode} worker exited {proc.returncode}")
        return t_spawn, json.loads(proc.stdout.strip().splitlines()[-1])


def digest_checks(root: Path, workload: str, reps: list) -> list:
    """Runs at one seed have one digest: within this invocation, and
    across invocations of the same program source."""
    store = root / DIGEST_STORE
    known = json.loads(store.read_text()) if store.is_file() else {}
    source = source_hash(root)
    out = []
    for seed in sorted({rep["seed"] for rep in reps}):
        digests = {rep["digest"] for rep in reps if rep["seed"] == seed}
        key = f"{source}/{workload}/{seed}"
        earlier = known.setdefault(key, min(digests))
        out.append((f"digest_stable_seed_{seed}", digests == {earlier},
                    f"{len(digests)} digest(s) here, first seen "
                    f"{earlier[:16]}"))
    store.parent.mkdir(exist_ok=True)
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    tmp.replace(store)
    return out


def end_to_end(timed: dict, setup_samples: list, checks: list) -> dict:
    reps = timed["reps"]
    passed = sum(1 for _, ok, _ in checks if ok)
    return {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "setup_s": statistics.median(setup_samples),
        "sim_per_wall": statistics.median(r["sim_s"] / r["wall_s"]
                                          for r in reps),
        "peak_rss_mib": timed["peak_rss_mib"],
        "checks_passed_frac": passed / len(checks),
    }


def per_layer(timed: dict, traced: dict) -> dict:
    rep = traced["reps"][0]
    untraced_wall = next(r["raw_wall_s"] for r in timed["reps"]
                         if r["seed"] == rep["seed"])
    out = {"fleet.boots": 0.0, "fleet.rejected": 0.0, "fleet.moves": 0.0}
    out.update(rep["layers"])
    out.update(rep["modelled"])
    out.update(traced["setup"])
    out["sim.ticks"] = float(rep["ticks"])
    for phase in ("warmup", "migration", "settle"):
        out[f"phase.{phase}_s"] = rep["phases"].get(phase, 0.0)
    out["trace.wall_s"] = rep["raw_wall_s"]
    out["trace.overhead"] = rep["raw_wall_s"] / untraced_wall
    return out


def reference_lines(reps: list) -> list:
    ratios = reps[0]["modelled"]
    if not ratios.get("ref.migration_time_ratio"):
        return ["  reference: the paper has no row for this workload"]
    return [f"  reference {name}: model / paper = {ratios[name]:.3f}"
            for name in ("ref.migration_time_ratio", "ref.data_moved_ratio",
                         "ref.throughput_ratio")]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    started = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no program at src/repro; run from the repository "
              "root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root))
    from perfbench.scenarios import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of "
              f"{', '.join(sorted(WORKLOADS))}", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())

    runner = Runner(root, args.workload, args.seed, started + BUDGET_S)
    # a traced invocation needs one untraced run at --seed, for
    # trace.overhead, and no set-up samples
    seconds = 0.0 if args.trace else args.seconds
    try:
        setup_samples = []
        for _ in range(0 if args.trace else SETUP_PROBES):
            t_spawn, probe = runner.spawn("setup")
            setup_samples.append((probe["ready"] - t_spawn) * probe["speed"])
        t_spawn, timed = runner.spawn("run", "--seconds", str(seconds))
        setup_samples.append((timed["ready"] - t_spawn) * timed["speed"])
        traced = runner.spawn("run", "--traced")[1] if args.trace else None
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1

    reps = timed["reps"] + (traced["reps"] if traced else [])
    checks = [tuple(c) for rep in reps for c in rep["checks"]]
    checks += digest_checks(root, args.workload, reps)
    failed = sum(1 for _, ok, _ in checks if not ok)

    if args.trace:
        values, wanted = per_layer(timed, traced), spec["per_layer"]
    else:
        values = end_to_end(timed, setup_samples, checks)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(timed['reps'])} timed run(s)")
    for rep in reps:
        print(f"  run at seed {rep['seed']}: {rep['raw_wall_s']:.3f} s host "
              f"time, {rep['wall_s']:.3f} s at reference speed")
    for (name, ok, detail), n in Counter(checks).items():
        print(f"  check {name}: {'pass' if ok else 'FAIL'} x{n} ({detail})")
    print(f"  digest {reps[0]['digest']}")
    for line in reference_lines(reps):
        print(line)
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(checks),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
