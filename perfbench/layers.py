"""Per-layer self time for the traced run.

:class:`LayerTrace` wraps public methods of the program's classes for
the length of one traced run and restores the originals afterwards. A
wrapped call is a span of its layer; a span's self time is its duration
minus the time of the spans nested inside it, so the self times of all
layers plus ``sim.self_s`` (the kernel, the tick loop and everything no
span covers) add up to the traced wall time.

The wrappers live only in the traced process: the timed runs never see
them.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

#: (span, module, class, methods); a method is wrapped on the class and
#: on every loaded subclass that overrides it
SPANS = [
    ("mem.evict", "repro.mem.manager", "HostMemoryManager",
     ("ensure_capacity",)),
    ("mem.fault", "repro.mem.manager", "HostMemoryManager", ("fault_in",)),
    ("mem.commit", "repro.mem.manager", "HostMemoryManager",
     ("pre_tick", "commit_tick")),
    ("mem.device", "repro.mem.device", "SSDSwapDevice", ("arbitrate",)),
    ("mem.cpu", "repro.mem.cpu", "CpuArbiter", ("arbitrate",)),
    ("workloads.sample", "repro.workloads.distribution",
     "AccessDistribution", ("sample",)),
    ("workloads.tick", "repro.workloads.base", "Workload",
     ("pre_tick", "commit_tick")),
    ("vmd.tick", "repro.vmd.namespace", "VMDNamespace",
     ("pre_tick", "commit_tick", "arbitrate")),
    ("core.tick", "repro.core.base", "MigrationManager",
     ("pre_tick", "commit_tick")),
    ("sched.pump", "repro.sched.planner", "MigrationPlanner", ("pump",)),
    ("fleet.refresh", "repro.fleet.hostview", "FleetHostView", ("refresh",)),
    ("fleet.select", "repro.fleet.pipeline", "PlacementPipeline",
     ("select",)),
    ("net.arbitrate", "repro.net.network", "Network", ("arbitrate",)),
    ("net.channel", "repro.net.channel", "StreamChannel",
     ("pre_tick", "commit_tick")),
    ("metrics.record", "repro.metrics.recorder", "Recorder", ("record",)),
]

#: subclass modules to load before wrapping, so overrides are found
SUBCLASS_MODULES = ("repro.core.agile", "repro.core.precopy",
                    "repro.core.postcopy", "repro.core.scattergather",
                    "repro.workloads.kv", "repro.workloads.oltp")


def _load(module: str):
    """The module, or None when the program no longer has it."""
    try:
        return importlib.import_module(module)
    except ModuleNotFoundError:
        return None


def _classes(root: type) -> list:
    out, todo = [], [root]
    while todo:
        cls = todo.pop()
        out.append(cls)
        todo.extend(cls.__subclasses__())
    return out


class LayerTrace:
    """Span wrappers, counters and self-time sums for one traced run."""

    def __init__(self):
        #: span -> seconds not covered by a nested span
        self.self_s: dict = defaultdict(float)
        self.calls: dict = defaultdict(int)
        #: named counts the hooks collect (pages, plans, events, ...)
        self.counts: dict = defaultdict(float)
        self._stack: list = []
        #: (owner, attribute, original) for every patch in place
        self._patched: list = []

    # -- wrappers --------------------------------------------------------------
    def _span(self, span: str, fn, after=None):
        stack, self_s, calls = self._stack, self.self_s, self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                child = stack.pop()
                self_s[span] += elapsed - child
                calls[span] += 1
                if stack:
                    stack[-1] += elapsed
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def _counter(self, fn, after):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(args, result)
            return result
        return wrapper

    def _patch(self, owner, name: str, wrapped) -> None:
        self._patched.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapped)

    # -- hooks that count work -------------------------------------------------
    def _count(self, key: str, n) -> None:
        self.counts[key] += n

    def _after_evict(self, args, evicted) -> None:
        self._count("mem.pages_evicted", evicted)

    def _after_fault(self, args, _result) -> None:
        self._count("mem.pages_faulted", len(args[2]))

    def _after_sample(self, args, drawn) -> None:
        self._count("workloads.sample_drawn", len(drawn))
        self._count("workloads.sample_scanned", len(args[1]))

    def _after_pump(self, args, dispatched) -> None:
        self._count("sched.plans", dispatched)

    # -- install / remove ------------------------------------------------------
    def install(self) -> None:
        """Wrap every span method, the victim search and the event loop.

        A class or method the program no longer has is skipped, so its
        metrics read 0 instead of the traced run failing.
        """
        for name in SUBCLASS_MODULES:
            _load(name)
        hooks = {"mem.evict": self._after_evict,
                 "mem.fault": self._after_fault,
                 "workloads.sample": self._after_sample,
                 "sched.pump": self._after_pump}
        for span, module, cls_name, methods in SPANS:
            root = getattr(_load(module), cls_name, None)
            for cls in _classes(root) if root is not None else ():
                for m in methods:
                    if m in cls.__dict__:
                        self._patch(cls, m, self._span(
                            span, cls.__dict__[m], hooks.get(span)))

        page_set = getattr(_load("repro.mem.pages"), "PageSet", None)
        lru = getattr(page_set, "__dict__", {}).get("lru_candidates")
        if lru is not None:
            def victim_search(*args, **kwargs):
                # resident pages the search scans, before it runs
                self._count("mem.evict_scanned", args[0].resident_pages())
                self._count("mem.evict_calls", 1)
                picked = lru(*args, **kwargs)
                self._count("mem.evict_returned", len(picked))
                return picked
            self._patch(page_set, "lru_candidates",
                        functools.wraps(lru)(victim_search))

        from repro.sim.kernel import Simulator
        self._patch(Simulator, "step", self._counter(
            Simulator.__dict__["step"],
            lambda args, _t: self._count("sim.events", 1)))

    def wrap_function(self, span: str, module_prefix: str,
                      name: str) -> None:
        """Wrap a module-level function wherever a loaded module under
        ``module_prefix`` holds it (it is imported by name)."""
        original = None
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith(module_prefix) or mod is None:
                continue
            fn = mod.__dict__.get(name)
            if fn is None or (original is not None and fn is not original):
                continue
            original = fn
            self._patch(mod, name, self._span(span, fn))

    def remove(self) -> None:
        """Put every original back, newest patch first."""
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    # -- results ---------------------------------------------------------------
    def metrics(self, wall_s: float, call_cost_s: float = 0.0) -> dict:
        """Self times, call counts and yields of every layer; the
        ``sim.self_s`` remainder makes the self times sum to ``wall_s``.

        The wrappers' own cost lands mostly in ``sim.self_s``;
        ``trace.wrapper_s`` estimates it as wrapped calls times
        ``call_cost_s`` (see :func:`call_cost`).
        """
        s, n, c = self.self_s, self.calls, self.counts
        out = {
            "sim.events": c["sim.events"],
            "mem.evict_s": s["mem.evict"],
            "mem.evict_calls": c["mem.evict_calls"],
            "mem.pages_evicted": c["mem.pages_evicted"],
            "mem.evict_yield": (c["mem.evict_returned"]
                                / c["mem.evict_scanned"]
                                if c["mem.evict_scanned"] else 0.0),
            "mem.fault_s": s["mem.fault"],
            "mem.pages_faulted": c["mem.pages_faulted"],
            "mem.commit_s": s["mem.commit"],
            "mem.device_s": s["mem.device"],
            "mem.cpu_s": s["mem.cpu"],
            "workloads.sample_s": s["workloads.sample"],
            "workloads.sample_calls": float(n["workloads.sample"]),
            "workloads.sample_yield": (
                c["workloads.sample_drawn"] / c["workloads.sample_scanned"]
                if c["workloads.sample_scanned"] else 0.0),
            "workloads.tick_s": s["workloads.tick"],
            "vmd.tick_s": s["vmd.tick"],
            "vmd.calls": float(n["vmd.tick"]),
            "core.tick_s": s["core.tick"],
            "sched.pump_s": s["sched.pump"],
            "sched.plans": c["sched.plans"],
            "fleet.refresh_s": s["fleet.refresh"],
            "fleet.select_s": s["fleet.select"],
            "net.arbitrate_s": s["net.arbitrate"],
            "net.arbitrate_calls": float(n["net.arbitrate"]),
            "net.channel_s": s["net.channel"],
            "metrics.record_s": s["metrics.record"],
            "metrics.record_calls": float(n["metrics.record"]),
        }
        out["sim.self_s"] = wall_s - sum(s.values())
        wrapped_calls = (sum(n.values()) + c["sim.events"]
                         + c["mem.evict_calls"])
        out["trace.wrapper_s"] = wrapped_calls * call_cost_s
        return out


def call_cost(n: int = 50_000) -> float:
    """Host seconds a span wrapper adds to one call (best of three)."""
    class Probe:
        def hit(self):
            return None

    probe = Probe()
    wrapped = LayerTrace()._span("calibrate", Probe.hit)

    def per_call(fn) -> float:
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            for _ in range(n):
                fn(probe)
            best = min(best, time.perf_counter() - t0)
        return best / n

    return max(0.0, per_call(wrapped) - per_call(Probe.hit))
