"""Host time of a run, corrected for the speed the machine had meanwhile.

On a shared machine the same work can take a third more or less host
time from one minute to the next. :class:`SpeedClock` times a run in
stretches of about :data:`EVERY_S` seconds; after each stretch it times
a fixed reference kernel (a mix of interpreted dict work and NumPy scans
like the simulator's own) and scales the stretch by how much slower or
faster than :data:`REFERENCE_S` the kernel ran around it. The kernel's
own time is excluded from both readings; its data (a few MiB) counts in
the worker's peak resident memory, the same on every run.
"""

from __future__ import annotations

import random
import statistics
import time

import numpy as np

#: kernel time at the reference speed (about its median on the 2-core
#: machine the benchmark was tuned on)
REFERENCE_S = 0.005
#: run time between two kernel timings
EVERY_S = 0.25


class _Node:
    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value


class Kernel:
    """A fixed unit of reference work; calling it returns its host time.

    Interpreted dict work, NumPy scans over a 2 MiB array and attribute
    reads over a few MiB of shuffled objects: the simulator's mix, so
    that contention slows the kernel about as much as it slows a run.
    """

    def __init__(self):
        self._data = np.random.default_rng(0).random(1 << 18)
        nodes = [_Node(i) for i in range(60_000)]
        random.Random(0).shuffle(nodes)
        self._nodes = nodes[:20_000]

    def __call__(self) -> float:
        t0 = time.perf_counter()
        for _ in range(2):
            table: dict = {}
            for i in range(4000):
                table[i % 101] = table.get(i % 101, 0) + i
            np.argpartition(self._data, 1000)
            np.flatnonzero(self._data > 0.5)
        total = 0
        for node in self._nodes:
            total += node.value
        return time.perf_counter() - t0


def speed_now(samples: int = 3) -> float:
    """The machine's speed right now relative to the reference speed
    (the factor that turns host seconds into reference seconds)."""
    kernel = Kernel()
    return REFERENCE_S / statistics.median(kernel() for _ in range(samples))


class SpeedClock:
    """Raw and speed-corrected host seconds of one run, by phase."""

    def __init__(self):
        self.kernel = Kernel()
        self.raw_s = 0.0
        self.ref_s = 0.0
        #: phase name -> raw seconds
        self.phases: dict = {}
        self._phase_start = 0.0
        self._kernel_s = self.kernel()
        self._span = 0.0
        self._t = time.perf_counter()

    def lap(self, force: bool = False) -> None:
        """Call between chunks of the run; calibrates when due."""
        now = time.perf_counter()
        self._span += now - self._t
        self._t = now
        if not force and self._span < EVERY_S:
            return
        kernel_s = self.kernel()
        speed = 2.0 * REFERENCE_S / (self._kernel_s + kernel_s)
        self.raw_s += self._span
        self.ref_s += self._span * speed
        self._span = 0.0
        self._kernel_s = kernel_s
        self._t = time.perf_counter()

    def phase(self, name: str) -> None:
        """Close the phase that started at the previous call."""
        self.lap(force=True)
        self.phases[name] = self.raw_s - self._phase_start
        self._phase_start = self.raw_s
