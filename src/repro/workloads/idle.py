"""Idle VM workload (Figures 7-8's 'idle VM' configuration).

The VM's memory is fully allocated (a booted guest with its dataset
loaded) but nothing touches it during the experiment, so the workload
issues no operations, declares no demands, and records zero throughput.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.telemetry.instruments import MetricsRegistry
from repro.vm.vm import VirtualMachine

__all__ = ["IdleWorkload"]


class IdleWorkload:
    """A tick participant that does nothing but record 0 ops/s."""

    def __init__(self, vm: VirtualMachine, recorder: MetricsRegistry,
                 sim_now: Optional[Callable[[], float]] = None):
        self.vm = vm
        self.recorder = recorder
        self._now = sim_now or (lambda: 0.0)
        self.fault_router = None
        self.total_ops = 0.0

    def pre_tick(self, dt: float) -> None:  # noqa: D102 - protocol impl
        pass

    def commit_tick(self, dt: float) -> None:  # noqa: D102 - protocol impl
        self.recorder.record(f"{self.vm.name}.throughput", self._now(), 0.0)
