"""Watermark-based migration trigger and VM selection (§III-B).

When the aggregate working-set size of the VMs on a host exceeds a *high
watermark* of host memory, migration begins; the selection picks the
**fewest** VMs whose departure brings the aggregate below the *low
watermark*, so no further migration is needed until the high watermark
is reached again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.sim.kernel import Simulator
from repro.sim.periodic import PeriodicTask
from repro.telemetry.instruments import NULL_METRICS, MetricsRegistry

__all__ = ["WatermarkTrigger", "select_vms_to_migrate"]


def select_vms_to_migrate(wss_by_vm: dict[str, float],
                          target_bytes: float) -> list[str]:
    """Pick the fewest VMs whose removal brings the aggregate WSS to at
    most ``target_bytes``.

    Exact minimal *count* is achieved greedily by evicting the largest
    working sets first; ties break lexicographically for determinism.
    """
    total = sum(wss_by_vm.values())
    if total <= target_bytes:
        return []
    chosen: list[str] = []
    remaining = total
    for name, wss in sorted(wss_by_vm.items(),
                            key=lambda kv: (-kv[1], kv[0])):
        chosen.append(name)
        remaining -= wss
        if remaining <= target_bytes:
            break
    return chosen


@dataclass(frozen=True)
class WatermarkConfig:
    #: fractions of usable host memory
    high_watermark: float = 0.95
    low_watermark: float = 0.80
    check_interval_s: float = 5.0
    #: quiet period after a re-arm before the next crossing may fire —
    #: hysteresis against re-alerting on the transient pressure spike a
    #: just-finished migration leaves behind
    rearm_delay_s: float = 0.0

    def __post_init__(self):
        if not 0 < self.low_watermark < self.high_watermark <= 1.5:
            raise ValueError("need 0 < low < high")
        if self.rearm_delay_s < 0:
            raise ValueError("rearm_delay_s must be non-negative")


class WatermarkTrigger:
    """Periodically compares aggregate WSS against the watermarks.

    ``wss_of`` supplies each VM's current WSS estimate (typically the
    :class:`~repro.core.wss.WssTracker` reservation). When the high
    watermark is crossed, ``migrate`` is called with the selected VM
    names; the trigger then pauses until re-armed (the paper migrates
    once and waits for the next high-watermark crossing). A ``migrate``
    callback that could not act — a planner with no eligible destination
    — may return ``False``: the trigger stays armed (and the crossing is
    not counted) so the alert re-fires on the next check.
    """

    def __init__(self, sim: Simulator, usable_bytes: float,
                 wss_of: Callable[[], dict[str, float]],
                 migrate: Callable[[list[str]], None],
                 recorder: Optional[MetricsRegistry] = None,
                 config: Optional[WatermarkConfig] = None,
                 select: Optional[Callable] = None,
                 metrics=None):
        if usable_bytes <= 0:
            raise ValueError("usable_bytes must be positive")
        self.sim = sim
        self.usable_bytes = float(usable_bytes)
        self.wss_of = wss_of
        self.migrate = migrate
        self.recorder = recorder
        self.config = config or WatermarkConfig()
        #: VM-selection policy ``(wss_by_vm, target_bytes) -> [names]``;
        #: the paper's largest-first greedy by default. An SLO-aware
        #: control plane swaps in a policy that sheds serving tenants
        #: last (see :func:`repro.telemetry.slo_aware_selector`).
        self.select = select or select_vms_to_migrate
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self._armed = True
        self._arm_at = 0.0
        self.trigger_count = 0
        self._task = PeriodicTask(sim, self.config.check_interval_s,
                                  self._check)

    def stop(self) -> None:
        self._task.cancel()

    def rearm(self) -> None:
        """Allow the next high-watermark crossing to trigger again
        (called when every commanded migration has completed). With a
        configured ``rearm_delay_s`` the trigger stays quiet for that
        long first, so the post-landing pressure transient settles."""
        self._armed = True
        self._arm_at = self.sim.now + self.config.rearm_delay_s

    def _check(self, now: float) -> None:
        wss = self.wss_of()
        aggregate = sum(wss.values())
        if self.recorder is not None:
            self.recorder.record("trigger.aggregate_wss", now, aggregate)
        if not self._armed or now < self._arm_at:
            return
        high = self.config.high_watermark * self.usable_bytes
        if aggregate <= high:
            return
        target = self.config.low_watermark * self.usable_bytes
        selected = self.select(wss, target)
        if not selected:
            return
        self._armed = False
        handled = self.migrate(selected)
        if handled is False:
            self._armed = True  # nobody took the alert; keep watching
            return
        self.trigger_count += 1
        if self.metrics.enabled:
            self.metrics.counter("trigger.alerts").inc()
            self.metrics.gauge("trigger.last_overshoot").set(
                aggregate / self.usable_bytes)
