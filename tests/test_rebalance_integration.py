"""End-to-end integration: WSS trackers + watermark trigger + Agile.

This wires the whole control loop of §III-B at a tiny scale: trackers
estimate each VM's working set, the trigger notices the aggregate
crossing the high watermark, the selection picks the fewest VMs, and an
Agile migration relieves the source — the complete system the paper
describes.
"""

from repro.cluster.scenarios import (
    TestbedConfig,
    make_pressure_scenario,
)
from repro.core import AgileMigration, WatermarkTrigger, WssTracker
from repro.core.trigger import WatermarkConfig
from repro.core.wss import WssTrackerConfig
from repro.core.base import MigrationConfig
from repro.util import GiB, MiB
from repro.workloads import PhasePlan


def test_full_rebalance_loop():
    cfg = TestbedConfig(
        dt=0.25, seed=2, page_size=4096, net_bandwidth_bps=20e6,
        ssd_read_bps=10e6, ssd_write_bps=6e6, ssd_capacity_bytes=1 * GiB,
        vmd_server_bytes=1 * GiB, host_os_bytes=1 * MiB,
        migration=MigrationConfig(backlog_cap_bytes=4 * MiB))
    lab = make_pressure_scenario(
        "agile", "kv", n_vms=3, vm_memory_bytes=48 * MiB,
        host_memory_bytes=97 * MiB, reservation_bytes=16 * MiB,
        kv_dataset_bytes=40 * MiB, config=cfg)
    world = lab.world

    # All three VMs query their whole 40 MiB dataset: working sets far
    # exceed what the 96 MiB host can hold.
    for wl in lab.workloads:
        wl.plan = PhasePlan([(0.0, 0, 40 * MiB // 4096)])

    trackers = {
        vm.name: WssTracker(
            world.sim, vm.name, lambda vm=vm: world.manager_of(vm.host),
            world.recorder,
            config=WssTrackerConfig(min_reservation_bytes=4 * MiB),
            max_reservation_bytes=44 * MiB)
        for vm in lab.vms
    }

    migrated = []

    def launch(names):
        for name in names:
            vm = world.vms[name]
            trackers[name].stop()
            mgr = AgileMigration(world.sim, world.network, lab.src,
                                 lab.dst, vm, world.recorder,
                                 config=cfg.migration,
                                 workload=lab.workload_of(vm))
            world.engine.add_participant(mgr, order=0)
            mgr.start()
            migrated.append(mgr)

    trigger = WatermarkTrigger(
        world.sim, usable_bytes=lab.src.memory.usable_bytes(),
        wss_of=lambda: {n: t.estimated_wss_bytes()
                        for n, t in trackers.items()
                        if world.vms[n].host == "src"
                        and not world.vms[n].migrating},
        migrate=launch, recorder=world.recorder,
        config=WatermarkConfig(high_watermark=0.9, low_watermark=0.6,
                               check_interval_s=5.0))

    world.run(until=400.0)

    # The trackers grew reservations under swap pressure, the trigger
    # fired, and at least one VM was migrated off the source.
    assert trigger.trigger_count >= 1
    assert len(migrated) >= 1
    done = [m for m in migrated if m.done.triggered]
    assert done, "triggered migration(s) never completed"
    moved = {m.vm.name for m in done}
    for name in moved:
        assert world.vms[name].host == "dst"
        assert not lab.src.memory.has_vm(name)
    # the source kept at least one VM
    assert len(lab.src.vms) >= 1
    # aggregate WSS telemetry was recorded for the operator
    assert world.recorder.has("trigger.aggregate_wss")
