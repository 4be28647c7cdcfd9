"""Tests for the workload engine (throughput model, fault effects)."""

import numpy as np
import pytest

from repro.cluster import World, preload_dataset
from repro.util import MiB
from repro.workloads import (
    IdleWorkload,
    KeyValueWorkload,
    OLTPWorkload,
    PhasePlan,
    ycsb_redis_params,
)

PAGE = 4096


def small_world(host_mem_mib=64, seed=1, dt=0.5):
    w = World(dt=dt, seed=seed, net_bandwidth_bps=50e6)
    w.add_host("h1", host_mem_mib * MiB, host_os_bytes=4 * MiB)
    w.add_client_host()
    return w


def add_kv(w, vm_mem_mib=32, reservation_mib=16, dataset_mib=24,
           dev=None, params=None, host="h1", name="vm1"):
    vm = w.add_vm(name, vm_mem_mib * MiB, host)
    dev = dev or w.add_ssd(f"ssd.{name}", read_bps=20e6, write_bps=10e6)
    w.hosts[host].place_vm(vm, reservation_mib * MiB, dev)
    preload_dataset(vm, w.manager_of(host), dataset_mib * MiB)
    wl = KeyValueWorkload(
        vm, w.network, "client", w.manager_of, w.recorder,
        w.rng(f"wl.{name}"), dataset_bytes=dataset_mib * MiB,
        params=params, sim_now=lambda: w.sim.now)
    w.add_workload(wl)
    return vm, wl


def test_phase_plan_steps():
    plan = PhasePlan([(0.0, 0, 10), (5.0, 0, 100)])
    assert plan.region_at(0.0) == (0, 10)
    assert plan.region_at(4.9) == (0, 10)
    assert plan.region_at(5.0) == (0, 100)


def test_phase_plan_validation():
    with pytest.raises(ValueError):
        PhasePlan([])
    with pytest.raises(ValueError):
        PhasePlan([(0.0, 5, 5)])


def test_preload_splits_resident_and_swapped():
    w = small_world()
    vm, wl = add_kv(w, vm_mem_mib=32, reservation_mib=16, dataset_mib=24)
    # 16 MiB resident (the reservation), 8 MiB swapped
    assert vm.pages.resident_bytes() == 16 * MiB
    assert vm.pages.swapped_bytes() == 8 * MiB
    # the tail of the dataset is resident, the head swapped
    assert vm.pages.swapped[0]
    assert vm.pages.present[24 * MiB // PAGE - 1]


def test_preload_respects_host_free_memory():
    w = small_world(host_mem_mib=16)  # 12 MiB usable
    vm = w.add_vm("vm1", 32 * MiB, "h1")
    dev = w.add_ssd("ssd")
    w.hosts["h1"].place_vm(vm, 30 * MiB, dev)  # reservation > host RAM
    preload_dataset(vm, w.manager_of("h1"), 24 * MiB)
    assert vm.pages.resident_bytes() <= 12 * MiB


def test_fitting_workload_reaches_cpu_or_net_bound():
    w = small_world()
    # dataset fits entirely in the reservation: no faults at all
    vm, wl = add_kv(w, vm_mem_mib=32, reservation_mib=30, dataset_mib=16)
    w.run(until=20.0)
    tput = w.recorder.series("vm1.throughput")
    steady = tput.between(10.0, 20.0).mean()
    p = wl.params
    cpu_bound = vm.vcpus / p.cpu_s_per_op
    net_bound = 50e6 / p.bytes_per_op
    assert steady == pytest.approx(min(cpu_bound, net_bound), rel=0.1)
    assert wl.total_ops > 0


def test_thrashing_workload_much_slower():
    w = small_world()
    fit_vm, fit_wl = add_kv(w, name="vmfit", vm_mem_mib=32,
                            reservation_mib=30, dataset_mib=16)
    thrash_vm, thrash_wl = add_kv(w, name="vmthrash", vm_mem_mib=32,
                                  reservation_mib=8, dataset_mib=24)
    w.run(until=30.0)
    fit = w.recorder.series("vmfit.throughput").between(10, 30).mean()
    thrash = w.recorder.series("vmthrash.throughput").between(10, 30).mean()
    assert thrash < 0.5 * fit


def test_thrashing_generates_swap_traffic():
    w = small_world()
    vm, wl = add_kv(w, reservation_mib=8, dataset_mib=24)
    w.run(until=20.0)
    cg = w.manager_of("h1").binding("vm1").cgroup
    assert cg.swap_in_bytes_total > 0
    assert cg.swap_out_bytes_total > 0  # evictions of dirtied pages


def test_readahead_amplifies_device_traffic():
    w1 = small_world(seed=3)
    _, wl1 = add_kv(w1, reservation_mib=8, dataset_mib=24,
                    params=ycsb_redis_params(readahead=1.0))
    w1.run(until=20.0)
    w2 = small_world(seed=3)
    _, wl2 = add_kv(w2, reservation_mib=8, dataset_mib=24,
                    params=ycsb_redis_params(readahead=8.0))
    w2.run(until=20.0)
    per_op_1 = (w1.manager_of("h1").binding("vm1").cgroup.swap_in_bytes_total
                / max(wl1.total_ops, 1))
    per_op_2 = (w2.manager_of("h1").binding("vm1").cgroup.swap_in_bytes_total
                / max(wl2.total_ops, 1))
    assert per_op_2 > 3 * per_op_1


def test_suspended_vm_records_zero_throughput():
    w = small_world()
    vm, wl = add_kv(w, reservation_mib=30, dataset_mib=16)
    w.run(until=5.0)
    vm.suspend()
    w.run(until=10.0)
    late = w.recorder.series("vm1.throughput").between(6.0, 10.0)
    assert late.mean() == 0.0
    vm.resume()
    w.run(until=15.0)
    assert w.recorder.series("vm1.throughput").between(12.0, 15.0).mean() > 0


def test_network_contention_reduces_throughput():
    """A competing bulk flow on the host NIC squeezes client traffic."""
    w = small_world()
    vm, wl = add_kv(w, reservation_mib=30, dataset_mib=16)
    w.run(until=10.0)
    before = w.recorder.series("vm1.throughput").between(5, 10).mean()

    class Hog:
        def __init__(self, net):
            self.flow = net.open_flow("h1", "client", name="hog")

        def pre_tick(self, dt):
            self.flow.demand = 1e12

        def commit_tick(self, dt):
            pass

    w.engine.add_participant(Hog(w.network))
    w.run(until=20.0)
    after = w.recorder.series("vm1.throughput").between(15, 20).mean()
    assert after < 0.7 * before


def test_query_ramp_increases_faults():
    w = small_world()
    vm = w.add_vm("vm1", 32 * MiB, "h1")
    dev = w.add_ssd("ssd", read_bps=20e6, write_bps=10e6)
    w.hosts["h1"].place_vm(vm, 16 * MiB, dev)
    preload_dataset(vm, w.manager_of("h1"), 24 * MiB)
    wl = KeyValueWorkload(
        vm, w.network, "client", w.manager_of, w.recorder, w.rng("wl"),
        dataset_bytes=24 * MiB,
        query_plan=[(0.0, 4 * MiB), (20.0, 24 * MiB)],
        sim_now=lambda: w.sim.now)
    w.add_workload(wl)
    w.run(until=40.0)
    small_phase = w.recorder.series("vm1.throughput").between(10, 20).mean()
    big_phase = w.recorder.series("vm1.throughput").between(30, 40).mean()
    # querying beyond the reservation thrashes; the small phase fits
    assert big_phase < 0.7 * small_phase


def test_paper_ramp_plan_schedule():
    plan = KeyValueWorkload.paper_ramp_plan(2)
    assert plan[0] == (0.0, 200 * MiB)
    assert plan[1][0] == 250.0


def test_kv_validation():
    w = small_world()
    vm = w.add_vm("vm1", 8 * MiB, "h1")
    dev = w.add_ssd("ssd")
    w.hosts["h1"].place_vm(vm, 8 * MiB, dev)
    with pytest.raises(ValueError):
        KeyValueWorkload(vm, w.network, "client", w.manager_of, w.recorder,
                         w.rng("x"), dataset_bytes=16 * MiB)


def test_oltp_runs_and_is_slower_than_kv():
    w = small_world()
    vm = w.add_vm("vm1", 32 * MiB, "h1")
    dev = w.add_ssd("ssd", read_bps=20e6, write_bps=10e6)
    w.hosts["h1"].place_vm(vm, 30 * MiB, dev)
    preload_dataset(vm, w.manager_of("h1"), 16 * MiB)
    wl = OLTPWorkload(vm, w.network, "client", w.manager_of, w.recorder,
                      w.rng("oltp"), dataset_bytes=16 * MiB,
                      sim_now=lambda: w.sim.now)
    w.add_workload(wl)
    w.run(until=20.0)
    trans = w.recorder.series("vm1.throughput").between(10, 20).mean()
    assert 0 < trans < 1000  # transactions, not KV ops


def test_idle_workload_records_zero():
    w = small_world()
    vm = w.add_vm("vm1", 8 * MiB, "h1")
    dev = w.add_ssd("ssd")
    w.hosts["h1"].place_vm(vm, 8 * MiB, dev)
    w.add_workload(IdleWorkload(vm, w.recorder, sim_now=lambda: w.sim.now))
    w.run(until=5.0)
    assert w.recorder.series("vm1.throughput").mean() == 0.0


def test_determinism_same_seed_same_result():
    results = []
    for _ in range(2):
        w = small_world(seed=42)
        vm, wl = add_kv(w, reservation_mib=8, dataset_mib=24)
        w.run(until=15.0)
        results.append(wl.total_ops)
    assert results[0] == results[1]


def test_different_seeds_pick_different_pages():
    states = []
    for seed in (1, 2):
        w = small_world(seed=seed)
        vm, wl = add_kv(w, reservation_mib=8, dataset_mib=24)
        w.run(until=15.0)
        states.append(vm.pages.present.copy())
    # ops totals may coincide (resource-bound), but the sampled pages differ
    assert not np.array_equal(states[0], states[1])


@pytest.mark.parametrize("technique", ["agile", "pre-copy"])
def test_windows_follow_the_page_set_across_a_migration(technique):
    """The query region and write-set prefix stay registered windows of
    whatever page set the VM runs on; the switchover moves them."""
    from repro.cluster.scenarios import TestbedConfig, make_single_vm_lab
    from repro.core.base import MigrationConfig
    from repro.util import GiB, KiB

    cfg = TestbedConfig(
        dt=0.1, seed=3, page_size=PAGE, net_bandwidth_bps=20e6,
        ssd_read_bps=10e6, ssd_write_bps=5e6, ssd_capacity_bytes=1 * GiB,
        vmd_server_bytes=1 * GiB, host_os_bytes=1 * MiB,
        migration=MigrationConfig(backlog_cap_bytes=2 * MiB,
                                  stopcopy_threshold_bytes=256 * KiB,
                                  max_rounds=30))
    lab = make_single_vm_lab(technique, 24 * MiB, busy=True,
                             host_memory_bytes=64 * MiB,
                             reservation_bytes=12 * MiB,
                             busy_margin_bytes=4 * MiB, config=cfg)
    vm, wl = lab.migrate_vm, lab.workloads[0]
    src_pages = vm.pages
    lab.world.run(until=1.0)
    pages, lo, hi, w_hi = wl._windows
    assert pages is src_pages and lo < w_hi <= hi
    assert set(src_pages._windows) == {(lo, hi), (lo, w_hi)}
    lab.run_until_migrated(start=1.0, limit=300.0, settle=1.0)
    assert vm.host == "dst" and vm.pages is not src_pages
    assert wl._windows[0] is vm.pages
    assert src_pages._windows == {}  # released on the old page set
    assert set(vm.pages._windows) == {(lo, hi), (lo, w_hi)}
    vm.pages.check_invariants()  # recounts both windows
