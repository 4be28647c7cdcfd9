"""Differential tests: batched commit path vs the scalar oracle.

The batched path (``HostMemoryManager(fast_path=True)``, the default)
must produce *bit-identical* state to the scalar per-binding oracle for
every tick of every scenario — not approximately equal: the batch
replays the oracle's float operations in the same order, so ``==`` is
the contract (the same policy as ``tests/test_net_fastpath.py`` for the
network arbiter). These tests drive twin hosts (one per implementation)
through identical randomized churn — fault storms, cgroup shrinks,
host-pressure eviction, writeback-debt throttling,
mid-run VM register/unregister — and compare every backlog, queue
demand, grant, residency count and cgroup counter exactly.

The satellite regression tests for the PR's accounting fixes live here
too: closed device queues must not retain stale grants, departed VMs
must not leave writeback debt demanding device bandwidth, and pre-tick
demand declaration must be unconditional.
"""

import random

import numpy as np
import pytest

from repro.mem import Cgroup, HostMemoryManager, SSDSwapDevice
from repro.mem.batch import HostCommitBatch
from repro.vm import VirtualMachine

PAGE = 4096
MiB = 2 ** 20

SEEDS = [0, 1, 7, 42, 1234]


class TwinHost:
    """Two identically-configured managers, one per implementation,
    driven in lockstep: every mutation is applied to both, every tick is
    followed by an exact state comparison."""

    def __init__(self, mem_mib=10, os_mib=1, read_bps=400e6,
                 write_bps=200e6, debt_cap=None):
        self.fast = HostMemoryManager("h", mem_mib * MiB,
                                      host_os_bytes=os_mib * MiB,
                                      fast_path=True)
        self.ref = HostMemoryManager("h", mem_mib * MiB,
                                     host_os_bytes=os_mib * MiB,
                                     fast_path=False)
        assert self.fast.fast_path and not self.ref.fast_path
        self.dev_fast = SSDSwapDevice("ssd", read_bps=read_bps,
                                      write_bps=write_bps)
        self.dev_ref = SSDSwapDevice("ssd", read_bps=read_bps,
                                     write_bps=write_bps)
        if debt_cap is not None:
            self.fast.writeback_debt_cap = debt_cap
            self.ref.writeback_debt_cap = debt_cap
        self.vms = {}  # name -> (fast VM, ref VM)

    # -- lockstep mutations --------------------------------------------------
    def register(self, name, n_pages, reservation_pages):
        vf = VirtualMachine(name, n_pages * PAGE, host="h")
        vr = VirtualMachine(name, n_pages * PAGE, host="h")
        self.fast.register_vm(vf, Cgroup(name, reservation_pages * PAGE),
                              self.dev_fast)
        self.ref.register_vm(vr, Cgroup(name, reservation_pages * PAGE),
                             self.dev_ref)
        self.vms[name] = (vf, vr)

    def unregister(self, name):
        self.fast.unregister_vm(name)
        self.ref.unregister_vm(name)
        del self.vms[name]

    def fault_in(self, name, idx):
        self.fast.fault_in(name, idx)
        self.ref.fault_in(name, idx)

    def dirty(self, name, idx):
        # guests can only write resident pages; both sides have identical
        # residency (asserted every tick), so filter on the fast side
        idx = idx[self.vms[name][0].pages.present[idx]]
        self.fast.dirty(name, idx)
        self.ref.dirty(name, idx)

    def shrink(self, name, reservation_pages):
        for mgr in (self.fast, self.ref):
            mgr.binding(name).cgroup.set_reservation(
                reservation_pages * PAGE)
            mgr.shrink_to_reservation(name)

    def free_vm(self, name):
        self.fast.free_vm_memory(name)
        self.ref.free_vm_memory(name)

    def set_fault_demand(self, name, demand):
        self.fast.binding(name).fault_queue.demand = demand
        self.ref.binding(name).fault_queue.demand = demand

    # -- tick + comparison ---------------------------------------------------
    def tick(self, dt=0.1):
        self.fast.pre_tick(dt)
        self.ref.pre_tick(dt)
        for name in self.vms:
            bf = self.fast.binding(name)
            br = self.ref.binding(name)
            assert bf.write_queue.demand == br.write_queue.demand, (
                f"pre-tick write demand divergence on {name}: "
                f"fast={bf.write_queue.demand!r} "
                f"ref={br.write_queue.demand!r}")
            assert bf.fault_queue.demand == br.fault_queue.demand, (
                f"fault-throttle divergence on {name}")
        self.dev_fast.arbitrate(dt)
        self.dev_ref.arbitrate(dt)
        self.fast.commit_tick(dt)
        self.ref.commit_tick(dt)
        self.assert_identical()

    def assert_identical(self):
        assert (self.fast.total_resident_bytes()
                == self.ref.total_resident_bytes())
        for name, (vf, vr) in self.vms.items():
            bf = self.fast.binding(name)
            br = self.ref.binding(name)
            assert bf.writeback_backlog == br.writeback_backlog, (
                f"backlog divergence on {name}: "
                f"fast={bf.writeback_backlog!r} "
                f"ref={br.writeback_backlog!r}")
            assert bf.write_queue.granted == br.write_queue.granted
            assert bf.fault_queue.granted == br.fault_queue.granted
            assert (bf.write_queue.total_granted
                    == br.write_queue.total_granted)
            assert (bf.cgroup.swap_in_bytes_total
                    == br.cgroup.swap_in_bytes_total)
            assert (bf.cgroup.swap_out_bytes_total
                    == br.cgroup.swap_out_bytes_total)
            assert np.array_equal(vf.pages.present, vr.pages.present), (
                f"residency divergence on {name}")
            assert np.array_equal(vf.pages.swapped, vr.pages.swapped)
            assert np.array_equal(vf.pages.swap_clean, vr.pages.swap_clean)
            vf.pages.check_invariants()
            vr.pages.check_invariants()


def _random_idx(rng, n_pages):
    lo = rng.randrange(n_pages)
    hi = min(n_pages, lo + rng.randrange(1, max(2, n_pages // 4)))
    return np.arange(lo, hi)


@pytest.mark.parametrize("seed", SEEDS)
def test_differential_random_churn(seed):
    """Random fault/dirty/shrink churn under host memory pressure.

    Reservations sum past the host's usable memory, so cgroup eviction
    and host-pressure victim selection both fire; the slow write device
    keeps writeback backlogs alive across many drain ticks.
    """
    rng = random.Random(seed)
    twin = TwinHost(mem_mib=4, os_mib=1, write_bps=64 * PAGE * 10)
    for i in range(4):
        twin.register(f"vm{i}", n_pages=400, reservation_pages=300)
    for step in range(200):
        for name in list(twin.vms):
            if rng.random() < 0.6:
                twin.fault_in(name, _random_idx(rng, 400))
            if rng.random() < 0.3:
                twin.dirty(name, _random_idx(rng, 400))
        if rng.random() < 0.1:
            name = rng.choice(list(twin.vms))
            twin.shrink(name, rng.randrange(50, 300))
        if rng.random() < 0.15:
            name = rng.choice(list(twin.vms))
            twin.set_fault_demand(name, rng.uniform(0.0, 64 * PAGE))
        twin.tick(dt=rng.choice([0.05, 0.1, 0.25]))


@pytest.mark.parametrize("seed", SEEDS)
def test_differential_writeback_debt_throttle(seed):
    """A tiny debt cap forces the fault-throttle path every tick; the
    scaled fault demands must match bit for bit."""
    rng = random.Random(seed)
    twin = TwinHost(mem_mib=4, os_mib=1, write_bps=8 * PAGE * 10,
                    debt_cap=4 * PAGE)
    twin.register("vm0", n_pages=300, reservation_pages=60)
    twin.register("vm1", n_pages=300, reservation_pages=60)
    for step in range(150):
        for name in list(twin.vms):
            twin.fault_in(name, _random_idx(rng, 300))
            twin.dirty(name, _random_idx(rng, 300))
            twin.set_fault_demand(name, rng.uniform(PAGE, 32 * PAGE))
        twin.tick(dt=0.1)


@pytest.mark.parametrize("seed", SEEDS)
def test_differential_host_pressure(seed):
    """Host-pressure eviction: the victim choice (most-over-reservation,
    first-registered tie-break) and the LRU walk must agree exactly."""
    rng = random.Random(seed)
    # reservations alone exceed usable memory: every fault storm runs
    # the host-pressure loop, not just the cgroup cap
    twin = TwinHost(mem_mib=3, os_mib=1, write_bps=128 * PAGE * 10)
    for i in range(3):
        twin.register(f"vm{i}", n_pages=400, reservation_pages=400)
    for step in range(150):
        for name in list(twin.vms):
            if rng.random() < 0.7:
                twin.fault_in(name, _random_idx(rng, 400))
        twin.tick(dt=0.1)


@pytest.mark.parametrize("seed", SEEDS)
def test_differential_register_unregister_churn(seed):
    """Mid-run VM arrivals and departures: slot reuse in the batch must
    not perturb victim tie-breaks, backlogs, or demand declarations."""
    rng = random.Random(seed)
    twin = TwinHost(mem_mib=6, os_mib=1, write_bps=64 * PAGE * 10)
    next_id = 0
    for i in range(3):
        twin.register(f"vm{next_id}", n_pages=300,
                      reservation_pages=rng.randrange(80, 250))
        next_id += 1
    for step in range(200):
        for name in list(twin.vms):
            if rng.random() < 0.5:
                twin.fault_in(name, _random_idx(rng, 300))
            if rng.random() < 0.2:
                twin.dirty(name, _random_idx(rng, 300))
        roll = rng.random()
        if roll < 0.08 and len(twin.vms) > 1:
            name = rng.choice(list(twin.vms))
            if rng.random() < 0.5:
                twin.free_vm(name)  # migration source teardown...
            twin.unregister(name)  # ...or plain departure
        elif roll < 0.16 and len(twin.vms) < 8:
            twin.register(f"vm{next_id}", n_pages=300,
                          reservation_pages=rng.randrange(80, 250))
            next_id += 1
        twin.tick(dt=0.1)


def test_differential_cgroup_shrink_watcher():
    """Reservation changes reach the batch's dense array immediately:
    a shrink between ticks changes the victim choice identically."""
    twin = TwinHost(mem_mib=4, os_mib=1)
    twin.register("a", n_pages=400, reservation_pages=400)
    twin.register("b", n_pages=400, reservation_pages=400)
    twin.fault_in("a", np.arange(300))
    twin.fault_in("b", np.arange(200))
    twin.tick()
    # shrink b far below its residency: it becomes the most-over victim
    twin.shrink("b", 50)
    twin.fault_in("a", np.arange(300, 380))
    twin.tick()
    batch = twin.fast._batch
    slot = twin.fast.binding("b")._slot
    assert batch.reservation[slot] == 50 * PAGE


# -- satellite regressions ---------------------------------------------------

def test_closed_queue_grant_is_reset():
    """close() must clear ``granted``: a consumer reading a just-closed
    queue in the same commit phase must not re-consume last tick's
    grant."""
    dev = SSDSwapDevice("ssd", write_bps=100 * PAGE * 10)
    q = dev.open_queue("w", "write")
    q.demand = 10 * PAGE
    dev.arbitrate(0.1)
    assert q.granted > 0.0
    q.close()
    assert q.granted == 0.0
    assert q.demand == 0.0


def test_grant_skips_inactive_queues():
    """A lane closed between compaction and granting gets nothing, and
    the survivors' grants match what they would get alone."""
    live = SSDSwapDevice("ssd").open_queue("live", "write")
    dead = SSDSwapDevice("ssd").open_queue("dead", "write")
    live.demand = 30.0
    dead.close()
    dead.granted = 123.0  # simulate a stale grant left by an old bug
    SSDSwapDevice._grant([live, dead], capacity=100.0)
    assert live.granted == 30.0
    assert dead.granted == 123.0 and dead.demand == 0.0  # untouched
    # and the compaction flag removes it from later rounds entirely
    dev = SSDSwapDevice("ssd")
    q1 = dev.open_queue("a", "write")
    q2 = dev.open_queue("b", "write")
    q1.demand = 10.0
    q2.close()
    dev.arbitrate(1.0)
    assert q2 not in dev._queues


def test_departed_vm_leaves_no_write_demand():
    """free_vm_memory + unregister must cancel writeback debt: after a
    VM departs, the device sees zero write demand from it."""
    for fast_path in (True, False):
        dev = SSDSwapDevice("ssd", write_bps=PAGE)  # drains ~nothing
        mgr = HostMemoryManager("h", 10 * MiB, host_os_bytes=1 * MiB,
                                fast_path=fast_path)
        vm = VirtualMachine("vm1", 100 * PAGE, host="h")
        b = mgr.register_vm(vm, Cgroup("vm1", 10 * PAGE), dev)
        mgr.fault_in("vm1", np.arange(20))  # evicts 10 fresh pages
        assert b.writeback_backlog == 10 * PAGE
        mgr.free_vm_memory("vm1")
        assert b.writeback_backlog == 0.0
        mgr.pre_tick(0.1)
        assert b.write_queue.demand == 0.0
        # full departure: debt must not survive the binding either
        mgr.fault_in("vm1", np.arange(20, 40))
        assert b.writeback_backlog > 0.0
        mgr.unregister_vm("vm1")
        assert b.writeback_backlog == 0.0
        assert b.write_queue.demand == 0.0
        dev.arbitrate(0.1)
        assert b.write_queue.granted == 0.0


def test_pre_tick_demand_reset_is_unconditional():
    """Demand declared by a previous pre-tick must be overwritten by the
    next one even when no arbiter ever consumed it (the backing VMD
    server vanished mid-run) and the debt has since been forgiven."""
    for fast_path in (True, False):
        dev = SSDSwapDevice("ssd")
        mgr = HostMemoryManager("h", 10 * MiB, host_os_bytes=1 * MiB,
                                fast_path=fast_path)
        vm = VirtualMachine("vm1", 100 * PAGE, host="h")
        b = mgr.register_vm(vm, Cgroup("vm1", 50 * PAGE), dev)
        b.writeback_backlog = 4 * PAGE
        mgr.pre_tick(0.1)
        assert b.write_queue.demand == 4 * PAGE
        # the arbiter never runs (server lost) — the demand sits there;
        # an engine then forgives the debt (e.g. migration teardown)
        b.writeback_backlog = 0.0
        mgr.pre_tick(0.1)
        assert b.write_queue.demand == 0.0


def test_batch_slot_growth_and_reuse():
    """Interning past the initial capacity grows the arrays; removal
    recycles slots without leaking state into the next occupant."""
    dev = SSDSwapDevice("ssd")
    mgr = HostMemoryManager("h", 1024 * MiB, host_os_bytes=1 * MiB,
                            fast_path=True)
    batch = mgr._batch
    assert isinstance(batch, HostCommitBatch)
    bindings = {}
    for i in range(20):  # > initial capacity of 8, forces growth
        vm = VirtualMachine(f"vm{i}", 100 * PAGE, host="h")
        bindings[i] = mgr.register_vm(vm, Cgroup(f"vm{i}", 50 * PAGE), dev)
    assert batch.n_active == 20
    slot = bindings[3]._slot
    bindings[3].writeback_backlog = 7 * PAGE
    mgr.unregister_vm("vm3")
    assert not batch.active[slot]
    assert batch.backlog[slot] == 0.0
    vm = VirtualMachine("vm20", 100 * PAGE, host="h")
    b20 = mgr.register_vm(vm, Cgroup("vm20", 50 * PAGE), dev)
    assert b20._slot == slot  # recycled
    assert b20.writeback_backlog == 0.0
    assert batch.seq[slot] == 20  # fresh sequence, not vm3's (seq 3)


def test_writeback_backlog_proxy_spans_attachment():
    """The binding's backlog survives detach/re-attach (migration
    engines re-key bindings between hosts)."""
    dev = SSDSwapDevice("ssd")
    mgr = HostMemoryManager("h", 10 * MiB, host_os_bytes=1 * MiB,
                            fast_path=True)
    vm = VirtualMachine("vm1", 100 * PAGE, host="h")
    b = mgr.register_vm(vm, Cgroup("vm1", 50 * PAGE), dev)
    b.writeback_backlog = 5 * PAGE
    assert mgr._batch.backlog[b._slot] == 5 * PAGE
    mgr._batch.remove(b._slot)
    assert b._batch is None
    b.writeback_backlog = 3 * PAGE  # detached: plain attribute
    assert b._backlog == 3 * PAGE
    mgr._batch.add(b)
    assert b.writeback_backlog == 3 * PAGE  # carried into the new slot


def test_scenario_fast_vs_oracle_identical():
    """End-to-end witness: the full datacenter rebalance scenario makes
    identical decisions under both implementations — same planner log,
    same outcomes, same availability accounting."""
    from repro.experiments.datacenter import (
        DatacenterConfig, datacenter_run, honeypot_schedule)

    def run():
        res = datacenter_run(honeypot_schedule(),
                             DatacenterConfig(seed=0), until=8.0)
        return {k: res[k] for k in ("outcomes", "failed_or_aborted",
                                    "unavailable_s", "dead_vms",
                                    "plan_log", "deferrals")}

    saved = HostMemoryManager.DEFAULT_FAST_PATH
    try:
        HostMemoryManager.DEFAULT_FAST_PATH = True
        fast = run()
        HostMemoryManager.DEFAULT_FAST_PATH = False
        oracle = run()
    finally:
        HostMemoryManager.DEFAULT_FAST_PATH = saved
    assert fast == oracle
