"""Tests for the host memory manager (residency, eviction, writeback)."""

import numpy as np
import pytest

from repro.host import Host
from repro.mem import SSDSwapDevice
from repro.net import Network
from repro.vm import VirtualMachine

PAGE = 4096
MiB = 2 ** 20


def make_host(mem_mib=10, os_mib=1):
    net = Network()
    return Host("h", mem_mib * MiB, net, host_os_bytes=os_mib * MiB)


def make_vm(name="vm1", pages=100):
    return VirtualMachine(name, pages * PAGE, host="h")


def place(host, vm, reservation_pages, dev=None):
    dev = dev or SSDSwapDevice("ssd")
    return host.place_vm(vm, reservation_pages * PAGE, dev), dev


def test_register_and_query():
    host = make_host()
    vm = make_vm()
    binding, _ = place(host, vm, 50)
    assert host.memory.has_vm("vm1")
    assert binding.cgroup.reservation_bytes == 50 * PAGE
    assert host.memory.free_bytes() == host.memory.usable_bytes()


def test_duplicate_registration_rejected():
    host = make_host()
    vm = make_vm()
    place(host, vm, 50)
    with pytest.raises(ValueError):
        host.place_vm(vm, 10 * PAGE, SSDSwapDevice("ssd2"))


def test_fault_in_fresh_pages_costs_no_io():
    host = make_host()
    vm = make_vm()
    binding, _ = place(host, vm, 50)
    read = host.memory.fault_in("vm1", np.arange(10))
    assert read == 0.0
    assert vm.pages.resident_pages() == 10
    assert binding.cgroup.swap_in_bytes_total == 0.0


def test_fault_in_swapped_pages_costs_reads():
    host = make_host()
    vm = make_vm()
    binding, _ = place(host, vm, 50)
    host.memory.fault_in("vm1", np.arange(10))
    vm.pages.swap_out(np.arange(5))
    read = host.memory.fault_in("vm1", np.arange(5))
    assert read == 5 * PAGE
    assert binding.cgroup.swap_in_bytes_total == 5 * PAGE


def test_cgroup_cap_triggers_lru_eviction():
    host = make_host()
    vm = make_vm()
    binding, _ = place(host, vm, 10)
    host.memory.fault_in("vm1", np.arange(8))
    host.memory.tick = 5
    host.memory.fault_in("vm1", np.arange(8, 16))  # 16 resident > 10 cap
    assert vm.pages.resident_pages() == 10
    # the evicted pages are the oldest (ticks 0 vs 5); within the tick-0
    # tie the six lowest scramble(p) go: scramble order of 0..7 is
    # 0, 5, 2, 7, 4, 1, 6, 3
    gone = [0, 1, 2, 4, 5, 7]
    assert np.all(~vm.pages.present[gone])
    assert np.all(vm.pages.swapped[gone])
    assert np.all(vm.pages.present[[3, 6]])
    assert np.all(vm.pages.present[8:16])


def test_eviction_of_fresh_pages_queues_writeback():
    host = make_host()
    vm = make_vm()
    binding, _ = place(host, vm, 10)
    host.memory.fault_in("vm1", np.arange(15))
    assert binding.writeback_backlog == 5 * PAGE
    assert binding.cgroup.swap_out_bytes_total == 5 * PAGE


def test_eviction_of_swap_clean_pages_is_free():
    host = make_host()
    vm = make_vm()
    binding, _ = place(host, vm, 10)
    host.memory.fault_in("vm1", np.arange(10))
    vm.pages.swap_out(np.arange(10))  # now all have valid swap copies
    binding.writeback_backlog = 0.0
    host.memory.fault_in("vm1", np.arange(10))  # swap back in (clean)
    host.memory.tick = 1
    host.memory.fault_in("vm1", np.arange(10, 15))  # forces eviction of 5
    assert binding.writeback_backlog == 0.0  # clean pages, no writeback
    assert vm.pages.resident_pages() == 10


def test_dirty_pages_need_writeback_on_reeviction():
    host = make_host()
    vm = make_vm()
    binding, _ = place(host, vm, 10)
    host.memory.fault_in("vm1", np.arange(10))
    vm.pages.swap_out(np.arange(10))
    host.memory.fault_in("vm1", np.arange(10))
    binding.writeback_backlog = 0.0
    host.memory.dirty("vm1", np.arange(10))  # invalidates swap copies
    host.memory.tick = 1
    host.memory.fault_in("vm1", np.arange(10, 12))
    assert binding.writeback_backlog == 2 * PAGE


def test_host_capacity_enforced_across_vms():
    # host: 10 MiB - 1 MiB OS = 9 MiB usable = 2304 pages
    host = make_host(mem_mib=10, os_mib=1)
    dev = SSDSwapDevice("ssd")
    vm1 = make_vm("vm1", pages=2000)
    vm2 = make_vm("vm2", pages=2000)
    host.place_vm(vm1, 2000 * PAGE, dev)
    host.place_vm(vm2, 2000 * PAGE, dev)  # reservations exceed host RAM
    host.memory.fault_in("vm1", np.arange(2000))
    host.memory.fault_in("vm2", np.arange(2000))
    total = host.memory.total_resident_bytes()
    assert total <= host.memory.usable_bytes() + PAGE


def test_writeback_drains_via_tick_protocol():
    host = make_host()
    vm = make_vm()
    dev = SSDSwapDevice("ssd", write_bps=4 * PAGE)  # 4 pages/s
    binding, _ = place(host, vm, 10, dev=dev)
    host.memory.fault_in("vm1", np.arange(18))  # evicts 8 fresh pages
    assert binding.writeback_backlog == 8 * PAGE
    host.memory.pre_tick(1.0)
    dev.arbitrate(1.0)
    host.memory.commit_tick(1.0)
    assert binding.writeback_backlog == 4 * PAGE


def test_free_vm_memory_keeps_swap_state():
    host = make_host()
    vm = make_vm()
    place(host, vm, 10)
    host.memory.fault_in("vm1", np.arange(15))  # 5 evicted to swap
    host.memory.free_vm_memory("vm1")
    assert vm.pages.resident_pages() == 0
    assert vm.pages.swapped_pages() == 5  # per-VM swap survives (§IV-B)


def test_unregister_closes_queues():
    host = make_host()
    vm = make_vm()
    binding, _ = place(host, vm, 10)
    host.remove_vm("vm1")
    assert not host.memory.has_vm("vm1")
    assert not binding.fault_queue.active
    assert not binding.write_queue.active


def test_shrink_to_reservation():
    host = make_host()
    vm = make_vm()
    binding, _ = place(host, vm, 50)
    host.memory.fault_in("vm1", np.arange(40))
    binding.cgroup.set_reservation(20 * PAGE)
    evicted = host.memory.shrink_to_reservation("vm1")
    assert evicted == 20
    assert vm.pages.resident_pages() == 20


def test_invalid_host_memory_config():
    net = Network()
    with pytest.raises(ValueError):
        Host("h", 100 * MiB, net, host_os_bytes=200 * MiB)


def test_adopt_vm_carries_cgroup_and_backend():
    net = Network()
    src = Host("src", 10 * MiB, net, host_os_bytes=1 * MiB)
    dst = Host("dst", 10 * MiB, net, host_os_bytes=1 * MiB)
    vm = make_vm()
    dev = SSDSwapDevice("ssd")
    binding, _ = place(src, vm, 10, dev=dev)
    src.remove_vm("vm1")
    new_binding = dst.adopt_vm(vm, binding)
    assert vm.host == "dst"
    assert new_binding.cgroup is binding.cgroup
    assert new_binding.backend is dev
