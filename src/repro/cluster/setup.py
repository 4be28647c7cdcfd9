"""Scenario setup helpers.

The paper's experiments start from a state where a dataset was already
loaded into the VM *before* the measured window: pages beyond the memory
reservation (or host capacity) were swapped out during loading. Rather
than simulating the unmeasured load phase, :func:`preload_dataset` places
the page state directly — resident pages up to the effective limit, the
remainder on the VM's swap device with valid (clean) swap copies.
"""

from __future__ import annotations

import numpy as np

from repro.mem.device import SSDSwapDevice
from repro.mem.manager import HostMemoryManager, VmMemoryBinding
from repro.vm.vm import VirtualMachine
from repro.vmd.namespace import VMDNamespace

__all__ = ["preload_dataset"]


def preload_dataset(vm: VirtualMachine, manager: HostMemoryManager,
                    dataset_bytes: float,
                    cold_tail_bytes: float = 0.0,
                    dirty_resident: bool = False) -> VmMemoryBinding:
    """Install a loaded dataset in ``vm``'s first pages.

    Residency is capped by the VM's cgroup reservation *and* the host's
    free memory; the excess is swapped out to the VM's swap backend with
    clean copies (it was written there during loading). Pages are aged
    oldest-first so LRU eviction behaves sensibly from tick 0.

    ``cold_tail_bytes`` allocates additional pages *after* the dataset
    that start out swapped — the guest OS image, page cache, and other
    memory a long-running VM has touched but is not using. Baseline
    migrations must move these bytes; Agile sends only their offsets.

    ``dirty_resident`` marks resident pages dirty (a freshly written
    dataset that never hit swap, e.g. for write-heavy scenarios).
    Returns the VM's binding for convenience.
    """
    binding = manager.binding(vm.name)
    pages = vm.pages
    page = pages.page_size
    n_data = int(dataset_bytes // page)
    n_cold = int(cold_tail_bytes // page)
    if n_data <= 0 or n_data + n_cold > pages.n_pages:
        raise ValueError(
            f"dataset ({n_data}) + cold tail ({n_cold}) pages exceed VM")

    limit_bytes = min(binding.cgroup.reservation_bytes,
                      max(0.0, manager.free_bytes()))
    n_resident = min(n_data, int(limit_bytes // page))
    n_swapped = n_data - n_resident

    # The *end* of the dataset was loaded last, so it stays resident and
    # the beginning was evicted during loading (matches a linear load).
    resident_idx = np.arange(n_swapped, n_data)
    swapped_idx = np.concatenate([
        np.arange(0, n_swapped),
        np.arange(n_data, n_data + n_cold),
    ])
    pages.make_resident(resident_idx, tick=0)
    if dirty_resident:
        pages.mark_dirty(resident_idx)
    if swapped_idx.size > 0:
        swapped_bytes = float(swapped_idx.size) * page
        pages.mark_swapped(swapped_idx)
        backend = binding.backend
        if isinstance(backend, VMDNamespace):
            placed = backend.preload(swapped_bytes)
            if placed < swapped_bytes:
                raise RuntimeError("VMD servers too small for preload")
        elif isinstance(backend, SSDSwapDevice):
            backend.allocate(swapped_bytes)
    pages.check_invariants()
    return binding
