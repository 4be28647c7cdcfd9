"""Sysbench OLTP over MySQL workload model (§V-C2).

Each transaction is much heavier than a KV op: it reads a spread of index
and row pages across the whole dataset and writes several pages (rows +
redo). Throughput is reported in transactions/s, matching Table I's
Sysbench rows.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.mem.manager import HostMemoryManager
from repro.net.network import Network
from repro.telemetry.instruments import MetricsRegistry
from repro.vm.vm import VirtualMachine
from repro.workloads.base import PhasePlan, Workload, WorkloadParams

__all__ = ["OLTPWorkload", "sysbench_mysql_params"]


def sysbench_mysql_params(**overrides) -> WorkloadParams:
    """Calibrated defaults for the Sysbench OLTP client."""
    base = WorkloadParams(
        cpu_s_per_op=8e-3,         # per-transaction CPU (query parsing etc.)
        threads=8,
        pages_per_op=48.0,         # B-tree descents + row pages per txn
        bytes_per_op=8000.0,       # result set
        write_fraction=0.3,
        dirty_pages_per_write=10.0,
        write_region_fraction=0.25,  # rows + redo/index hot set
        readahead=8.0,
        swap_fault_latency_s=250e-6,
        source_fault_latency_s=1e-3,
        max_swapin_bps=20e6,       # more parallel I/O than the KV store
    )
    return base.scaled(**overrides) if overrides else base


class OLTPWorkload(Workload):
    """Sysbench OLTP against a MySQL dataset in VM memory.

    The whole ``dataset_bytes`` region is queried uniformly (Sysbench
    default); the dataset occupies the first pages of guest memory.
    """

    def __init__(self, vm: VirtualMachine, network: Network,
                 client_host: str,
                 manager_of: Callable[[str], HostMemoryManager],
                 recorder: MetricsRegistry, rng: np.random.Generator,
                 dataset_bytes: float,
                 params: Optional[WorkloadParams] = None,
                 cpu_of=None,
                 sim_now: Optional[Callable[[], float]] = None):
        page = vm.pages.page_size
        dataset_pages = int(dataset_bytes // page)
        if not 0 < dataset_pages <= vm.n_pages:
            raise ValueError("dataset must fit in VM memory")
        self.dataset_pages = dataset_pages
        super().__init__(vm, PhasePlan.constant(0, dataset_pages), network,
                         client_host, manager_of, recorder, rng,
                         params=params or sysbench_mysql_params(),
                         cpu_of=cpu_of,
                         sim_now=sim_now)
