"""YCSB-over-Redis workload model (§V-A).

An in-memory key-value store queried by an external YCSB client with
read-mostly operations over a uniform distribution. Two modeling notes
anchored in how Redis actually behaves:

* records are ~1 KB, so one op touches one page and produces ~1.2 KB of
  response traffic;
* Redis updates per-key metadata (LRU clock, access stats) on *reads*,
  so a large fraction of touched pages are dirtied even by a read-only
  YCSB run — this is what makes pre-copy retransmit gigabytes in
  Table III despite the workload issuing no writes.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.mem.manager import HostMemoryManager
from repro.net.network import Network
from repro.telemetry.instruments import MetricsRegistry
from repro.util import GiB, MiB
from repro.vm.vm import VirtualMachine
from repro.workloads.base import PhasePlan, Workload, WorkloadParams

__all__ = ["KeyValueWorkload", "ycsb_redis_params"]


def ycsb_redis_params(**overrides) -> WorkloadParams:
    """Calibrated defaults for the YCSB/Redis client."""
    base = WorkloadParams(
        cpu_s_per_op=50e-6,        # Redis GET service time
        threads=16,
        pages_per_op=1.0,          # ~1 KB record in one page
        bytes_per_op=1200.0,       # record + protocol overhead
        write_fraction=0.5,        # read-triggered metadata dirtying
        dirty_pages_per_write=1.0,
        write_region_fraction=0.15,  # hot dict/metadata pages
        readahead=8.0,
        swap_fault_latency_s=250e-6,
        source_fault_latency_s=1e-3,
        max_swapin_bps=12e6,       # synchronous swap-in ceiling per VM
    )
    return base.scaled(**overrides) if overrides else base


class KeyValueWorkload(Workload):
    """YCSB querying a Redis dataset held in VM memory.

    Parameters
    ----------
    dataset_bytes:
        The loaded Redis dataset size (9 GB in §V-A). The dataset
        occupies the first ``dataset_bytes`` of guest memory.
    query_plan:
        Phases of ``(start_time, queried_bytes)`` — the fraction of the
        dataset the client draws keys from, as in the paper's ramp from
        200 MB to 6 GB. Defaults to querying the whole dataset.
    """

    def __init__(self, vm: VirtualMachine, network: Network,
                 client_host: str,
                 manager_of: Callable[[str], HostMemoryManager],
                 recorder: MetricsRegistry, rng: np.random.Generator,
                 dataset_bytes: float,
                 query_plan: Optional[list[tuple[float, float]]] = None,
                 params: Optional[WorkloadParams] = None,
                 distribution=None, cpu_of=None,
                 sim_now: Optional[Callable[[], float]] = None):
        page = vm.pages.page_size
        dataset_pages = int(dataset_bytes // page)
        if dataset_pages <= 0:
            raise ValueError("dataset smaller than one page")
        if dataset_pages > vm.n_pages:
            raise ValueError("dataset larger than VM memory")
        self.dataset_pages = dataset_pages
        if query_plan is None:
            phases = [(0.0, 0, dataset_pages)]
        else:
            phases = [(t, 0, max(1, min(dataset_pages, int(b // page))))
                      for t, b in query_plan]
        super().__init__(vm, PhasePlan(phases), network, client_host,
                         manager_of, recorder, rng,
                         params=params or ycsb_redis_params(),
                         distribution=distribution, cpu_of=cpu_of,
                         sim_now=sim_now)

    @staticmethod
    def paper_ramp_plan(vm_index: int, small_bytes: float = 200 * MiB,
                        large_bytes: float = 6 * GiB,
                        ramp_start: float = 150.0,
                        stagger: float = 50.0) -> list[tuple[float, float]]:
        """The §V-A load schedule: every client first queries 200 MB; from
        t=150 s the clients switch to 6 GB one by one, 50 s apart."""
        return [(0.0, small_bytes),
                (ramp_start + vm_index * stagger, large_bytes)]
