"""Application workload models.

The paper drives its VMs with YCSB against in-VM Redis servers and
Sysbench OLTP against in-VM MySQL servers, from clients on an external
host. We model both as closed-loop clients issuing operations against the
VM's guest memory: each op costs CPU time, touches pages drawn uniformly
from the currently queried region (the paper's YCSB runs use a uniform
distribution), sends a response over the network, and — when a touched
page is not resident — blocks on fault service from the swap device, the
migration source, or the VMD. Throughput therefore emerges from memory
residency and resource contention, which is exactly the quantity
Figures 4-6 and 10 and Table I plot.
"""

from repro.workloads.base import (
    FaultRouter,
    PhasePlan,
    Workload,
    WorkloadParams,
)
from repro.workloads.distribution import (
    AccessDistribution,
    UniformAccess,
)
from repro.workloads.kv import KeyValueWorkload, ycsb_redis_params
from repro.workloads.oltp import OLTPWorkload, sysbench_mysql_params
from repro.workloads.idle import IdleWorkload

__all__ = [
    "AccessDistribution",
    "FaultRouter",
    "IdleWorkload",
    "KeyValueWorkload",
    "OLTPWorkload",
    "PhasePlan",
    "UniformAccess",
    "Workload",
    "WorkloadParams",
    "sysbench_mysql_params",
    "ycsb_redis_params",
]
