"""Ablation: workload dirtying intensity vs technique sensitivity.

The paper's motivation for the hybrid design (§III): pre-copy's cost is
workload-dependent (dirty pages are retransmitted every round) while
Agile performs exactly one live round, so it is "less sensitive to the
nature of the workload than pre-copy". We sweep the size of the hot
write set on a VM that *fits* in host memory (so the workload runs at
full speed and dirtying is the dominant effect) and compare each
technique's transfer volume.
"""

from conftest import run_once
from repro.cluster.scenarios import (
    TestbedConfig,
    make_single_vm_lab,
    scale_params_to_page,
)
from repro.util import GiB
from repro.workloads.kv import ycsb_redis_params

FRACTIONS = [0.05, 0.15, 0.40]


def run_with_write_set(technique, fraction):
    cfg = TestbedConfig(seed=0)
    # 5 GiB VM on the 6 GB host: everything resident, workload at full
    # speed -> dirty-page generation is what differentiates techniques.
    lab = make_single_vm_lab(technique, 5 * GiB, busy=True, config=cfg)
    wl = lab.workloads[0]
    wl.params = scale_params_to_page(
        ycsb_redis_params(write_region_fraction=fraction), cfg.page_size)
    lab.run_until_migrated(start=30.0, limit=6000.0)
    return lab.report


def test_dirty_sensitivity(benchmark, emit):
    def sweep():
        return {(t, f): run_with_write_set(t, f)
                for t in ("pre-copy", "agile") for f in FRACTIONS}

    reports = run_once(benchmark, sweep)
    lines = ["", "Ablation — transfer volume (GiB) vs hot-write-set size "
                 "(5 GiB busy VM, fits in memory):",
             "  write set   " + "".join(f"{f:>8.0%}" for f in FRACTIONS)]
    for t in ("pre-copy", "agile"):
        row = "".join(f"{reports[(t, f)].total_bytes / GiB:8.2f}"
                      for f in FRACTIONS)
        lines.append(f"  {t:<11s}{row}")
    emit(*lines)

    pre = [reports[("pre-copy", f)].total_bytes for f in FRACTIONS]
    agile = [reports[("agile", f)].total_bytes for f in FRACTIONS]
    pre_growth = pre[-1] / pre[0]
    agile_growth = agile[-1] / agile[0]
    emit(f"  sensitivity (volume at 40% / at 5%): pre-copy "
         f"{pre_growth:.2f}x, agile {agile_growth:.2f}x")
    # pre-copy's volume grows with the write set...
    assert pre_growth > 1.1
    # ...and faster than Agile's (one live round vs many)
    assert pre_growth > agile_growth
    # Agile stays cheaper at every point
    for p, a in zip(pre, agile):
        assert a < p
