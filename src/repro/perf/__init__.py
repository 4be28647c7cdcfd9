"""Performance harness: hundred-host scale scenarios and their metrics.

The paper's contention effects come out of per-tick arbitration; this
package measures what that costs at datacenter scale so the trajectory
(ticks/s, arbiter µs/tick, peak flows) is tracked across PRs in
``BENCH_scale.json``. Three probes:

* :func:`fabric_bench` — a synthetic N-rack fabric with churning
  migration flows and mostly-idle application channels, driven through
  both arbiter implementations; reports their throughput and verifies
  the fast path's grants are identical to the reference oracle's;
* :func:`commit_bench` — fleets of per-host memory managers (the
  pending-set fast path vs the scalar reference) replaying the same
  fault/dirty/shrink churn; reports commit-protocol throughput and
  verifies the fast path's state is identical to the reference's;
* :func:`cluster_bench` — the full datacenter rebalance scenario
  (world, control plane, engines) scaled up, reporting end-to-end
  ticks/s.

``python -m repro.experiments scale`` runs all three and emits the JSON.
"""

from repro.perf.scale import (
    ScaleConfig,
    cluster_bench,
    commit_bench,
    commit_share,
    fabric_bench,
    run_scale,
)

__all__ = ["ScaleConfig", "cluster_bench", "commit_bench", "commit_share",
           "fabric_bench", "run_scale"]
