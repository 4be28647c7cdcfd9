"""Property-based tests for network arbitration invariants.

Flow counts reach well past the scalar-batch cutoff (12 flows per
priority class), so both the scalar and the vector fill are exercised.
Besides the oracle-free invariants, a max-min certificate checks each
allocation against the specification of strict-priority max-min
fairness itself, on both arbiters and on flat and three-tier fabrics.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.net import Network
from repro.sched.topology import Topology

#: the tiered fabric's shape: 2 AZs x 2 pods x 2 racks x 2 hosts
_TIERED_HOSTS_PER_RACK = 2
_TIERED_HOSTS = 2 * 2 * 2 * _TIERED_HOSTS_PER_RACK


@st.composite
def flow_specs(draw, max_hosts=5):
    n_hosts = draw(st.integers(2, max_hosts))
    n_flows = draw(st.integers(1, 48))
    flows = []
    for _ in range(n_flows):
        src = draw(st.integers(0, n_hosts - 1))
        dst = draw(st.integers(0, n_hosts - 1))
        demand = draw(st.floats(min_value=0.0, max_value=1e6))
        prio = draw(st.integers(0, 2))
        flows.append((src, dst, demand, prio))
    return n_hosts, flows


def tiered_topology():
    """Tapered uplinks at NIC speed, plus a core, so tier links bind."""
    t = Topology.tiered(2, 2, 2, uplink_bps=1000.0, oversubscription=2.0,
                        core_bps=1500.0)
    racks = [r for r in t.racks for _ in range(_TIERED_HOSTS_PER_RACK)]
    for i, rack in enumerate(racks):
        t.assign(f"h{i}", rack)
    return t


def build(n_hosts, specs, bw=1000.0, fast_path=True, tiered=False):
    net = Network(default_bandwidth_bps=bw, latency_s=0.0,
                  fast_path=fast_path)
    if tiered:
        net.set_topology(tiered_topology())
    for i in range(n_hosts):
        net.add_host(f"h{i}")
    flows = []
    for src, dst, demand, prio in specs:
        f = net.open_flow(f"h{src}", f"h{dst}", priority=prio)
        f.demand = demand
        flows.append(f)
    return net, flows


def assert_max_min_certificate(flows, demands, dt, tol=1e-6):
    """Check an allocation against strict-priority max-min fairness.

    * every grant is at most its demand;
    * every link carries at most its capacity for the tick;
    * every flow left short of its demand has a bottleneck on its path:
      a link its own and higher classes saturate, on which no flow of
      its class was granted more.
    """
    carried = {}
    for f, d in zip(flows, demands):
        assert 0.0 <= f.granted <= d, (f.name, f.granted, d)
        for link in f.links:
            carried[link] = carried.get(link, 0.0) + f.granted
    for link, used in carried.items():
        cap = link.capacity_per_tick(dt)
        assert used <= cap + tol * max(1.0, cap), (link.name, used, cap)

    for f, d in zip(flows, demands):
        if f.granted >= d - tol:
            continue
        bottlenecked = False
        for link in f.links:
            cap = link.capacity_per_tick(dt)
            sharing = [g for g in flows
                       if g.priority <= f.priority and link in g.links]
            saturated = (sum(g.granted for g in sharing)
                         >= cap - tol * max(1.0, cap))
            top = max(g.granted for g in sharing
                      if g.priority == f.priority)
            if saturated and top <= f.granted + tol:
                bottlenecked = True
                break
        assert bottlenecked, (
            f"{f.name} (prio {f.priority}) got {f.granted!r} of {d!r} "
            f"with no saturated bottleneck on its path")


@settings(max_examples=80, deadline=None)
@given(flow_specs())
def test_grants_never_exceed_demand_or_capacity(spec):
    n_hosts, specs = spec
    net, flows = build(n_hosts, specs)
    demands = [f.demand for f in flows]
    net.arbitrate(dt=1.0)
    for f, d in zip(flows, demands):
        assert f.granted <= d + 1e-6
    # per-link conservation
    usage = {}
    for f, d in zip(flows, specs):
        for link in f.links:
            usage[link] = usage.get(link, 0.0) + f.granted
    for link, used in usage.items():
        assert used <= link.capacity_bps + 1e-3


@settings(max_examples=80, deadline=None)
@given(flow_specs())
def test_work_conservation_on_single_link(spec):
    """If all flows share one bottleneck link, the link is either fully
    used or every demand is satisfied."""
    n_hosts, specs = spec
    # force all flows onto h0 -> h1
    specs = [(0, 1, d, p) for (_, _, d, p) in specs]
    net, flows = build(n_hosts, specs, bw=500.0)
    demands = [f.demand for f in flows]
    net.arbitrate(dt=1.0)
    total_granted = sum(f.granted for f in flows)
    total_demand = sum(demands)
    assert total_granted == pytest.approx(min(total_demand, 500.0),
                                          rel=1e-6, abs=1e-3)


@settings(max_examples=60, deadline=None)
@given(flow_specs())
def test_strict_priority_dominance(spec):
    """A priority-0 flow is never worse off than it would be with the
    lower classes absent entirely."""
    n_hosts, specs = spec
    net_all, flows_all = build(n_hosts, specs)
    net_all.arbitrate(dt=1.0)
    hi_grants = {i: f.granted for i, (f, s) in
                 enumerate(zip(flows_all, specs)) if s[3] == 0}

    only_hi = [(s if s[3] == 0 else (s[0], s[1], 0.0, s[3]))
               for s in specs]
    net_hi, flows_hi = build(n_hosts, only_hi)
    net_hi.arbitrate(dt=1.0)
    for i, grant in hi_grants.items():
        assert grant == pytest.approx(flows_hi[i].granted, rel=1e-6,
                                      abs=1e-6)


@pytest.mark.parametrize("fast_path", [True, False],
                         ids=["fast", "reference"])
@settings(max_examples=80, deadline=None)
@given(spec=flow_specs())
def test_max_min_certificate_flat(fast_path, spec):
    n_hosts, specs = spec
    net, flows = build(n_hosts, specs, fast_path=fast_path)
    demands = [f.demand for f in flows]
    net.arbitrate(dt=1.0)
    assert_max_min_certificate(flows, demands, dt=1.0)


@pytest.mark.parametrize("fast_path", [True, False],
                         ids=["fast", "reference"])
@settings(max_examples=80, deadline=None)
@given(spec=flow_specs(max_hosts=_TIERED_HOSTS))
def test_max_min_certificate_tiered(fast_path, spec):
    n_hosts, specs = spec
    net, flows = build(n_hosts, specs, fast_path=fast_path, tiered=True)
    demands = [f.demand for f in flows]
    net.arbitrate(dt=1.0)
    assert_max_min_certificate(flows, demands, dt=1.0)
