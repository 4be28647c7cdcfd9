"""Tests for access distributions (uniform and Zipf)."""

from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import World, preload_dataset
from repro.util import MiB
from repro.workloads import (
    KeyValueWorkload,
    UniformAccess,
    ZipfAccess,
    ycsb_redis_params,
)


def mask(n, idx):
    m = np.zeros(n, dtype=bool)
    m[list(idx)] = True
    return m


# -- uniform -------------------------------------------------------------------

def test_uniform_probability_is_fraction():
    u = UniformAccess()
    assert u.class_probability(mask(10, [0, 1, 2])) == pytest.approx(0.3)
    assert u.class_probability(np.zeros(0, dtype=bool)) == 0.0


def test_uniform_sample_distinct_members():
    u = UniformAccess()
    rng = np.random.default_rng(0)
    got = u.sample(mask(100, range(50)), 10, rng)
    assert got.size == 10
    assert len(set(got.tolist())) == 10
    assert np.all(got < 50)


def test_uniform_sample_returns_all_when_few():
    u = UniformAccess()
    rng = np.random.default_rng(0)
    got = u.sample(mask(10, [3, 7]), 5, rng)
    assert sorted(got.tolist()) == [3, 7]


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 3000), density=st.floats(0.0, 1.0),
       k=st.integers(1, 400), seed=st.integers(0, 2 ** 32 - 1))
def test_uniform_sample_both_branches_exact_size_distinct_in_class(
        n, density, k, seed):
    """Dense classes (m >= 8k) take the rejection branch, sparse ones the
    scan; both return min(k, m) distinct members, reproducibly."""
    region = np.random.default_rng(seed).random(n) < density
    m = int(np.count_nonzero(region))
    u = UniformAccess()
    got = u.sample(region, k, np.random.default_rng(seed))
    assert got.dtype == np.int64
    assert got.size == min(k, m)
    assert np.unique(got).size == got.size
    assert np.all(region[got])
    again = u.sample(region, k, np.random.default_rng(seed))
    assert got.tolist() == again.tolist()


@pytest.mark.parametrize("m, k", [(4000, 10), (4000, 499), (4000, 501),
                                  (4000, 3999)])
def test_uniform_sample_around_the_branch_cut(m, k):
    region = mask(20000, range(0, 20000, 5)[:m])
    got = UniformAccess().sample(region, k, np.random.default_rng(3))
    assert got.size == k
    assert np.unique(got).size == k
    assert np.all(region[got])


def test_uniform_dense_sample_is_uniform_chi_square():
    """Inclusion counts over a dense class match a uniform k-subset.

    Each member is picked with probability p = k/m per call, so its
    count over R calls has variance R p (1 - p). The scaled statistic is
    then close to chi-square with m - 1 degrees of freedom; the bound is
    its 1 - 1e-6 quantile (Wilson-Hilferty), fixed before any run.
    """
    n, k, calls = 4096, 64, 3000
    region = np.random.default_rng(11).random(n) < 0.5
    members = np.flatnonzero(region)
    m = members.size
    assert m >= 8 * k  # the rejection branch
    u, rng = UniformAccess(), np.random.default_rng(12)
    counts = np.zeros(n)
    for _ in range(calls):
        counts[u.sample(region, k, rng)] += 1
    assert counts[~region].sum() == 0
    p = k / m
    expect = calls * p
    stat = float(((counts[members] - expect) ** 2).sum()
                 / (expect * (1 - p)))
    dof = m - 1
    z = NormalDist().inv_cdf(1 - 1e-6)
    bound = dof * (1 - 2 / (9 * dof) + z * (2 / (9 * dof)) ** 0.5) ** 3
    assert stat < bound, (stat, bound)
    # picks are spread, not clustered at the low end of the region
    low = members[: m // 2]
    assert abs(counts[low].sum() / (calls * k) - 0.5) < 0.02


# -- zipf ---------------------------------------------------------------------

def test_zipf_validation():
    with pytest.raises(ValueError):
        ZipfAccess(theta=0.0)


def test_zipf_head_is_hot():
    z = ZipfAccess(theta=0.99)
    n = 1000
    head = z.class_probability(mask(n, range(10)))
    tail = z.class_probability(mask(n, range(n - 10, n)))
    assert head > 20 * tail


def test_zipf_probabilities_sum_to_one():
    z = ZipfAccess(theta=0.8)
    full = z.class_probability(np.ones(500, dtype=bool))
    assert full == pytest.approx(1.0)


def test_zipf_weights_adapt_to_region_size():
    z = ZipfAccess()
    p_small = z.class_probability(mask(10, [0]))
    p_large = z.class_probability(mask(10000, [0]))
    assert p_small > p_large  # page 0's share shrinks in a bigger region


def test_zipf_sampling_prefers_head():
    z = ZipfAccess(theta=1.2)
    rng = np.random.default_rng(1)
    n = 1000
    counts = np.zeros(n)
    for _ in range(200):
        got = z.sample(np.ones(n, dtype=bool), 5, rng)
        counts[got] += 1
    assert counts[:20].sum() > counts[-500:].sum()


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 200), st.data())
def test_distribution_invariants(n, data):
    """Property: probabilities in [0,1]; disjoint classes add up."""
    dist = data.draw(st.sampled_from([UniformAccess(), ZipfAccess(0.99)]))
    cut = data.draw(st.integers(0, n))
    a = np.zeros(n, dtype=bool)
    a[:cut] = True
    b = ~a
    pa, pb = dist.class_probability(a), dist.class_probability(b)
    assert 0.0 <= pa <= 1.0 + 1e-9
    assert pa + pb == pytest.approx(1.0)


# -- integration: zipf workload keeps its hot head resident ----------------------

def test_zipf_workload_hot_head_stays_resident():
    w = World(dt=0.5, seed=4, net_bandwidth_bps=50e6)
    w.add_host("h1", 64 * MiB, host_os_bytes=4 * MiB)
    w.add_client_host()
    vm = w.add_vm("vm1", 48 * MiB, "h1")
    dev = w.add_ssd("ssd", read_bps=20e6, write_bps=10e6)
    w.hosts["h1"].place_vm(vm, 8 * MiB, dev)
    preload_dataset(vm, w.manager_of("h1"), 32 * MiB)
    wl = KeyValueWorkload(
        vm, w.network, "client", w.manager_of, w.recorder, w.rng("wl"),
        dataset_bytes=32 * MiB, params=ycsb_redis_params(),
        distribution=ZipfAccess(theta=0.99), sim_now=lambda: w.sim.now)
    w.add_workload(wl)
    w.run(until=60.0)
    # under LRU + zipf, the hottest pages converge into residency
    head = vm.pages.present[:64]
    tail = vm.pages.present[4096:4160]
    assert head.mean() > tail.mean()
    # and a skewed workload runs faster than a uniform one over the
    # same over-committed region (its effective working set fits)
    w2 = World(dt=0.5, seed=4, net_bandwidth_bps=50e6)
    w2.add_host("h1", 64 * MiB, host_os_bytes=4 * MiB)
    w2.add_client_host()
    vm2 = w2.add_vm("vm1", 48 * MiB, "h1")
    dev2 = w2.add_ssd("ssd", read_bps=20e6, write_bps=10e6)
    w2.hosts["h1"].place_vm(vm2, 8 * MiB, dev2)
    preload_dataset(vm2, w2.manager_of("h1"), 32 * MiB)
    wl2 = KeyValueWorkload(
        vm2, w2.network, "client", w2.manager_of, w2.recorder, w2.rng("wl"),
        dataset_bytes=32 * MiB, params=ycsb_redis_params(),
        sim_now=lambda: w2.sim.now)
    w2.add_workload(wl2)
    w2.run(until=60.0)
    zipf_tput = w.recorder.series("vm1.throughput").between(30, 60).mean()
    uni_tput = w2.recorder.series("vm1.throughput").between(30, 60).mean()
    assert zipf_tput > 1.5 * uni_tput
