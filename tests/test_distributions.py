"""Tests for the uniform access distribution."""

import math
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads import UniformAccess, distribution


def mask(n, idx):
    m = np.zeros(n, dtype=bool)
    m[list(idx)] = True
    return m


def draw(u, region, k, rng):
    """``u.sample`` with the class size counted from the mask."""
    return u.sample(region, k, rng, int(np.count_nonzero(region)))


# -- uniform -------------------------------------------------------------------

def test_uniform_sample_distinct_members():
    u = UniformAccess()
    rng = np.random.default_rng(0)
    got = draw(u, mask(100, range(50)), 10, rng)
    assert got.size == 10
    assert len(set(got.tolist())) == 10
    assert np.all(got < 50)


def test_uniform_sample_returns_all_when_few():
    u = UniformAccess()
    rng = np.random.default_rng(0)
    got = draw(u, mask(10, [3, 7]), 5, rng)
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
    got = draw(u, region, k, np.random.default_rng(seed))
    assert got.dtype == np.int64
    assert got.size == min(k, m)
    assert np.unique(got).size == got.size
    assert np.all(region[got])
    again = draw(u, region, k, np.random.default_rng(seed))
    assert got.tolist() == again.tolist()


@pytest.mark.parametrize("m, k", [(4000, 10), (4000, 499), (4000, 501),
                                  (4000, 3999)])
def test_uniform_sample_around_the_branch_cut(m, k):
    region = mask(20000, range(0, 20000, 5)[:m])
    got = draw(UniformAccess(), region, k, np.random.default_rng(3))
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
        counts[draw(u, region, k, rng)] += 1
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


# -- the parent sampler as an oracle -------------------------------------------

def oracle_sample(region, k, rng):
    """The sampler before window counts: ``m`` counted from the mask,
    repeats dropped by a key sort."""
    m = int(np.count_nonzero(region))
    if m <= k:
        return np.flatnonzero(region)
    if m < 8 * k:
        return rng.choice(np.flatnonzero(region), size=k, replace=False)
    n = region.size
    hits = np.empty(0, dtype=np.int64)
    while True:
        short = k - hits.size
        want = short + short * k // m + 4 * math.isqrt(short) + 4
        draws = rng.integers(0, n, size=want * n // m + 1)
        hits = oracle_first_occurrences(
            np.concatenate((hits, draws[region[draws]])))
        if hits.size >= k:
            return hits[:k]


def oracle_first_occurrences(a):
    n = a.size
    keys = np.sort(a * n + np.arange(n))
    values = keys // n
    first = np.empty(n, dtype=bool)
    first[:1] = True
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return a[np.sort(keys[first] % n)]


def assert_scratch_clear():
    assert np.all(distribution._scratch == distribution._SENTINEL)


def assert_matches_oracle(region, k, seed, w_len=None):
    """The new call (prefix view, ``m`` passed in) returns the oracle's
    array and leaves the generator in the oracle's state.

    With ``w_len`` the class is the region's first ``w_len`` pages: the
    oracle gets the region-wide mask cleared past the prefix (the old
    copy-and-truncate), the sampler gets the prefix view.
    """
    n = region.size
    full = region.copy()
    if w_len is not None:
        full[w_len:] = False
    rng_old, rng_new = (np.random.default_rng(seed) for _ in range(2))
    want = oracle_sample(full, k, rng_old)
    view = region if w_len is None else region[:w_len]
    got = UniformAccess().sample(view, k, rng_new,
                                 int(np.count_nonzero(view)), n)
    assert got.dtype == want.dtype
    assert got.tolist() == want.tolist()
    assert rng_new.bit_generator.state == rng_old.bit_generator.state
    assert_scratch_clear()


@settings(max_examples=120, deadline=None)
@given(n=st.integers(1, 3000), density=st.floats(0.0, 1.0),
       k=st.integers(1, 400), prefix=st.floats(0.0, 1.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_sample_matches_the_parent_sampler(n, density, k, prefix, seed):
    region = np.random.default_rng(seed).random(n) < density
    assert_matches_oracle(region, k, seed)
    assert_matches_oracle(region, k, seed, w_len=max(1, int(n * prefix)))


@pytest.mark.parametrize("extra", [-1, 0, 1])
@pytest.mark.parametrize("w_len", [None, 60000])
def test_sample_matches_the_parent_sampler_at_the_branch_cut(extra, w_len):
    """``m`` within one of ``8 k`` with ``k`` = 1,000: the scan branch
    just below, the rejection branch from ``8 k`` on."""
    k, n = 1000, 80000
    m = 8 * k + extra
    region = np.zeros(n, dtype=bool)
    span = n if w_len is None else w_len
    region[np.random.default_rng(5).choice(span, size=m, replace=False)] = True
    region[span:] = np.random.default_rng(6).random(n - span) < 0.5
    for seed in range(3):
        assert_matches_oracle(region, k, seed, w_len=w_len)


def test_first_occurrence_scratch_is_clear_after_every_call():
    rng = np.random.default_rng(2)
    u = UniformAccess()
    for n in (10, 5000, 300):
        region = rng.random(n) < 0.9
        for k in (1, 3, n // 20 + 1):
            u.sample(region, k, rng, int(np.count_nonzero(region)))
            assert_scratch_clear()
    assert distribution._scratch.dtype == np.int32
