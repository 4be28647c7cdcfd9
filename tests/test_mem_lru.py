"""Lockstep exactness tests for the page eviction order.

``PageSet.lru_candidates`` answers from one cached eviction run walked
from a cursor (see ``repro.mem.pages``). These tests hold it to the
spec, written here as a direct oracle: among the present pages evict
the ``k`` smallest by ``(last_access, scramble(page))``, ``scramble(p) =
p * 2654435761 mod 2**32``, returned in that order.

``TwinPages`` drives a ``PageSet`` and a plain-array model through the
same random transitions — fault-ins, touches, evictions, drops and
releases, with non-monotone ticks (page sets move between managers whose
tick counters differ) — and after every step compares the arrays,
rechecks the run and its cursor (``check_invariants``) and checks
``lru_candidates`` against the oracle for several ``k``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mem import PageSet


def oracle_scramble(idx):
    return (idx.astype(np.uint64) * np.uint64(2654435761)) % np.uint64(2 ** 32)


def oracle_victims(present, last_access, k):
    """The spec: the k smallest present pages by (last_access, scramble)."""
    cand = np.flatnonzero(present)
    order = np.lexsort((oracle_scramble(cand), last_access[cand]))
    return cand[order][:max(k, 0)]


class TwinPages:
    """A ``PageSet`` and a plain-array model of residency and stamps,
    mutated in lockstep and compared after every step."""

    def __init__(self, n_pages):
        self.ps = PageSet(n_pages, page_size=4096)
        self.present = np.zeros(n_pages, dtype=bool)
        self.last_access = np.zeros(n_pages, dtype=np.int64)

    def make_resident(self, idx, tick):
        self.ps.make_resident(idx, tick)
        self.present[idx] = True
        self.last_access[idx] = tick

    def touch(self, idx, tick):
        self.ps.touch(idx, tick)
        hit = idx[self.present[idx]]
        self.last_access[hit] = tick

    def leave(self, op, idx):
        getattr(self.ps, op)(idx)
        self.present[idx] = False

    def evict(self, k):
        victims = self.ps.lru_candidates(k)
        assert victims.tolist() == oracle_victims(
            self.present, self.last_access, k).tolist()
        self.leave("swap_out", victims)
        return victims

    def check(self, ks):
        ps = self.ps
        ps.check_invariants()
        assert np.array_equal(ps.present, self.present)
        assert np.array_equal(ps.last_access[self.present],
                              self.last_access[self.present])
        for k in ks:
            got = ps.lru_candidates(k)
            want = oracle_victims(self.present, self.last_access, k)
            assert got.dtype == np.int64
            assert got.tolist() == want.tolist(), k
        ps.check_invariants()


OPS = ["fault", "fault", "touch", "touch", "evict", "evict", "swap_out",
       "drop", "release_resident"]


@settings(max_examples=300, deadline=None)
@given(n_pages=st.integers(min_value=1, max_value=400),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       steps=st.lists(st.tuples(st.sampled_from(OPS),
                                st.integers(min_value=0, max_value=6),
                                st.floats(min_value=0.0, max_value=1.0),
                                st.integers(min_value=0, max_value=120)),
                      min_size=1, max_size=30))
def test_lru_candidates_match_oracle_in_lockstep(n_pages, seed, steps):
    rng = np.random.default_rng(seed)
    twin = TwinPages(n_pages)
    # a large first fault group, like a dataset preload at tick 0, so
    # the tie-group walk spans several blocks
    twin.make_resident(np.flatnonzero(rng.random(n_pages) < 0.8), 0)
    for op, tick, frac, k in steps:
        idx = np.flatnonzero(rng.random(n_pages) < frac)
        if op == "fault":
            twin.make_resident(idx, tick)
        elif op == "touch":
            twin.touch(idx, tick)
        elif op == "evict":
            twin.evict(k)
        else:
            twin.leave(op, idx)
        twin.check(ks=(0, 1, k, twin.ps.resident_pages(),
                                n_pages + 1))


def test_preload_group_is_consumed_in_scramble_order_and_freed():
    n = 5000
    twin = TwinPages(n)
    twin.make_resident(np.arange(n), 0)
    twin.make_resident(np.arange(100), 3)  # a newer group stays
    taken, left = [], n - 100
    while left:
        taken.append(twin.evict(min(83, left)))
        left -= taken[-1].size
        twin.ps.check_invariants()
    taken = np.concatenate(taken)
    # one walk through the tick-0 group, lowest scramble first
    assert np.all(np.diff(oracle_scramble(taken).astype(np.int64)) > 0)
    assert twin.evict(7).tolist() == oracle_victims(
        np.isin(np.arange(n), np.arange(100)),
        np.full(n, 3), 7).tolist()
    assert twin.ps._run.size == 0  # consumed, so freed
    twin.ps.check_invariants()


def test_run_is_int32_and_cursor_skips_only_stale_entries():
    ps = PageSet(1000)
    ps.make_resident(np.arange(999), 2)
    ps.make_resident(np.array([999]), 3)  # opens stamp 3, closing stamp 2
    first = ps.lru_candidates(10)
    run = ps._run
    assert run.dtype == np.int32 and run.size == 999 and ps._horizon == 2
    # a query does not consume: asking again returns the same pages
    assert ps.lru_candidates(10).tolist() == first.tolist()
    assert ps._pos == 0
    ps.swap_out(first)
    second = ps.lru_candidates(10)
    assert not np.isin(second, first).any()
    assert ps._pos == 10  # past the evicted entries only
    ps.touch(second[:1], 4)  # restamped above the horizon: stale
    third = ps.lru_candidates(10)
    assert third.tolist() == second[1:].tolist() + [int(run[20])]
    assert ps._pos == 11 and ps._run is run  # no rebuild
    ps.check_invariants()


def test_restamp_into_cut_group_invalidates_cursor():
    """Non-monotone ticks: a page stamped at or below the run's horizon
    may sort behind the cursor, so the run must be discarded; a restamp
    above the horizon keeps it."""
    ps = PageSet(300)
    ps.make_resident(np.arange(300), 4)
    ps.touch(np.array([299]), 5)  # closes stamp 4
    ps.swap_out(ps.lru_candidates(250))
    assert ps._horizon == 4
    left = np.flatnonzero(ps.present)
    ps.touch(left[:3], 6)
    assert ps._horizon == 4 and ps._run.size == 299
    ps.make_resident(np.arange(20), 4)  # rejoin the tick-4 stamp
    assert ps._horizon == -1 and ps._run.size == 0
    want = oracle_victims(ps.present, ps.last_access, 30)
    assert ps.lru_candidates(30).tolist() == want.tolist()
    assert set(want.tolist()) - set(left.tolist())  # rejoiners do sort first
    ps.check_invariants()


def test_newly_closed_stamps_are_sorted_without_the_consumed_ones(
        monkeypatch):
    sorted_sizes = []
    keys = PageSet._keys

    def counting(self, idx):
        sorted_sizes.append(idx.size)
        return keys(self, idx)

    twin = TwinPages(2000)
    twin.make_resident(np.arange(1000), 0)
    twin.make_resident(np.arange(1000, 1050), 1)
    twin.make_resident(np.array([1050]), 2)
    monkeypatch.setattr(PageSet, "_keys", counting)
    for _ in range(7):
        twin.evict(150)  # stamps 0 and 1, one sort of 1050 pages
    twin.make_resident(np.arange(1100, 1130), 3)
    twin.make_resident(np.array([1200]), 4)
    twin.evict(10)  # the last of stamp 1, then stamps 2 and 3
    assert sorted_sizes == [1050, 31]
    monkeypatch.undo()
    twin.check(ks=(0, 5, 40))


def test_touch_restamps_only_present_pages():
    ps = PageSet(10)
    ps.make_resident(np.arange(5), 1)
    ps.touch(np.array([3, 7]), 9)
    assert ps.last_access[3] == 9
    assert ps.last_access[7] == 0  # never resident: no stamp
    ps.lru_candidates(1)  # builds the run
    ps.touch(np.array([4, 8]), 12)
    ps.check_invariants()
    assert ps.lru_candidates(5).tolist() == [0, 2, 1, 3, 4]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lockstep_oltp_regime_small_groups_monotone_ticks(seed,
                                                          monkeypatch):
    """Hundreds of small per-tick stamp groups under a resident cap, as
    in the pre-copy OLTP run: every eviction spans several stamps, and
    the run is rebuilt in only a small fraction of the calls."""
    builds = []
    build = PageSet._build

    def counting(self, live):
        builds.append(self._newest)
        build(self, live)

    monkeypatch.setattr(PageSet, "_build", counting)
    rng = np.random.default_rng(seed)
    n, cap = 3000, 1200
    twin = TwinPages(n)
    twin.make_resident(rng.choice(n, size=cap, replace=False), 0)
    calls = spanning = 0
    for tick in range(1, 400):
        twin.make_resident(rng.choice(n, size=rng.integers(5, 40),
                                      replace=False), tick)
        hot = rng.choice(n, size=rng.integers(0, 30), replace=False)
        twin.touch(hot, tick)
        if rng.random() < 0.02:
            twin.leave("drop", rng.choice(n, size=10, replace=False))
        over = twin.ps.resident_pages() - cap
        if tick % 4 == 0 and over > 0:
            victims = twin.evict(int(over) + int(rng.integers(0, 20)))
            calls += 1
            spanning += np.unique(twin.ps.last_access[victims]).size > 1
        if tick % 50 == 0:
            twin.check(ks=(1, 17, 300))
    assert spanning >= calls // 2
    assert len(builds) <= calls // 5, (len(builds), calls)
