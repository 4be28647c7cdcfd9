"""Lockstep exactness tests for the page eviction order.

``PageSet.lru_candidates`` answers from a per-stamp histogram and a
cursor over the cut stamp's tie group (see ``repro.mem.pages``). These
tests hold it to the spec, written here as a direct oracle: among the
eligible pages (present and not protected) evict the ``k`` smallest by
``(last_access, scramble(page))``, ``scramble(p) = p * 2654435761 mod
2**32``, returned in that order.

``TwinPages`` drives a ``PageSet`` and a plain-array model through the
same random transitions — fault-ins, touches, evictions, drops and
releases, with non-monotone ticks (page sets move between managers whose
tick counters differ) and random protect masks — and after every step
compares the arrays, recounts the histogram and cursor state
(``check_invariants``) and checks ``lru_candidates`` against the oracle
for several ``k``.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.mem import PageSet


def oracle_scramble(idx):
    return (idx.astype(np.uint64) * np.uint64(2654435761)) % np.uint64(2 ** 32)


def oracle_victims(present, last_access, k, protect=None):
    """The spec: the k smallest eligible pages by (last_access, scramble)."""
    eligible = present if protect is None else present & ~protect
    cand = np.flatnonzero(eligible)
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

    def evict(self, k, protect):
        victims = self.ps.lru_candidates(k, protect=protect)
        assert victims.tolist() == oracle_victims(
            self.present, self.last_access, k, protect).tolist()
        self.leave("swap_out", victims)
        return victims

    def check(self, protect, ks):
        ps = self.ps
        ps.check_invariants()
        assert np.array_equal(ps.present, self.present)
        assert np.array_equal(ps.last_access[self.present],
                              self.last_access[self.present])
        for k in ks:
            got = ps.lru_candidates(k, protect=protect)
            want = oracle_victims(self.present, self.last_access, k, protect)
            assert got.dtype == np.int64
            assert got.tolist() == want.tolist(), (k, protect is not None)
        ps.check_invariants()


OPS = ["fault", "fault", "touch", "touch", "evict", "evict", "swap_out",
       "drop", "release_resident"]


@settings(max_examples=300, deadline=None)
@given(n_pages=st.integers(min_value=1, max_value=400),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       steps=st.lists(st.tuples(st.sampled_from(OPS),
                                st.integers(min_value=0, max_value=6),
                                st.floats(min_value=0.0, max_value=1.0),
                                st.integers(min_value=0, max_value=120),
                                st.booleans()),
                      min_size=1, max_size=30))
def test_lru_candidates_match_oracle_in_lockstep(n_pages, seed, steps):
    rng = np.random.default_rng(seed)
    twin = TwinPages(n_pages)
    # a large first fault group, like a dataset preload at tick 0, so
    # the tie-group walk spans several blocks
    twin.make_resident(np.flatnonzero(rng.random(n_pages) < 0.8), 0)
    for op, tick, frac, k, pinned in steps:
        idx = np.flatnonzero(rng.random(n_pages) < frac)
        protect = None
        if pinned:
            protect = rng.random(n_pages) < rng.random()
        if op == "fault":
            twin.make_resident(idx, tick)
        elif op == "touch":
            twin.touch(idx, tick)
        elif op == "evict":
            twin.evict(k, protect)
        else:
            twin.leave(op, idx)
        twin.check(protect, ks=(0, 1, k, twin.ps.resident_pages(),
                                n_pages + 1))


def test_preload_group_is_consumed_in_scramble_order_and_freed():
    n = 5000
    twin = TwinPages(n)
    twin.make_resident(np.arange(n), 0)
    twin.make_resident(np.arange(100), 3)  # a newer group stays
    taken, left = [], n - 100
    while left:
        taken.append(twin.evict(min(83, left), None))
        left -= taken[-1].size
        twin.ps.check_invariants()
    taken = np.concatenate(taken)
    # one walk through the tick-0 group, lowest scramble first
    assert np.all(np.diff(oracle_scramble(taken).astype(np.int64)) > 0)
    assert twin.ps._tie is None  # consumed, so freed
    assert twin.evict(7, None).tolist() == oracle_victims(
        np.isin(np.arange(n), np.arange(100)),
        np.full(n, 3), 7).tolist()


def test_tie_cache_is_int32_and_cursor_skips_only_stale_entries():
    ps = PageSet(1000)
    ps.make_resident(np.arange(1000), 2)
    first = ps.lru_candidates(10)
    assert ps._tie.dtype == np.int32
    # a query does not consume: asking again returns the same pages
    assert ps.lru_candidates(10).tolist() == first.tolist()
    ps.swap_out(first)
    second = ps.lru_candidates(10)
    assert not np.isin(second, first).any()
    assert ps._tie_pos == 10
    ps.check_invariants()


def test_restamp_into_cut_group_invalidates_cursor():
    """Non-monotone ticks: a page stamped with the cut group's stamp may
    sort before the cursor, so the cache must be rebuilt."""
    ps = PageSet(300)
    ps.make_resident(np.arange(300), 4)
    ps.swap_out(ps.lru_candidates(250))
    left = np.flatnonzero(ps.present)
    ps.make_resident(np.arange(20), 4)  # rejoin the tick-4 group
    want = oracle_victims(ps.present, ps.last_access, 30)
    assert ps.lru_candidates(30).tolist() == want.tolist()
    assert set(want.tolist()) - set(left.tolist())  # rejoiners do sort first
    ps.check_invariants()


def test_protected_pages_stay_but_do_not_block_the_walk():
    ps = PageSet(200)
    ps.make_resident(np.arange(200), 0)
    protect = np.zeros(200, dtype=bool)
    order = oracle_victims(ps.present, ps.last_access, 200)
    protect[order[:50]] = True
    got = ps.lru_candidates(20, protect=protect)
    assert got.tolist() == order[50:70].tolist()
    # unpinned again, the pinned pages are the oldest once more
    assert ps.lru_candidates(5).tolist() == order[:5].tolist()
    ps.check_invariants()


def test_touch_restamps_only_present_pages():
    ps = PageSet(10)
    ps.make_resident(np.arange(5), 1)
    ps.touch(np.array([3, 7]), 9)
    assert ps.last_access[3] == 9
    assert ps.last_access[7] == 0  # never resident: no stamp
    ps.lru_candidates(1)  # builds the histogram
    ps.touch(np.array([4, 8]), 12)
    ps.check_invariants()
    assert ps.lru_candidates(5).tolist() == [0, 2, 1, 3, 4]
