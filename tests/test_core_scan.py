"""Tests for the PendingScan budgeted bitmap walk."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.base import PendingScan


def mask(n, idx):
    m = np.zeros(n, dtype=bool)
    m[list(idx)] = True
    return m


def test_empty_scan_exhausted():
    s = PendingScan(np.zeros(10, dtype=bool))
    assert s.exhausted()
    assert s.remaining == 0
    res, swp = s.take(5, 5, np.zeros(10, dtype=bool))
    assert res.size == 0 and swp.size == 0


def test_take_in_page_order():
    s = PendingScan(mask(10, [1, 3, 5, 7]))
    res, swp = s.take(2, 0, np.zeros(10, dtype=bool))
    assert res.tolist() == [1, 3]
    res, swp = s.take(10, 0, np.zeros(10, dtype=bool))
    assert res.tolist() == [5, 7]
    assert s.exhausted()


def test_swapped_pages_cost_device_budget():
    swapped = mask(10, [2, 3])
    s = PendingScan(mask(10, [1, 2, 3, 4]))
    res, swp = s.take(10, 1, swapped)
    # takes 1 (resident), 2 (swapped, device=1)... then stalls at 3
    assert res.tolist() == [1]
    assert swp.tolist() == [2]
    assert s.remaining == 2


def test_scan_stalls_at_swapped_page_without_device_budget():
    """Strict ordering: resident pages behind a swapped page must wait."""
    swapped = mask(10, [1])
    s = PendingScan(mask(10, [1, 2, 3]))
    res, swp = s.take(10, 0, swapped)
    assert res.size == 0 and swp.size == 0
    assert s.remaining == 3


def test_free_swapped_skips_device_budget():
    swapped = mask(10, [1, 2])
    s = PendingScan(mask(10, [1, 2, 3]))
    res, swp = s.take(10, 0, swapped, free_swapped=True)
    assert swp.tolist() == [1, 2]
    assert res.tolist() == [3]
    assert s.exhausted()


def test_remove_skips_demand_fetched_pages():
    s = PendingScan(mask(10, [1, 2, 3]))
    s.remove(np.array([2]))
    assert s.remaining == 2
    res, _ = s.take(10, 10, np.zeros(10, dtype=bool))
    assert res.tolist() == [1, 3]


def test_remove_all_exhausts():
    s = PendingScan(mask(10, [1, 2]))
    s.remove(np.array([1, 2]))
    assert s.exhausted()


def test_peek_swapped_fraction():
    swapped = mask(10, [0, 1])
    s = PendingScan(mask(10, [0, 1, 2, 3]))
    assert s.peek_swapped_fraction(swapped) == 0.5
    s.take(2, 2, swapped)
    assert s.peek_swapped_fraction(swapped) == 0.0


def test_peek_on_empty_scan():
    s = PendingScan(np.zeros(4, dtype=bool))
    assert s.peek_swapped_fraction(np.zeros(4, dtype=bool)) == 0.0


def test_state_reevaluated_at_take_time():
    """A page evicted after scan creation is treated as swapped."""
    swapped = np.zeros(10, dtype=bool)
    s = PendingScan(mask(10, [1, 2]))
    swapped[1] = True  # page 1 evicted mid-round
    res, swp = s.take(10, 10, swapped)
    assert swp.tolist() == [1]
    assert res.tolist() == [2]


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=200),
       st.data())
def test_scan_covers_everything_exactly_once(n, data):
    """Property: repeated takes deliver each pending page exactly once."""
    pending_idx = data.draw(st.sets(st.integers(0, n - 1)))
    swapped_idx = data.draw(st.sets(st.integers(0, n - 1)))
    pending = mask(n, pending_idx)
    swapped = mask(n, swapped_idx)
    s = PendingScan(pending)
    seen = []
    for _ in range(10 * n + 10):
        if s.exhausted():
            break
        res, swp = s.take(7, 3, swapped)
        seen.extend(res.tolist())
        seen.extend(swp.tolist())
    assert s.exhausted()
    assert sorted(seen) == sorted(pending_idx)
    assert len(set(seen)) == len(seen)
