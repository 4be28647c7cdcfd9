"""Tests for per-VM page state arrays."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mem import PageSet


def idx(*vals):
    return np.asarray(vals, dtype=np.int64)


def test_initial_state_untouched():
    ps = PageSet(10)
    assert ps.resident_pages() == 0
    assert ps.swapped_pages() == 0
    assert ps.allocated_pages() == 0
    assert ps.total_bytes == 10 * 4096


def test_bad_geometry_rejected():
    with pytest.raises(ValueError):
        PageSet(0)
    with pytest.raises(ValueError):
        PageSet(4, page_size=0)


def test_make_resident_and_counts():
    ps = PageSet(10)
    ps.make_resident(idx(1, 3, 5), tick=7)
    assert ps.resident_pages() == 3
    assert ps.resident_bytes() == 3 * 4096
    assert ps.last_access[3] == 7
    ps.check_invariants()


def test_resident_in_range():
    ps = PageSet(10)
    ps.make_resident(idx(0, 1, 2, 8), tick=0)
    assert ps.resident_in(0, 4) == 3
    assert ps.resident_in(4, 10) == 1


def test_swap_out_sets_clean_copy():
    ps = PageSet(4)
    ps.make_resident(idx(0, 1), tick=0)
    ps.swap_out(idx(0))
    assert ps.swapped[0] and not ps.present[0]
    assert ps.swap_clean[0]
    ps.check_invariants()


def test_swap_in_preserves_swap_cache():
    ps = PageSet(4)
    ps.make_resident(idx(0), tick=0)
    ps.swap_out(idx(0))
    ps.make_resident(idx(0), tick=1)
    # swapped in, not re-dirtied: eviction would be free
    assert ps.present[0] and not ps.swapped[0] and ps.swap_clean[0]


def test_dirty_invalidates_swap_copy():
    ps = PageSet(4)
    ps.make_resident(idx(0), tick=0)
    ps.swap_out(idx(0))
    ps.make_resident(idx(0), tick=1)
    ps.mark_dirty(idx(0))
    assert ps.dirty[0] and not ps.swap_clean[0]


def test_fresh_page_has_no_swap_copy():
    ps = PageSet(4)
    ps.make_resident(idx(2), tick=0)
    assert not ps.swap_clean[2]


def test_drop_clears_everything():
    ps = PageSet(4)
    ps.make_resident(idx(0, 1), tick=0)
    ps.swap_out(idx(1))
    ps.drop(idx(0, 1))
    assert ps.allocated_pages() == 0
    assert not ps.swap_clean[1]


def test_clear_dirty():
    ps = PageSet(4)
    ps.make_resident(idx(0), tick=0)
    ps.mark_dirty(idx(0))
    ps.clear_dirty(idx(0))
    assert not ps.dirty[0]


def test_indices_queries():
    ps = PageSet(6)
    ps.make_resident(idx(0, 2), tick=0)
    ps.make_resident(idx(4), tick=0)
    ps.swap_out(idx(4))
    ps.mark_dirty(idx(2))
    assert ps.present_indices().tolist() == [0, 2]
    assert ps.swapped_indices().tolist() == [4]
    assert ps.dirty_indices().tolist() == [2]


def test_lru_candidates_picks_oldest():
    ps = PageSet(5)
    ps.make_resident(idx(0), tick=10)
    ps.make_resident(idx(1), tick=5)
    ps.make_resident(idx(2), tick=20)
    got = set(ps.lru_candidates(2).tolist())
    assert got == {0, 1}


def test_lru_candidates_k_zero_or_empty():
    ps = PageSet(5)
    assert ps.lru_candidates(0).size == 0
    assert ps.lru_candidates(3).size == 0  # nothing resident


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["resident", "swap_out", "dirty",
                                           "drop"]),
                          st.integers(min_value=0, max_value=19)),
                max_size=60))
def test_invariants_hold_under_any_transition_sequence(ops):
    """Property: no operation sequence can violate PageSet invariants."""
    ps = PageSet(20)
    for op, page in ops:
        i = idx(page)
        if op == "resident":
            ps.make_resident(i, tick=0)
        elif op == "swap_out":
            if ps.present[page]:
                ps.swap_out(i)
        elif op == "dirty":
            if ps.present[page]:
                ps.mark_dirty(i)
        elif op == "drop":
            ps.drop(i)
        ps.check_invariants()


def test_mark_swapped_sets_a_clean_swap_copy():
    ps = PageSet(8)
    assert ps.mark_swapped(idx(1, 2)) == 2
    assert ps.swapped[1] and ps.swap_clean[1] and not ps.present[1]
    assert ps.swapped_pages() == 2 and ps.allocated_pages() == 2
    assert ps.mark_swapped(idx(2, 3)) == 1  # page 2 already swapped
    assert ps.swapped_pages() == 3
    ps.check_invariants()


def test_mark_swapped_rejects_a_present_page():
    ps = PageSet(4)
    ps.make_resident(idx(0), tick=0)
    with pytest.raises(ValueError):
        ps.mark_swapped(idx(0, 1))


def test_window_counts_are_exact_and_reference_counted():
    ps = PageSet(10)
    ps.make_resident(idx(0, 1, 5), tick=0)
    ps.swap_out(idx(1))
    ps.add_window(0, 4)
    ps.add_window(0, 4)
    ps.add_window(2, 10)
    assert ps.window_counts(0, 4) == (1, 1)
    assert ps.window_counts(2, 10) == (1, 0)
    ps.make_resident(idx(1, 3, 7), tick=1)
    assert ps.window_counts(0, 4) == (3, 0)
    assert ps.window_counts(2, 10) == (3, 0)
    ps.remove_window(0, 4)
    assert ps.window_counts(0, 4) == (3, 0)  # one reference left
    ps.remove_window(0, 4)
    with pytest.raises(KeyError):
        ps.window_counts(0, 4)
    ps.check_invariants()


@pytest.mark.parametrize("lo, hi", [(-1, 3), (3, 3), (4, 2), (0, 11)])
def test_bad_window_rejected(lo, hi):
    with pytest.raises(ValueError):
        PageSet(10).add_window(lo, hi)


_N = 24
_page_lists = st.lists(st.integers(0, _N - 1), max_size=8, unique=True)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(
    st.tuples(st.sampled_from(["resident", "swap_out", "drop", "release",
                               "mark_swapped"]), _page_lists),
    st.tuples(st.just("add"), st.tuples(st.integers(0, _N - 1),
                                        st.integers(1, _N))),
    st.just(("remove", None))), max_size=60))
def test_window_counts_follow_any_transition_sequence(ops):
    """Lockstep: random transitions and window registrations keep the
    swapped counter and every window's counts equal to a recount."""
    ps = PageSet(_N)
    windows = []
    for op, arg in ops:
        if op == "add":
            lo, hi = min(arg), max(arg)
            if lo == hi:
                continue
            ps.add_window(lo, hi)
            windows.append((lo, hi))
        elif op == "remove":
            if windows:
                ps.remove_window(*windows.pop(0))
        else:
            i = np.asarray(arg, dtype=np.int64)
            if op == "resident":
                ps.make_resident(i, tick=0)
            elif op == "swap_out":
                ps.swap_out(i[ps.present[i]])
            elif op == "drop":
                ps.drop(i)
            elif op == "release":
                ps.release_resident(i)
            else:
                ps.mark_swapped(i[~ps.present[i]])
        ps.check_invariants()
        for lo, hi in windows:
            assert ps.window_counts(lo, hi) == (
                int(ps.present[lo:hi].sum()), int(ps.swapped[lo:hi].sum()))
        assert ps.swapped_pages() == int(ps.swapped.sum())


def test_only_the_page_set_writes_present_or_swapped_bits():
    """Every ``present``/``swapped`` write goes through a ``PageSet``
    transition, which keeps the counters and window counts exact: no
    other module assigns into ``.present[...]``/``.swapped[...]`` or
    rebinds or updates ``.present``/``.swapped`` in place."""
    src = Path(__file__).resolve().parents[1] / "src"
    pages_py = src / "repro" / "mem" / "pages.py"
    offenders = []
    for path in sorted(src.rglob("*.py")):
        if path == pages_py:
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Subscript):
                        sub = sub.value
                    if (isinstance(sub, ast.Attribute)
                            and sub.attr in ("present", "swapped")):
                        offenders.append(f"{path.relative_to(src)}:"
                                         f"{node.lineno}")
    assert not offenders, offenders
