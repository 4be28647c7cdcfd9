"""Per-VM page state arrays.

A :class:`PageSet` is the model of one VM's physical memory as the host
sees it. It corresponds to the union of data structures the paper's
Migration Manager consults:

* the **present** bit — page resident in host RAM (PTE present);
* the **swapped** bit — page lives on the VM's swap device, exactly the
  ``/proc/pid/pagemap`` swapped bit of §IV-C. The swap offset of page *i*
  is simply *i* in its per-VM namespace (a per-VM device needs no shared
  offset allocation, which is itself one of the design's simplifications);
* the **dirty** bitmap of the migration rounds (§IV-E);
* a **last_access** tick stamp used by the host LRU.

A page in neither state was never allocated (the guest never touched it).
All operations are NumPy-vectorized; no per-page Python loops.

**Eviction order.** :meth:`PageSet.lru_candidates` evicts, among the
present pages, the ``k`` smallest by the key ``(last_access,
scramble(page))`` with ``scramble(p) = p * 2654435761 mod 2**32``. The
multiplier is odd, so ``scramble`` is a bijection on 32-bit indices and
the order is total: there are no implementation-defined ties. The
tie-break matters. Most eviction calls split a tie group (usually the
tick-0 preload group of 60k-190k pages), and with plain ``(last_access,
index)`` the low-index pages, which the KV workload queries, go before
the never-queried tail: the paper's KV pressure run then fails its
recovery check at seed 0 (13,260 ops/s after migration against a 21,938
threshold). The scrambled order spreads each tie group's evictions
evenly over the address space.

Cost model. A page set caches one **eviction run**: the present pages
stamped at or below a horizon ``H`` (the newest stamp seen, minus one,
when the run was built), as an int32 array in eviction order, walked
from a cursor. An entry is live iff its page is present and still
stamped at or below ``H``; a query takes live entries and moves the
cursor past the stale ones, so a call costs O(k + stale entries
skipped). Transitions cost O(pages changed): leaving residency or a
restamp above ``H`` only makes entries stale, and a restamp at or below
``H`` (non-monotone ticks, when a page set changes managers) discards
the run, because the page may sort behind the cursor. Once no live entry
is left, the next build sorts only the newly closed stamps ``(H,
newest - 1]`` (one scan and one uint64 key sort); pages at the open,
newest stamp are sorted per call, and only once everything older is
gone.

Residency is counted incrementally: every transition updates running
resident-page and swapped-page counters, so :meth:`PageSet.resident_pages`
and :meth:`PageSet.swapped_pages` are O(1). This is what turns the host
eviction loop from quadratic (a full bitmap scan per iteration) into
linear work, and it is why external code must never write ``present`` or
``swapped`` directly — go through the transition methods
(:meth:`make_resident`, :meth:`swap_out`, :meth:`drop`,
:meth:`release_resident`, :meth:`mark_swapped`), which keep the counters
exact. Transition methods require **unique** index arrays (every caller
passes ``flatnonzero``- or ``choice(replace=False)``-derived indices).

**Window counts.** A caller may register page windows ``[lo, hi)``
(:meth:`add_window`); :meth:`window_counts` then returns the exact number
of present and of swapped pages in a window in O(windows). The window
edges cut the page range into cells, and each cell keeps its two counts.
A transition finds the cell of each changed page with one
``searchsorted`` over the sorted edges, shared by every window, and adds
one ``bincount`` per class, so it stays O(pages changed). Registering or
releasing a window recounts the cells once, O(n_pages). The workload
engine keeps its query region and its write-set prefix registered, which
is what makes a workload tick cost O(pages picked) instead of O(region).
"""

from __future__ import annotations

import numpy as np

from repro.util import PAGE_SIZE

__all__ = ["PageSet", "scramble"]

#: odd multiplier (Knuth's multiplicative hash), so ``scramble`` is a
#: bijection on 32-bit page indices; uint32 arithmetic wraps mod 2**32
_SCRAMBLE = np.uint32(2654435761)
#: its inverse mod 2**32: ``scramble(p) * _UNSCRAMBLE == p``
_UNSCRAMBLE = np.uint32(pow(2654435761, -1, 2 ** 32))


def scramble(idx: np.ndarray) -> np.ndarray:
    """Eviction tie-break key of each page: ``p * 2654435761 mod 2**32``."""
    keys = np.asarray(idx).astype(np.uint32)
    keys *= _SCRAMBLE
    return keys


#: the empty eviction run
_NO_RUN = np.empty(0, dtype=np.int32)


class PageSet:
    """State arrays for ``n_pages`` pages of ``page_size`` bytes each."""

    def __init__(self, n_pages: int, page_size: int = PAGE_SIZE):
        if n_pages <= 0:
            raise ValueError(f"n_pages must be positive: {n_pages}")
        if page_size <= 0:
            raise ValueError(f"page_size must be positive: {page_size}")
        if n_pages >= 2 ** 31:
            raise ValueError(f"n_pages must fit in int32: {n_pages}")
        self.n_pages = int(n_pages)
        self.page_size = int(page_size)
        self.present = np.zeros(n_pages, dtype=bool)
        self.swapped = np.zeros(n_pages, dtype=bool)
        self.dirty = np.zeros(n_pages, dtype=bool)
        #: a valid copy of the page exists on the swap device (swap cache);
        #: such pages can be evicted without writeback
        self.swap_clean = np.zeros(n_pages, dtype=bool)
        self.last_access = np.zeros(n_pages, dtype=np.int64)
        #: running count of set ``present`` bits (kept exact by the
        #: transition methods; O(1) residency queries)
        self._n_resident = 0
        #: running count of set ``swapped`` bits (likewise)
        self._n_swapped = 0
        #: registered windows: (lo, hi) -> [references, first cell,
        #: end cell]; the window's pages are those of cells [first, end)
        self._windows: dict[tuple[int, int], list[int]] = {}
        #: sorted distinct window edges (None: no window registered);
        #: cell c holds pages p with ``searchsorted(edges, p, "right")
        #: == c``, i.e. cell c is [edges[c - 1], edges[c])
        self._edges: np.ndarray | None = None
        #: present and swapped pages per cell
        self._cell_present: list[int] = []
        self._cell_swapped: list[int] = []
        #: the newest stamp any page has been given
        self._newest = -1
        #: the eviction run (see the module docstring): every present
        #: page stamped at or below ``_horizon`` is in ``_run[_pos:]``
        self._run = _NO_RUN
        self._horizon = -1
        self._pos = 0

    # -- derived quantities -------------------------------------------------
    @property
    def total_bytes(self) -> int:
        return self.n_pages * self.page_size

    def resident_pages(self) -> int:
        return self._n_resident

    def resident_bytes(self) -> int:
        return self.resident_pages() * self.page_size

    def swapped_pages(self) -> int:
        return self._n_swapped

    def swapped_bytes(self) -> int:
        return self.swapped_pages() * self.page_size

    def allocated_pages(self) -> int:
        return self._n_resident + self._n_swapped  # the states are disjoint

    def resident_in(self, lo: int, hi: int) -> int:
        """Resident pages within the half-open page range [lo, hi)."""
        return int(np.count_nonzero(self.present[lo:hi]))

    # -- windows -------------------------------------------------------------
    def add_window(self, lo: int, hi: int) -> None:
        """Keep exact present/swapped counts for pages ``[lo, hi)``.

        Windows are reference-counted: registering the same range twice
        needs two :meth:`remove_window` calls. Costs one O(n_pages)
        recount; every later transition keeps the counts exact.
        """
        if not 0 <= lo < hi <= self.n_pages:
            raise ValueError(f"bad window [{lo}, {hi}) of {self.n_pages}")
        entry = self._windows.get((lo, hi))
        if entry is not None:
            entry[0] += 1
            return
        self._windows[(lo, hi)] = [1, 0, 0]
        self._recount_cells()

    def remove_window(self, lo: int, hi: int) -> None:
        """Drop one reference to window ``[lo, hi)``."""
        entry = self._windows[(lo, hi)]
        entry[0] -= 1
        if entry[0] == 0:
            del self._windows[(lo, hi)]
            self._recount_cells()

    def window_counts(self, lo: int, hi: int) -> tuple[int, int]:
        """``(present, swapped)`` pages in the registered window
        ``[lo, hi)``, in O(windows)."""
        _, first, end = self._windows[(lo, hi)]
        return (sum(self._cell_present[first:end]),
                sum(self._cell_swapped[first:end]))

    def _recount_cells(self) -> None:
        """Re-cut the cells at the registered windows' edges and count
        each one from the bitmaps."""
        if not self._windows:
            self._edges, self._cell_present, self._cell_swapped = None, [], []
            return
        edges = sorted({e for window in self._windows for e in window})
        cell = {e: c for c, e in enumerate(edges, start=1)}
        for (lo, hi), entry in self._windows.items():
            entry[1], entry[2] = cell[lo], cell[hi]
        self._edges = np.array(edges, dtype=np.int64)
        bounds = [0] + edges + [self.n_pages]
        self._cell_present, self._cell_swapped = (
            [int(np.count_nonzero(bits[a:b]))
             for a, b in zip(bounds[:-1], bounds[1:])]
            for bits in (self.present, self.swapped))

    def _shift(self, idx: np.ndarray, was_present: np.ndarray | None,
               d_present: int, was_swapped: np.ndarray | None,
               d_swapped: int) -> None:
        """Update the cell counts after a transition on pages ``idx``.

        ``d_present`` is the signed number of pages that entered (+) or
        left (-) the present class: the pages of ``idx`` whose old bit
        ``was_present`` was clear (entering) or set (leaving); likewise
        for the swapped class. A zero count skips its class; one
        covering all of ``idx`` needs no old bits.
        """
        if not (d_present or d_swapped):
            return
        cells = self._edges.searchsorted(idx, "right")
        size = len(self._cell_present)
        every = None  # pages per cell over all of idx, shared by the classes
        for counts, was, moved in ((self._cell_present, was_present, d_present),
                                   (self._cell_swapped, was_swapped, d_swapped)):
            if not moved:
                continue
            if abs(moved) < idx.size:
                picked = cells[was] if moved < 0 else cells[~was]
                hist = np.bincount(picked, minlength=size).tolist()
            else:
                if every is None:
                    every = np.bincount(cells, minlength=size).tolist()
                hist = every
            sign = 1 if moved > 0 else -1
            for c, n in enumerate(hist):
                counts[c] += sign * n

    def check_invariants(self) -> None:
        """Kernel-style consistency checks (used by tests and hypothesis)."""
        if np.any(self.present & self.swapped):
            raise AssertionError("page both present and swapped")
        if np.any(self.swapped & ~self.swap_clean):
            raise AssertionError("swapped page without a valid swap copy")
        if self._n_resident != int(np.count_nonzero(self.present)):
            raise AssertionError(
                f"resident counter drifted: {self._n_resident} != "
                f"{int(np.count_nonzero(self.present))}")
        if self._n_swapped != int(np.count_nonzero(self.swapped)):
            raise AssertionError(
                f"swapped counter drifted: {self._n_swapped} != "
                f"{int(np.count_nonzero(self.swapped))}")
        for lo, hi in self._windows:
            got = self.window_counts(lo, hi)
            want = (int(np.count_nonzero(self.present[lo:hi])),
                    int(np.count_nonzero(self.swapped[lo:hi])))
            if got != want:
                raise AssertionError(
                    f"window [{lo}, {hi}) counts drifted: {got} != {want}")
        run, horizon = self._run, self._horizon
        if run.dtype != np.int32:
            raise AssertionError(f"eviction run is {run.dtype}, not int32")
        if horizon < 0:
            return  # no run: nothing is stamped at or below the horizon
        live = self.present[run] & (self.last_access[run] <= horizon)
        if live[:self._pos].any():
            raise AssertionError("live run entry behind the cursor")
        ahead = run[self._pos:][live[self._pos:]]
        keys = self._keys(ahead)
        if np.any(keys[1:] <= keys[:-1]):
            raise AssertionError("live run entries not in eviction order")
        closed = np.flatnonzero(self.present & (self.last_access <= horizon))
        if closed.size != ahead.size or np.any(np.sort(ahead) != closed):
            raise AssertionError("closed present page missing from the run")

    # -- transitions ---------------------------------------------------------
    def touch(self, idx: np.ndarray, tick: int) -> None:
        """Record access time for LRU; only present pages are restamped."""
        self._stamp(idx[self.present[idx]], tick)

    def mark_dirty(self, idx: np.ndarray) -> None:
        """Record guest writes: sets the migration dirty bit and invalidates
        any swap copy (the page differs from what is on the device now)."""
        self.dirty[idx] = True
        self.swap_clean[idx] = False

    def clear_dirty(self, idx: np.ndarray) -> None:
        self.dirty[idx] = False

    def make_resident(self, idx: np.ndarray, tick: int) -> int:
        """Fault pages in (from swap or fresh allocation).

        Pages read from swap keep their valid on-device copy (swap cache,
        ``swap_clean`` stays set); freshly allocated pages have none.
        Returns the number of pages that became newly resident.
        """
        was_present = self.present[idx]
        newly = idx.size - int(np.count_nonzero(was_present))
        was_swapped, unswapped = self._leave_swap(idx)
        self.present[idx] = True
        self._stamp(idx, tick)
        self._n_resident += newly
        if self._edges is not None:
            self._shift(idx, was_present, newly, was_swapped, -unswapped)
        return newly

    def swap_out(self, idx: np.ndarray) -> int:
        """Evict pages to the swap device.

        After this call every evicted page has (or is getting, via the
        manager's writeback queue) a valid copy on the device. Returns
        the number of pages that were resident before the call.
        """
        was_present = self.present[idx]
        gone = int(np.count_nonzero(was_present))
        if gone == idx.size:  # the usual eviction: present pages, none swapped
            was_swapped, newly = None, gone
        else:
            was_swapped = self.swapped[idx]
            newly = idx.size - int(np.count_nonzero(was_swapped))
        self.present[idx] = False
        self.swapped[idx] = True
        self.swap_clean[idx] = True
        self._n_resident -= gone
        self._n_swapped += newly
        if self._edges is not None:
            self._shift(idx, was_present, -gone, was_swapped, newly)
        return gone

    def drop(self, idx: np.ndarray) -> int:
        """Discard pages entirely (used when freeing a migrated-away VM).
        Returns the number of previously resident pages dropped."""
        was_present = self.present[idx]
        gone = int(np.count_nonzero(was_present))
        was_swapped, unswapped = self._leave_swap(idx)
        self.present[idx] = False
        self.swap_clean[idx] = False
        self._n_resident -= gone
        if self._edges is not None:
            self._shift(idx, was_present, -gone, was_swapped, -unswapped)
        return gone

    def release_resident(self, idx: np.ndarray) -> int:
        """Clear only the ``present`` bits, keeping swap state untouched.

        This is the source-side teardown after a migration: resident
        pages are gone with the QEMU process, but valid swap copies stay
        reachable from the portable per-VM device (§IV-B). Returns the
        number of previously resident pages released.
        """
        was_present = self.present[idx]
        gone = int(np.count_nonzero(was_present))
        self.present[idx] = False
        self._n_resident -= gone
        if self._edges is not None:
            self._shift(idx, was_present, -gone, None, 0)
        return gone

    def mark_swapped(self, idx: np.ndarray) -> int:
        """Record that non-present pages ``idx`` have a valid copy on the
        swap device (a migration or clone learned where they live).

        Sets ``swapped`` and ``swap_clean``. Returns the number of pages
        that were not swapped before the call.
        """
        if np.any(self.present[idx]):
            raise ValueError("mark_swapped on a present page")
        was_swapped = self.swapped[idx]
        newly = idx.size - int(np.count_nonzero(was_swapped))
        self.swapped[idx] = True
        self.swap_clean[idx] = True
        self._n_swapped += newly
        if self._edges is not None:
            self._shift(idx, None, 0, was_swapped, newly)
        return newly

    def _leave_swap(self, idx: np.ndarray) -> tuple[np.ndarray | None, int]:
        """Clear the swapped bits of pages ``idx``; returns their old bits
        and how many were set (nothing to do while no page is swapped)."""
        if not self._n_swapped:
            return None, 0
        was_swapped = self.swapped[idx]
        unswapped = int(np.count_nonzero(was_swapped))
        self.swapped[idx] = False
        self._n_swapped -= unswapped
        return was_swapped, unswapped

    def _stamp(self, idx: np.ndarray, tick: int) -> None:
        """Stamp present pages ``idx`` with ``tick``, keeping the run exact."""
        if tick < 0:
            raise ValueError(f"tick stamps must be non-negative: {tick}")
        if tick > self._newest:
            self._newest = tick
        elif tick <= self._horizon and idx.size:
            # the pages may sort behind the cursor
            self._run, self._horizon, self._pos = _NO_RUN, -1, 0
        self.last_access[idx] = tick

    # -- queries used by eviction and migration --------------------------------
    def present_indices(self) -> np.ndarray:
        return np.flatnonzero(self.present)

    def swapped_indices(self) -> np.ndarray:
        return np.flatnonzero(self.swapped)

    def dirty_indices(self) -> np.ndarray:
        return np.flatnonzero(self.dirty)

    def lru_candidates(self, k: int) -> np.ndarray:
        """Indices of the ``k`` present pages that go first, in eviction
        order: smallest ``(last_access, scramble(page))`` first (see the
        module docstring). Returns every present page when there are at
        most ``k``. A query does not consume the run: until the pages
        leave residency, asking again returns them again.
        """
        picked, got = [], 0
        present, stamps = self.present, self.last_access
        pos, anchored, chunk = self._pos, False, max(4 * k, 64)
        while got < k:
            run, horizon = self._run, self._horizon
            if pos >= run.size:
                if self._newest - 1 > horizon:
                    # no live entry is left: close the aged stamps
                    self._build(picked)
                    pos, anchored = got, True
                    continue
                # only the open stamp is left
                if not got:
                    self._run, self._pos = _NO_RUN, 0  # spent: free it
                keys = scramble(np.flatnonzero(present & (stamps > horizon)))
                keys.sort()
                keys *= _UNSCRAMBLE
                picked.append(keys.view(np.int32)[:k - got])
                break
            block = run[pos:pos + chunk]
            live = present[block] & (stamps[block] <= horizon)
            if not anchored:
                # entries before the first live one are stale for good: a
                # page rejoins the run's stamps only by a restamp, which
                # discards the run
                if live.any():
                    self._pos, anchored = pos + int(np.argmax(live)), True
                else:
                    self._pos = pos + block.size
            take = block[live][:k - got]
            picked.append(take)
            got += take.size
            pos += block.size
        if not picked:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(picked).astype(np.int64)

    def _build(self, live: list[np.ndarray]) -> None:
        """Rebuild the run: the ``live`` entries left (in order), then the
        present pages stamped in ``(_horizon, _newest - 1]``, sorted."""
        lo, hi = self._horizon, self._newest - 1
        stamps = self.last_access
        keys = self._keys(np.flatnonzero(
            self.present & (stamps > lo) & (stamps <= hi)))
        # sort the keys, then map their low words back to pages: the
        # bijection spares an argsort and its int64 index array
        keys.sort()
        pages = keys.astype(np.uint32)
        del keys
        pages *= _UNSCRAMBLE
        run = pages.view(np.int32)
        self._run = np.concatenate(live + [run]) if live else run
        self._horizon, self._pos = hi, 0

    def _keys(self, idx: np.ndarray) -> np.ndarray:
        """Eviction sort keys ``stamp << 32 | scramble(page)`` (uint64) of
        pages ``idx``; they order as the ``(stamp, scramble)`` pairs do."""
        keys = self.last_access[idx].view(np.uint64)  # a fresh copy
        keys <<= np.uint64(32)
        keys |= scramble(idx)
        return keys
