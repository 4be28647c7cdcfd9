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
eligible pages (present and not protected), the ``k`` smallest by the
key ``(last_access, scramble(page))`` with
``scramble(p) = p * 2654435761 mod 2**32``. The multiplier is odd, so
``scramble`` is a bijection on 32-bit indices and the order is total:
there are no implementation-defined ties. The tie-break matters. Most
eviction calls split a tie group (usually the tick-0 preload group of
60k-190k pages), and with plain ``(last_access, index)`` the low-index
pages, which the KV workload queries, go before the never-queried tail:
the paper's KV pressure run then fails its recovery check at seed 0
(13,260 ops/s after migration against a 21,938 threshold). The scrambled
order spreads each tie group's evictions evenly over the address space.

Cost model. Once a page set has been asked for victims it keeps an exact
histogram of present pages per stamp, updated by every transition
(O(pages changed)). A query reads the cut stamp ``T`` from the
histogram's cumulative sum (O(stamps)); eligible pages older than ``T``
are taken whole (one vectorized scan, only when there are any), and the
stamp-``T`` tie group is walked in scramble order from a cursor over a
cached int32 copy of the group, built once per cut stamp (O(group log
group)) and freed once the group is consumed. A call that only eats
into the cached group costs O(stamps + k).

Residency is counted incrementally: every transition updates a running
resident-page counter so :meth:`PageSet.resident_pages` is O(1). This is
what turns the host eviction loop from quadratic (a full bitmap scan per
iteration) into linear work, and it is why external code must never flip
``present`` directly — go through the transition methods (or
:meth:`release_resident`), which keep the counter exact. Transition
methods require **unique** index arrays (every caller passes
``flatnonzero``- or ``choice(replace=False)``-derived indices).
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
        #: present pages per ``last_access`` stamp; built by the first
        #: eviction query, then kept exact by the transition methods
        self._stamps: np.ndarray | None = None
        #: the cut stamp's tie group in scramble order (int32), the stamp
        #: it belongs to and the walk's cursor: every present page with
        #: that stamp is in ``_tie[_tie_pos:]``
        self._tie: np.ndarray | None = None
        self._tie_stamp = -1
        self._tie_pos = 0

    # -- derived quantities -------------------------------------------------
    @property
    def total_bytes(self) -> int:
        return self.n_pages * self.page_size

    def resident_pages(self) -> int:
        return self._n_resident

    def resident_bytes(self) -> int:
        return self.resident_pages() * self.page_size

    def swapped_pages(self) -> int:
        return int(np.count_nonzero(self.swapped))

    def swapped_bytes(self) -> int:
        return self.swapped_pages() * self.page_size

    def allocated_pages(self) -> int:
        return int(np.count_nonzero(self.present | self.swapped))

    def resident_in(self, lo: int, hi: int) -> int:
        """Resident pages within the half-open page range [lo, hi)."""
        return int(np.count_nonzero(self.present[lo:hi]))

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
        hist = self._stamps
        if hist is not None:
            recount = np.bincount(self.last_access[self.present],
                                  minlength=hist.size)
            if recount.size != hist.size or np.any(recount != hist):
                raise AssertionError("stamp histogram drifted")
        if self._tie is not None:
            tie = self._tie
            if tie.dtype != np.int32:
                raise AssertionError(f"tie cache is {tie.dtype}, not int32")
            if np.any(np.diff(scramble(tie).astype(np.int64)) <= 0):
                raise AssertionError("tie cache not in scramble order")
            group = np.flatnonzero(self.present
                                   & (self.last_access == self._tie_stamp))
            if group.size == 0:
                raise AssertionError("consumed tie cache not freed")
            if not np.all(np.isin(group, tie[self._tie_pos:])):
                raise AssertionError("tie group page behind the cursor")

    # -- transitions ---------------------------------------------------------
    def touch(self, idx: np.ndarray, tick: int) -> None:
        """Record access time for LRU; only present pages are restamped."""
        idx = idx[self.present[idx]]
        if self._stamps is not None:
            self._unstamp(idx)
            self._stamp(idx.size, tick)
        self.last_access[idx] = tick

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
        was = self.present[idx]
        newly = idx.size - int(np.count_nonzero(was))
        if self._stamps is not None:
            self._unstamp(idx[was])
            self._stamp(idx.size, tick)
        self.present[idx] = True
        self.swapped[idx] = False
        self.last_access[idx] = tick
        self._n_resident += newly
        return newly

    def swap_out(self, idx: np.ndarray) -> int:
        """Evict pages to the swap device.

        After this call every evicted page has (or is getting, via the
        manager's writeback queue) a valid copy on the device. Returns
        the number of pages that were resident before the call.
        """
        gone = self._unstamp_present(idx)
        self.present[idx] = False
        self.swapped[idx] = True
        self.swap_clean[idx] = True
        self._n_resident -= gone
        return gone

    def drop(self, idx: np.ndarray) -> int:
        """Discard pages entirely (used when freeing a migrated-away VM).
        Returns the number of previously resident pages dropped."""
        gone = self._unstamp_present(idx)
        self.present[idx] = False
        self.swapped[idx] = False
        self.swap_clean[idx] = False
        self._n_resident -= gone
        return gone

    def release_resident(self, idx: np.ndarray) -> int:
        """Clear only the ``present`` bits, keeping swap state untouched.

        This is the source-side teardown after a migration: resident
        pages are gone with the QEMU process, but valid swap copies stay
        reachable from the portable per-VM device (§IV-B). Returns the
        number of previously resident pages released.
        """
        gone = self._unstamp_present(idx)
        self.present[idx] = False
        self._n_resident -= gone
        return gone

    # -- stamp histogram -----------------------------------------------------
    def _unstamp(self, idx: np.ndarray) -> None:
        """Take present pages ``idx`` out of the stamp histogram."""
        hist = self._stamps
        np.subtract.at(hist, self.last_access[idx], 1)
        if self._tie is not None and hist[self._tie_stamp] == 0:
            self._free_tie()

    def _unstamp_present(self, idx: np.ndarray) -> int:
        """Histogram update for pages ``idx`` leaving residency; returns
        how many of them were present."""
        was = self.present[idx]
        if self._stamps is not None:
            self._unstamp(idx[was])
        return int(np.count_nonzero(was))

    def _stamp(self, n: int, tick: int) -> None:
        """Count ``n`` present pages into stamp ``tick``."""
        if tick < 0:
            raise ValueError(f"tick stamps must be non-negative: {tick}")
        hist = self._stamps
        if tick >= hist.size:
            grown = np.zeros(max(tick + 1, 2 * hist.size), dtype=np.int64)
            grown[:hist.size] = hist
            self._stamps = hist = grown
        hist[tick] += n
        if tick == self._tie_stamp:
            # pages joining the cached group may sort behind the cursor
            self._free_tie()

    def _free_tie(self) -> None:
        self._tie = None
        self._tie_stamp = -1
        self._tie_pos = 0

    # -- queries used by eviction and migration --------------------------------
    def present_indices(self) -> np.ndarray:
        return np.flatnonzero(self.present)

    def swapped_indices(self) -> np.ndarray:
        return np.flatnonzero(self.swapped)

    def dirty_indices(self) -> np.ndarray:
        return np.flatnonzero(self.dirty)

    def lru_candidates(self, k: int, protect: np.ndarray | None = None
                       ) -> np.ndarray:
        """Indices of the ``k`` eligible pages that go first, in eviction
        order: smallest ``(last_access, scramble(page))`` first (see the
        module docstring). Returns every eligible page when there are at
        most ``k``.

        ``protect`` (a boolean mask) excludes pages from eviction — used to
        pin pages the migration manager is about to send.
        """
        if k <= 0:
            return np.empty(0, dtype=np.int64)
        hist = self._stamps
        if hist is None:
            hist = self._stamps = np.bincount(
                self.last_access[self.present], minlength=1)
        counts = hist
        if protect is not None:
            counts = hist - np.bincount(
                self.last_access[self.present & protect], minlength=hist.size)
        cum = np.cumsum(counts)
        if cum[-1] <= k:
            cut, need = hist.size, 0  # every eligible page goes
        else:
            cut = int(np.searchsorted(cum, k))  # first stamp reaching k
            need = k - (int(cum[cut - 1]) if cut else 0)
        older = np.empty(0, dtype=np.int64)
        if cut and cum[cut - 1]:
            eligible = self.present & (self.last_access < cut)
            if protect is not None:
                eligible &= ~protect
            older = np.flatnonzero(eligible)
            older = older[np.lexsort((scramble(older),
                                      self.last_access[older]))]
        if need == 0:
            return older
        return np.concatenate((older, self._walk_tie(cut, need, protect)))

    def _walk_tie(self, stamp: int, need: int,
                  protect: np.ndarray | None) -> np.ndarray:
        """The ``need`` lowest-scramble eligible pages stamped ``stamp``."""
        if self._tie_stamp != stamp:
            # sort the group's keys, then map them back to pages: the
            # bijection spares an argsort and its int64 index array
            keys = scramble(np.flatnonzero(
                self.present & (self.last_access == stamp)))
            keys.sort()
            keys *= _UNSCRAMBLE
            self._tie = keys.view(np.int32)
            self._tie_stamp = stamp
            self._tie_pos = 0
        tie, pos = self._tie, self._tie_pos
        chunk = max(4 * need, 64)
        picked, got, anchored = [], 0, False
        while got < need:
            if pos >= tie.size:
                raise AssertionError("stamp histogram out of step with pages")
            block = tie[pos:pos + chunk]
            live = self.present[block] & (self.last_access[block] == stamp)
            if not anchored and live.any():
                # entries before the first live one are stale for good: a
                # page rejoins this group only by a restamp, which frees
                # the cache
                self._tie_pos = pos + int(np.argmax(live))
                anchored = True
            if protect is not None:
                live &= ~protect[block]
            take = block[live][:need - got]
            picked.append(take)
            got += take.size
            pos += block.size
        return np.concatenate(picked).astype(np.int64)

    def non_present_in(self, lo: int, hi: int) -> np.ndarray:
        """Page indices in [lo, hi) that are not resident."""
        return lo + np.flatnonzero(~self.present[lo:hi])

    def sample_non_present(self, lo: int, hi: int, k: int,
                           rng: np.random.Generator) -> np.ndarray:
        """Up to ``k`` distinct non-resident pages sampled from [lo, hi).

        Used by the statistical workload model: these are the pages the
        tick's faulting accesses landed on.
        """
        missing = self.non_present_in(lo, hi)
        if missing.size <= k:
            return missing
        return rng.choice(missing, size=k, replace=False)
