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
        newly = idx.size - int(np.count_nonzero(self.present[idx]))
        self.present[idx] = True
        self.swapped[idx] = False
        self._stamp(idx, tick)
        self._n_resident += newly
        return newly

    def swap_out(self, idx: np.ndarray) -> int:
        """Evict pages to the swap device.

        After this call every evicted page has (or is getting, via the
        manager's writeback queue) a valid copy on the device. Returns
        the number of pages that were resident before the call.
        """
        gone = int(np.count_nonzero(self.present[idx]))
        self.present[idx] = False
        self.swapped[idx] = True
        self.swap_clean[idx] = True
        self._n_resident -= gone
        return gone

    def drop(self, idx: np.ndarray) -> int:
        """Discard pages entirely (used when freeing a migrated-away VM).
        Returns the number of previously resident pages dropped."""
        gone = int(np.count_nonzero(self.present[idx]))
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
        gone = int(np.count_nonzero(self.present[idx]))
        self.present[idx] = False
        self._n_resident -= gone
        return gone

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
