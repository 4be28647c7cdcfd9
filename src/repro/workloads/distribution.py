"""The access distribution over a workload's query region.

The paper's YCSB and Sysbench runs use a uniform key distribution
(§V-A), which :class:`UniformAccess` models exactly; every workload
samples with it. The :class:`AccessDistribution` base class and the
``sample(mask, k, rng, m, n)`` signature stay because profilers wrap
them to time and count page sampling (the end-to-end benchmark's
``workloads.sample`` span counts the pages of the ``mask`` argument).

``sample`` answers which ``k`` distinct pages of a page class the tick's
accesses touched. The class is a region-relative boolean mask with ``m``
members; the caller passes ``m``, which it reads from the page set's
window counts (:meth:`repro.mem.pages.PageSet.window_counts`) instead of
counting the mask. Under a uniform distribution the probability that one
access lands in the class is plainly ``m / n``, so no distribution
method is needed for it.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

__all__ = ["AccessDistribution", "UniformAccess"]

#: class members per pick from which ``UniformAccess.sample`` rejects
#: draws instead of scanning the region
_DENSE_RATIO = 8

#: empty slot of the first-occurrence scratch
_SENTINEL = np.iinfo(np.int32).max

#: the first-occurrence scratch shared by every sampler: one int32 slot
#: per page of the largest region seen, all ``_SENTINEL`` between calls
#: (so no call sees another's state; a simulation runs on one thread)
_scratch = np.empty(0, dtype=np.int32)


class AccessDistribution:
    """Base class; implementations may cache per-region-size state."""

    def sample(self, mask: np.ndarray, k: int, rng: np.random.Generator,
               m: int, n: Optional[int] = None) -> np.ndarray:
        """Region-relative indices of up to ``k`` distinct pages among
        the ``m`` set in ``mask``, drawn by access probability.

        The region has ``n`` pages (default ``mask.size``); a ``mask``
        shorter than ``n`` is a prefix, and the pages past it are
        outside the class.
        """
        raise NotImplementedError


class UniformAccess(AccessDistribution):
    """Every page of the region is equally likely (the paper's setup).

    ``sample`` avoids scanning the region when the class is dense: with
    ``m >= 8 k`` members it draws uniform positions over the whole
    region, rejects those outside the class and keeps first occurrences
    until ``k`` are distinct. Conditioned on landing in the class, each
    draw is uniform over it, so the first ``k`` distinct members are an
    exactly uniform ``k``-subset, found in O(k n / m) work. Sparser
    classes fall back to ``flatnonzero`` plus ``choice``.

    Repeats are dropped without sorting: ``np.minimum.at`` writes each
    draw's earliest position into a scratch array indexed by page, a
    draw is kept where its own position is the one stored, and the
    touched slots are reset. The scratch is one int32 array shared by
    every instance, grown to the largest region seen and all-sentinel
    between calls, so the pass costs O(draws) and no per-VM memory.
    """

    def sample(self, mask: np.ndarray, k: int, rng: np.random.Generator,
               m: int, n: Optional[int] = None) -> np.ndarray:
        if m <= k:
            return np.flatnonzero(mask)
        if m < _DENSE_RATIO * k:
            return rng.choice(np.flatnonzero(mask), size=k, replace=False)
        width = mask.size
        if n is None:
            n = width
        hits = np.empty(0, dtype=np.int64)
        while True:
            # draws for the missing picks, the duplicates among them and
            # a Poisson margin, so one round almost always suffices
            short = k - hits.size
            want = short + short * k // m + 4 * math.isqrt(short) + 4
            draws = rng.integers(0, n, size=want * n // m + 1)
            if width < n:
                draws = draws[draws < width]
            found = draws[mask[draws]]
            if hits.size:
                found = np.concatenate((hits, found))
            hits = _first_occurrences(found, width)
            if hits.size >= k:
                return hits[:k]


def _first_occurrences(a: np.ndarray, n: int) -> np.ndarray:
    """``a`` (values in ``[0, n)``) without repeats, each value where it
    first occurs, in O(a.size) with no sort."""
    global _scratch
    if _scratch.size < n:
        _scratch = np.full(n, _SENTINEL, dtype=np.int32)
    scratch = _scratch
    pos = np.arange(a.size, dtype=np.int32)
    np.minimum.at(scratch, a, pos)
    keep = scratch[a] == pos
    scratch[a] = _SENTINEL
    return a[keep]
