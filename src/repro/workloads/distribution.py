"""The access distribution over a workload's query region.

The paper's YCSB and Sysbench runs use a uniform key distribution
(§V-A), which :class:`UniformAccess` models exactly; every workload
samples with it. The :class:`AccessDistribution` base class and the
``sample(mask, k, rng)`` signature stay because profilers wrap them to
time and count page sampling (the end-to-end benchmark's
``workloads.sample`` span).

A distribution answers two questions about the region ``[lo, hi)``:

* ``class_probability(mask)`` — the probability that one page access
  lands in the page class described by a region-relative boolean mask
  (e.g. "missing and swapped");
* ``sample(mask, k, rng)`` — which ``k`` distinct pages of that class
  the tick's accesses actually touched.

Both are exact under the per-page weight model (no bucketing).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["AccessDistribution", "UniformAccess"]

#: class members per pick from which ``UniformAccess.sample`` rejects
#: draws instead of scanning the region
_DENSE_RATIO = 8


class AccessDistribution:
    """Base class; implementations may cache per-region-size state."""

    def class_probability(self, mask: np.ndarray) -> float:
        raise NotImplementedError

    def sample(self, mask: np.ndarray, k: int,
               rng: np.random.Generator) -> np.ndarray:
        """Region-relative indices of up to ``k`` distinct pages in
        ``mask``, drawn by access probability."""
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
    """

    def class_probability(self, mask: np.ndarray) -> float:
        if mask.size == 0:
            return 0.0
        return float(np.count_nonzero(mask)) / mask.size

    def sample(self, mask: np.ndarray, k: int,
               rng: np.random.Generator) -> np.ndarray:
        m = int(np.count_nonzero(mask))
        if m <= k:
            return np.flatnonzero(mask)
        if m < _DENSE_RATIO * k:
            return rng.choice(np.flatnonzero(mask), size=k, replace=False)
        n = mask.size
        hits = np.empty(0, dtype=np.int64)
        while True:
            # draws for the missing picks, the duplicates among them and
            # a Poisson margin, so one round almost always suffices
            short = k - hits.size
            want = short + short * k // m + 4 * math.isqrt(short) + 4
            draws = rng.integers(0, n, size=want * n // m + 1)
            hits = _first_occurrences(
                np.concatenate((hits, draws[mask[draws]])))
            if hits.size >= k:
                return hits[:k]


def _first_occurrences(a: np.ndarray) -> np.ndarray:
    """``a`` without repeats, each value where it first occurs.

    One plain sort of ``value * len + position`` keys groups equal values
    with their first position leading (cheaper than ``np.unique``'s
    stable argsort).
    """
    n = a.size
    keys = np.sort(a * n + np.arange(n))
    values = keys // n
    first = np.empty(n, dtype=bool)
    first[:1] = True
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return a[np.sort(keys[first] % n)]
