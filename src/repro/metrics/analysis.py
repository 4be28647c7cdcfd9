"""Analysis helpers for the paper's derived metrics.

The paper reports, beyond raw timelines: the time for the average YCSB
throughput to recover to 90 % of its maximum (§V-A3) and window-averaged
application performance during migration (Table I).
"""

from __future__ import annotations

from typing import Optional

from repro.metrics.series import TimeSeries

__all__ = ["recovery_time", "window_mean"]


def window_mean(series: TimeSeries, t0: float, t1: float) -> float:
    """Mean value over [t0, t1) — Table I's 'performance through the
    migration' statistic."""
    sub = series.between(t0, t1)
    return sub.mean()


def recovery_time(series: TimeSeries, start: float, target: float,
                  smooth_window: float = 10.0,
                  sustain: float = 10.0) -> Optional[float]:
    """Seconds after ``start`` until the smoothed series first reaches
    ``target`` and stays at or above it for ``sustain`` seconds.

    Returns None if the series never recovers. This implements the
    paper's 'time to restore performance to 90 % of maximum' metric; the
    sustain requirement avoids counting transient spikes during
    thrashing as recovery.
    """
    sm = series.resample(smooth_window) if smooth_window > 0 else series
    t, v = sm.t, sm.v
    after = t >= start
    t, v = t[after], v[after]
    if t.size == 0:
        return None
    ok = v >= target
    i = 0
    while i < t.size:
        if not ok[i]:
            i += 1
            continue
        # find how long the streak lasts
        j = i
        while j < t.size and ok[j]:
            j += 1
        streak_end = t[j - 1] if j - 1 < t.size else t[-1]
        if streak_end - t[i] >= sustain or j == t.size:
            return float(t[i] - start)
        i = j
    return None
