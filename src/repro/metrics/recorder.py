"""The series half of the one metrics store."""

from __future__ import annotations

from repro.metrics.series import TimeSeries

__all__ = ["Recorder"]


class Recorder:
    """Named :class:`TimeSeries` appended at explicit times.

    This is the read side every paper figure uses (``vm1.throughput``,
    ``src.swap.read_bps``, ...). It is a base class, not a store of its
    own: :class:`~repro.telemetry.MetricsRegistry` is the one subclass,
    whose :meth:`gauge` creates a series and enters it in ``_series``.
    """

    def __init__(self) -> None:
        self._series: dict[str, TimeSeries] = {}

    def gauge(self, name: str) -> TimeSeries:
        raise NotImplementedError

    def record(self, name: str, t: float, v: float) -> None:
        """Append ``(t, v)`` to the series ``name`` (created on first use)."""
        s = self._series.get(name)
        if s is None:
            s = self.gauge(name)
        s.append(t, v)

    def series(self, name: str) -> TimeSeries:
        """The series ``name``; KeyError when there is none."""
        return self._series[name]

    def has(self, name: str) -> bool:
        return name in self._series

    def names(self) -> list[str]:
        """Every series name, sorted."""
        return sorted(self._series)
