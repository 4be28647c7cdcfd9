"""StreamChannel: ordered transfer jobs over a flow.

The migration managers and the VMD move data as discrete *jobs* (a batch of
pages, a fault response, a CPU-state blob). A :class:`StreamChannel` owns a
:class:`~repro.net.flow.Flow`, declares the queue backlog as the flow's
demand each tick, drains granted bytes through the job queue FIFO, and
fires each job's completion event once its last byte has been delivered
(plus one propagation latency).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Optional

from repro.net.network import Network
from repro.obs.tracer import NULL_TRACER
from repro.sim.kernel import Event, Simulator

__all__ = ["ChannelClosed", "StreamChannel", "TransferJob"]


class ChannelClosed(RuntimeError):
    """Raised into waiters of in-flight jobs when their channel closes.

    An aborted migration tears its stream down mid-transfer; any process
    yielding on a job's completion event receives this instead of
    hanging forever on an event that can no longer fire.
    """


class TransferJob:
    """One queued transfer: ``size`` bytes plus optional completion hooks."""

    __slots__ = ("size", "remaining", "done", "info", "on_complete",
                 "span_id")

    def __init__(self, size: float, done: Optional[Event], info: Any,
                 on_complete: Optional[Callable[["TransferJob"], None]]):
        self.size = float(size)
        self.remaining = float(size)
        self.done = done
        self.info = info
        self.on_complete = on_complete
        self.span_id = 0


class StreamChannel:
    """FIFO byte stream between two hosts with per-job completion events.

    Register as a tick participant. ``send()`` may be called at any time
    (typically from commit phase or from control processes); bytes start
    moving on the next tick.

    Parameters
    ----------
    sim, network:
        Kernel and fabric.
    src, dst:
        Host names.
    priority:
        Flow priority class (0 = served first).
    demand_cap_bps:
        Optional rate cap (bytes/s) the owner imposes on itself, e.g. a
        throttled active-push rate.
    """

    def __init__(self, sim: Simulator, network: Network, src: str, dst: str,
                 priority: int = 1, name: str = "",
                 demand_cap_bps: Optional[float] = None,
                 tracer=None):
        self.sim = sim
        self.network = network
        self.src = src
        self.dst = dst
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.name = name or f"chan:{src}->{dst}"
        self.flow = network.open_flow(src, dst, priority=priority,
                                      name=self.name)
        self.demand_cap_bps = demand_cap_bps
        self._jobs: deque[TransferJob] = deque()
        #: jobs fully drained but still inside the propagation-latency
        #: window (their completion has been scheduled, not yet landed)
        self._landing: list[TransferJob] = []
        self._backlog = 0.0
        self.bytes_delivered = 0.0
        self.closed = False

    # -- sending ------------------------------------------------------------
    def send(self, size: float, info: Any = None,
             on_complete: Optional[Callable[[TransferJob], None]] = None,
             want_event: bool = False) -> Optional[Event]:
        """Enqueue ``size`` bytes; returns a completion event if requested.

        Zero-byte jobs carry no payload but keep FIFO order: they complete
        only after every byte queued before them has been delivered —
        usable as barriers/sentinels (e.g. "all pages have arrived").
        """
        if self.closed:
            raise RuntimeError(f"channel {self.name} is closed")
        if size < 0:
            raise ValueError(f"negative transfer size: {size}")
        done = self.sim.event(f"{self.name}:job") if want_event else None
        job = TransferJob(size, done, info, on_complete)
        if self.tracer.enabled and size > 0:
            job.span_id = self.tracer.async_begin(
                f"net:{self.name}", "xfer", cat="net",
                args={"bytes": float(size)})
        self._jobs.append(job)
        self._backlog += size
        return done

    @property
    def backlog(self) -> float:
        """Bytes enqueued but not yet delivered."""
        return self._backlog

    @property
    def in_flight(self) -> int:
        return len(self._jobs)

    def close(self) -> None:
        """Drop pending jobs and release the flow.

        Every undelivered job whose sender asked for a completion event
        — still queued, or drained but inside the propagation-latency
        window — has that event *failed* with :class:`ChannelClosed`, so
        processes yielding on it are woken with the exception instead of
        waiting forever on a delivery that will never land.
        """
        if self.closed:
            return
        self.closed = True
        orphans = [j for j in self._jobs if j.done is not None]
        orphans += [j for j in self._landing if j.done is not None]
        if self.tracer.enabled:
            for job in list(self._jobs) + self._landing:
                if job.span_id:
                    self.tracer.async_end(job.span_id,
                                          args={"dropped": True})
        self._jobs.clear()
        self._landing.clear()
        self._backlog = 0.0
        self.flow.close()
        for job in orphans:
            if not job.done.triggered:
                job.done.fail(ChannelClosed(
                    f"channel {self.name} closed with job in flight"))

    # -- tick protocol ---------------------------------------------------------
    def pre_tick(self, dt: float) -> None:
        if self.closed:
            return
        demand = self._backlog
        if self.demand_cap_bps is not None:
            demand = min(demand, self.demand_cap_bps * dt)
        self.flow.demand = demand

    def commit_tick(self, dt: float) -> None:
        if self.closed:
            return
        budget = self.flow.granted
        self.flow.demand = 0.0
        self.bytes_delivered += min(budget, self._backlog)
        while self._jobs and (budget > 0 or self._jobs[0].remaining <= 1e-9):
            job = self._jobs[0]
            take = min(budget, job.remaining)
            job.remaining -= take
            budget -= take
            if job.remaining <= 1e-9:
                self._jobs.popleft()
                self._complete_later(job)
        # Recompute the backlog exactly: an incrementally-tracked float
        # drifts over hundreds of thousands of partial drains, and a
        # backlog that reads zero while jobs still hold bytes deadlocks
        # the demand loop.
        self._backlog = sum(j.remaining for j in self._jobs)

    # -- internal -----------------------------------------------------------
    def _complete_later(self, job: TransferJob) -> None:
        delay = self.network.one_way_latency(self.src, self.dst)
        self._landing.append(job)

        def finish() -> None:
            if self.closed:
                # the channel was torn down (abort/failure) inside the
                # propagation-latency window: close() already failed the
                # job's event — the delivery never lands
                return
            self._landing.remove(job)
            if job.span_id:
                self.tracer.async_end(job.span_id)
            if job.on_complete is not None:
                job.on_complete(job)
            if job.done is not None and not job.done.triggered:
                job.done.succeed(job.info)

        self.sim.call_in(delay, finish)
