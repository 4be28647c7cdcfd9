"""Agile live migration — the paper's contribution (§III-§IV).

One live pre-copy round walks the whole address space, but:

* resident pages are sent in full (like pre-copy round 1);
* swapped pages are **not** transferred — only their swap offset goes to
  the destination (a SWAPPED-flag message, ~16 bytes), and the
  destination sets its *swapped bitmap* so later faults on those pages
  read the portable per-VM swap device (VMD) directly.

After the single round, the CPU state and the dirty bitmap move, the VM
resumes at the destination, and the pages dirtied during the round are
actively pushed / demand-paged exactly like post-copy. The per-VM swap
device stays attached to the destination, so no residual state remains
at the source once the push drains.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import MigrationManager, MigrationPhase, PendingScan
from repro.core.umem import UmemFaultHandler

__all__ = ["AgileMigration"]

#: bytes on the wire for one SWAPPED-flag message (offset + flags)
SWAP_OFFSET_MSG_BYTES = 16


class AgileMigration(MigrationManager):
    """Hybrid pre/post-copy that never moves cold pages.

    The destination swap backend defaults to the source binding's backend
    — which for Agile must be the VM's portable VMD namespace, making the
    cold pages reachable from the destination without transfer.
    """

    technique = "agile"

    def start(self) -> None:
        if self.phase is not MigrationPhase.IDLE:
            raise RuntimeError("migration already started")
        self._begin()
        self.vm.migrating = True
        pages = self.src_pages
        allocated = pages.present | pages.swapped
        pages.dirty[:] = False
        self.scan = PendingScan(allocated)
        self._finish_sent = False
        self.umem: UmemFaultHandler | None = None
        self.phase = MigrationPhase.LIVE_ROUND
        self.report.rounds = 1
        self._trace_phase("live-round",
                          {"pending_pages": int(self.scan.remaining)})

    # -- tick protocol ---------------------------------------------------------
    def pre_tick(self, dt: float) -> None:
        super().pre_tick(dt)
        # The live round needs no swap reads (cold pages are skipped); the
        # push phase may need them for pages dirtied-then-evicted.
        if self.phase is MigrationPhase.PUSH:
            self._demand_swap_reads(dt)

    def commit_tick(self, dt: float) -> None:
        super().commit_tick(dt)
        if self.phase is MigrationPhase.LIVE_ROUND:
            self._live_round_tick()
        elif self.phase is MigrationPhase.PUSH:
            self._push_tick()

    # -- phase 1: the single live round ----------------------------------------
    def _live_round_tick(self) -> None:
        page = self._page_size()
        room_bytes = max(0.0, self.config.backlog_cap_bytes
                         - self.stream.backlog)
        res, swp = self.scan.take_weighted(
            room_bytes, 0, self.src_pages.swapped,
            resident_cost=float(page), swapped_cost=SWAP_OFFSET_MSG_BYTES,
            free_swapped=True)
        if res.size or swp.size:
            data_bytes = float(res.size) * page
            meta_bytes = float(swp.size) * SWAP_OFFSET_MSG_BYTES
            if res.size:
                self.src_pages.clear_dirty(res)
            if swp.size:
                self.src_pages.clear_dirty(swp)
            self.report.precopy_bytes += data_bytes
            self.report.metadata_bytes += meta_bytes
            self.report.pages_sent += int(res.size)
            self.report.pages_skipped_swapped += int(swp.size)
            self.stream.send(
                data_bytes + meta_bytes, info=(res, swp),
                on_complete=lambda job: self._deliver_round(job.info))
        if self.scan.exhausted():
            self._enter_handover()

    def _deliver_round(self, info: tuple[np.ndarray, np.ndarray]) -> None:
        res, swp = info
        if res.size:
            self._deliver_to_dst(res)
        if swp.size:
            # SWAPPED-flag messages: record offsets in the swap-offset
            # table and set the destination's swapped bitmap (§IV-F).
            self.dst_pages.mark_swapped(swp)

    def _enter_handover(self) -> None:
        """Round done: suspend, ship CPU state + dirty bitmap (FIFO behind
        the in-flight page data), and prepare the push scan."""
        self._suspend_vm()
        self.phase = MigrationPhase.STOPCOPY
        pages = self.src_pages
        dirty = pages.dirty & (pages.present | pages.swapped)
        pages.dirty[:] = False
        self.scan = PendingScan(dirty)
        self._trace_phase("handover",
                          {"dirty_pages": int(self.scan.remaining)})
        self.umem = UmemFaultHandler(
            self.network, self.src.name, self.dst.name, self.vm.name,
            self.scan, pages, self.src_binding.backend, self.report,
            priority=self.config.demand_priority,
            tracer=self.tracer, track=self._track)
        self.umem.metrics = self.metrics
        bitmap_bytes = pages.n_pages / 8.0
        self.report.metadata_bytes += self.vm.cpu_state_bytes + bitmap_bytes
        self.stream.send(self.vm.cpu_state_bytes + bitmap_bytes,
                         on_complete=lambda _job: self._cpu_arrived())

    def _cpu_arrived(self) -> None:
        self._switch_to_destination()
        if self.workload is not None:
            self.workload.fault_router = self.umem
        self.phase = MigrationPhase.PUSH
        self._trace_phase("push",
                          {"remaining_pages": int(self.scan.remaining)})

    # -- phase 2: active push of round-dirtied pages -------------------------------
    def _push_tick(self) -> None:
        page = self._page_size()
        dev_pages = int(self.src_read_q.granted // page)
        room_pages = self._stream_room_pages()
        res, swp = self.scan.take(room_pages, dev_pages,
                                  self.src_pages.swapped)
        sent = np.concatenate([res, swp])
        if sent.size:
            nbytes = float(sent.size) * page
            self.report.push_bytes += nbytes
            self.report.pages_sent += int(sent.size)
            self.stream.send(nbytes, info=sent,
                             on_complete=lambda job:
                             self._deliver_to_dst(job.info))
        if self.scan.exhausted() and not self._finish_sent:
            # FIFO sentinel: fires only after every queued page delivers.
            self._finish_sent = True
            self.stream.send(0.0, on_complete=self._all_delivered)

    def _abort_cleanup(self) -> None:
        if getattr(self, "umem", None) is not None:
            self.umem.close()

    def _all_delivered(self, _job) -> None:
        if self.umem is not None:
            self.umem.close()
        # Disconnecting the source from the per-VM swap device happens in
        # _finish (the source-side queues close); the device itself
        # remains attached at the destination (§IV-B).
        self._finish()
