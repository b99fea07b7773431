"""Background rebuild: resilvering a dead disk onto a hot spare.

When the array observes a permanent disk death it assigns a free hot spare
and starts a :class:`RebuildEngine`.  The engine walks the dead disk's
physical blocks sequentially, reconstructing each from the parity row
(same-index reads on every surviving disk + the XOR cost) and writing the
result to the spare.  Everything runs on the sim clock through the normal
disk queues, so rebuild traffic competes with — and yields to — demand
I/O:

* reconstruction reads and spare writes are issued at *prefetch* priority,
  so demand requests win at every disk queue;
* between rows the engine idles long enough that reconstruction consumes
  roughly ``rebuild_bandwidth_share`` of wall time (share = 1 means flat
  out, share = 0.25 means ~3 cycles idle per busy cycle).

The *watermark* (first un-resilvered physical block) lets the array start
redirecting reads below it to the spare while the rebuild is still
running.  A second death during the rebuild makes the next row
unreconstructable: the engine raises :class:`~repro.errors.DataLossError`
loudly rather than silently skipping rows.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import DataLossError, DiskFaultError
from repro.faults.injector import FAULT_DATA_LOSS
from repro.sim import metrics
from repro.trace.tracer import CAT_STORAGE, TID_DISK_BASE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.striping import StripedArray, _ChildSet


class RebuildEngine:
    """Resilvers one dead disk onto one hot spare, block by block."""

    def __init__(
        self,
        array: "StripedArray",
        dead_disk: int,
        spare_id: int,
        share: float,
    ) -> None:
        self.array = array
        self.dead_disk = dead_disk
        self.spare_id = spare_id
        #: Fraction of wall time the rebuild may consume (clamped to (0, 1]).
        self.share = min(1.0, max(0.01, share))
        self.total_blocks = array.disks[dead_disk].nblocks
        #: First physical block not yet resilvered; blocks below it can be
        #: served from the spare.
        self.watermark = 0
        self.complete = False
        self.started_at = array.engine.clock.now
        self.completed_at = -1
        self._row_started_at = 0

    def covers(self, physical: int) -> bool:
        """Can the spare serve ``physical`` of the dead disk already?"""
        return self.complete or physical < self.watermark

    # -- the resilver loop ---------------------------------------------------

    def start(self) -> None:
        self.array.stats.bump(metrics.REBUILD_STARTED)
        if self.array.tracer.enabled:
            self.array.tracer.instant(
                CAT_STORAGE, f"rebuild.start disk{self.dead_disk}",
                tid=TID_DISK_BASE + self.spare_id,
                spare=self.spare_id, blocks=self.total_blocks,
            )
        self._next_row()

    def _next_row(self) -> None:
        # A disk has at least one block, and _row_written finishes the
        # rebuild after the last: a row is always left here.
        self._row_started_at = self.array.engine.clock.now
        if not self.array.can_reconstruct(self.dead_disk, self.watermark):
            raise DataLossError(
                f"rebuild of disk {self.dead_disk} cannot reconstruct "
                f"physical block {self.watermark}: a second disk died "
                f"before resilvering finished (dead: "
                f"{sorted(self.array._dead_disks)})"
            )
        self.array.spawn_rebuild_read(
            self.dead_disk, self.watermark,
            on_complete=self._row_read,
            on_failed=self._row_failed,
        )

    def _row_read(self, recon: "_ChildSet") -> None:
        # Peers arrived and the XOR cost is paid: land it on the spare.
        self.array.spawn_spare_write(
            self.spare_id, self.watermark,
            on_complete=self._row_written,
            on_failed=self._write_failed,
            label=f"array:resilver disk{self.dead_disk} block={self.watermark}",
        )

    def _row_written(self, write_set: "_ChildSet") -> None:
        self.watermark += 1
        self.array.stats.bump(metrics.REBUILD_BLOCKS)
        if self.watermark >= self.total_blocks:
            self._finish()
            return
        # Bandwidth sharing: idle so this engine consumes ~share of time.
        elapsed = self.array.engine.clock.now - self._row_started_at
        idle = 0
        if self.share < 1.0:
            idle = int(elapsed * (1.0 - self.share) / self.share)
        self.array.engine.schedule_after(
            max(1, idle), self._next_row,
            label=f"rebuild:next disk{self.dead_disk}",
        )

    def _row_failed(self, recon: "_ChildSet", fault: str) -> None:
        if fault == FAULT_DATA_LOSS:
            raise DataLossError(
                f"rebuild of disk {self.dead_disk} lost physical block "
                f"{self.watermark}: a surviving peer died mid-reconstruction "
                f"(dead: {sorted(self.array._dead_disks)})"
            )
        raise DiskFaultError(
            f"rebuild of disk {self.dead_disk} exhausted retries reading "
            f"peers for physical block {self.watermark} ({fault})"
        )

    def _write_failed(self, write_set: "_ChildSet", fault: str) -> None:
        raise DiskFaultError(
            f"rebuild write of physical block {self.watermark} to spare "
            f"{self.spare_id} failed ({fault})"
        )

    def _finish(self) -> None:
        self.complete = True
        self.completed_at = self.array.engine.clock.now
        stats = self.array.stats
        stats.bump(metrics.REBUILD_COMPLETED)
        stats.bump(metrics.REBUILD_COMPLETED_CYCLE, self.completed_at)
        if self.array.tracer.enabled:
            self.array.tracer.instant(
                CAT_STORAGE, f"rebuild.complete disk{self.dead_disk}",
                tid=TID_DISK_BASE + self.spare_id,
                blocks=self.total_blocks,
                cycles=self.completed_at - self.started_at,
            )
