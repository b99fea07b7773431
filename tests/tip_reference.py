"""The full-window TIP scheduler and a brute-force victim choice, kept as
reference models.

This is the scan ``TipManager._schedule_prefetches`` performed before it
learnt to visit only what may have become issuable: walk the whole prefetch
window on every hint, read, arrival and drop, re-deriving each block's disk
from the file system.  It is deliberately naive and must stay that way —
``test_property_tip_scheduler.py`` drives it beside the real manager and
requires identical disk traffic, counters and hint ledger.  Three methods
are overridden, the scan and the two fetch-completion hooks, so none of the
incremental bookkeeping (``HintRecord.disk``, ``_ProcessHints.visited`` /
``dirty``, ``released``) takes part; ``on_block_evicted`` still runs and
marks windows dirty, which this scan never reads, and ``disclose`` skips a
scan only when the window is full of visited entries, which here never
holds.

:func:`reference_victim` is the eviction rule read straight off the hint
queues, without the manager's per-key seq index.
"""

from typing import Dict, Optional

from repro.fs.cache import BlockKey, CacheEntry, EntryState, FetchOrigin
from repro.sim import metrics
from repro.tip.manager import (
    DEGRADED_HORIZON_FACTOR,
    DEGRADED_MAX_INFLIGHT_PER_DISK,
    TipManager,
)


def reference_victim(manager: TipManager) -> Optional[CacheEntry]:
    """The entry ``manager.find_victim()`` must choose: among the VALID,
    unpinned cache entries, the least recently used one no queue hints;
    else the hinted one whose earliest hint lies farthest beyond the front
    of the queues (the first in LRU order among equals), if that distance
    exceeds the prefetch horizon; else None."""
    earliest: Dict[BlockKey, int] = {}
    fronts = []
    for state in manager._procs.values():
        for entry in state.queue:
            earliest[entry.key] = min(earliest.get(entry.key, entry.seq), entry.seq)
        if state.queue:
            fronts.append(state.queue[0].seq)
    front = min(fronts) if fronts else manager._next_seq
    candidates = [entry for entry in manager.cache.entries()
                  if entry.state is EntryState.VALID and entry.pinned == 0]
    for entry in candidates:
        if entry.key not in earliest:
            return entry
    best = None
    for entry in candidates:
        if best is None or earliest[entry.key] > earliest[best.key]:
            best = entry
    if best is not None and earliest[best.key] - front > manager.params.prefetch_horizon:
        return best
    return None


class ReferenceTipManager(TipManager):
    """``TipManager`` with the brute-force scheduler."""

    def _schedule_prefetches(self, pid: int) -> None:
        state = self._procs.get(pid)
        if state is None or not state.queue:
            return
        depth = self.effective_depth(pid)
        limit = self.params.max_inflight_per_disk
        degraded = self.array.degraded
        if degraded:
            # Speculation-aware load shedding: while a dead disk is being
            # reconstructed, demand and rebuild traffic own the spindles.
            # Shrink the hint horizon and clamp the per-disk appetite;
            # hints stay queued, so prefetching catches back up on resume.
            depth = max(1, int(depth * DEGRADED_HORIZON_FACTOR))
            limit = DEGRADED_MAX_INFLIGHT_PER_DISK
        scanned = 0
        for entry in state.queue:
            if scanned >= depth:
                if degraded:
                    self.stats.bump(metrics.TIP_PREFETCHES_SHED_DEGRADED)
                break
            scanned += 1
            key = entry.key
            if self.cache.get(key) is not None:
                continue
            inode = self.fs.inode(key[0])
            disk = self.array.disk_of(inode.lbn_of_block(key[1]))
            if limit > 0 and self._inflight_per_disk.get(disk, 0) >= limit:
                if degraded:
                    self.stats.bump(metrics.TIP_PREFETCHES_SHED_DEGRADED)
                continue
            if self.start_prefetch(inode, key[1], FetchOrigin.HINT):
                self._inflight_hint_fetch[key] = disk
                self._inflight_per_disk[disk] = self._inflight_per_disk.get(disk, 0) + 1
                self.stats.bump(metrics.TIP_PREFETCHES_ISSUED)
                self.lifecycle.prefetch_issued(key)

    def on_block_arrived(self, key: BlockKey) -> None:
        self.lifecycle.filled(key)
        disk = self._inflight_hint_fetch.pop(key, None)
        if disk is not None:
            self._inflight_per_disk[disk] -= 1
        for pid in self._procs:
            self._schedule_prefetches(pid)

    def on_prefetch_dropped(self, key: BlockKey) -> None:
        """A hinted prefetch failed terminally: release its in-flight slot
        so the per-disk limit does not leak, and keep prefetching others."""
        disk = self._inflight_hint_fetch.pop(key, None)
        if disk is not None:
            self._inflight_per_disk[disk] -= 1
            self.stats.bump(metrics.TIP_PREFETCHES_DROPPED)
            self.lifecycle.prefetch_dropped(key)
        for pid in self._procs:
            self._schedule_prefetches(pid)
