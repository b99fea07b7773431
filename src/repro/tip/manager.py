"""The TIP cache manager: hint queues, cost-benefit prefetching, eviction.

The kernel's one cache manager.  It owns replacement and prefetch policy
over the :class:`~repro.fs.cache.BlockCache`: the kernel's read path calls
into it, it talks to the striped array.  Every run of the paper's
evaluation executes on TIP; a :class:`TipManager` that was never given a
hint is the stock Digital UNIX Unified Buffer Cache (LRU replacement plus
sequential read-ahead).

Behavioural summary (matching Sections 2.1 and 4 of the paper):

* hints arrive as segments (``TIPIO_SEG`` / ``TIPIO_FD_SEG``), one
  :meth:`TipManager.disclose` call each, and are expanded to per-block
  queue entries in disclosure order — each one the hint lifecycle ledger's
  open :class:`~repro.trace.lifecycle.HintRecord`, so a queued hint is one
  object (the manager reads its seq, key, pid, disk and skips; the ledger
  writes its stamps and terminal fields);
* TIP prefetches down each process's queue up to an *effective depth* —
  the prefetch horizon scaled by the process's measured hint accuracy —
  subject to a per-disk in-flight limit;
* an arriving read consumes matching queue entries; a read that matches no
  entry is unhinted and (per the paper) falls through to the sequential
  read-ahead policy;
* eviction prefers unhinted LRU blocks; hinted blocks may be evicted only
  when their hint is far beyond the prefetch horizon;
* ``TIPIO_CANCEL_ALL`` empties the issuing process's queue (prefetches
  already issued to the disks proceed and may become unused blocks);
* in ``ignore_hints`` mode all hint calls are accepted-and-dropped, making
  TIP behave exactly like the baseline UBC (Figure 4).
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Callable, Deque, Dict, List, Optional

from repro.errors import DataLossError, RetriesExhausted
from repro.fs.cache import BlockCache, BlockKey, CacheEntry, EntryState, FetchOrigin
from repro.fs.filesystem import FileSystem, Inode
from repro.fs.readahead import ReadAheadState, SequentialReadAhead
from repro.params import BLOCK_SIZE, TipParams
from repro.sim import metrics
from repro.sim.stats import StatRegistry
from repro.storage.request import IOKind, IORequest
from repro.storage.striping import StripedArray
from repro.tip.accuracy import HintAccuracyTracker
from repro.trace.lifecycle import HintLifecycle, HintRecord, OpenIndex
from repro.trace.tracer import CAT_TIP, NULL_TRACER, TID_SYSTEM, Tracer


#: While the array is degraded, TIP pursues this share of its prefetch depth
#: with at most this many hinted prefetches in flight per disk.
DEGRADED_HORIZON_FACTOR = 0.25
DEGRADED_MAX_INFLIGHT_PER_DISK = 1

#: Below this measured hint accuracy, TIP scales the prefetch depth it
#: will pursue for the offending process's hints by that accuracy
#: (floor 0.1 x the horizon, never below 4 blocks).
ACCURACY_DISCOUNT_THRESHOLD = 0.85


class _ProcessHints:
    """Hint state for one process."""

    __slots__ = ("queue", "accuracy", "visited", "dirty")

    def __init__(self) -> None:
        self.queue: Deque[HintRecord] = deque()
        self.accuracy = HintAccuracyTracker()
        #: Scheduler bookkeeping (see ``TipManager._schedule_prefetches``):
        #: the first ``visited`` queue entries held the post-scan invariant
        #: when the last scan ended, unless ``dirty`` says it was broken since.
        self.visited = 0
        self.dirty = False

    def remove(self, index: int) -> HintRecord:
        """Take the entry at ``index`` out of the queue."""
        entry = self.queue[index]
        del self.queue[index]
        if index < self.visited:
            self.visited -= 1
        return entry

    def drain(self) -> Deque[HintRecord]:
        """Empty the queue, and the scheduler bookkeeping with it; returns
        the entries that were queued."""
        entries, self.queue = self.queue, deque()
        self.visited = 0
        return entries


class TipManager:
    """Informed prefetching and caching manager."""

    #: How many queue entries an arriving read scans for a match before the
    #: call is declared unhinted.  Large enough to cover a batch of hints
    #: for a whole pass disclosed ahead of interleaved per-file hints.
    MATCH_WINDOW = 1024

    #: Entries skipped over this many times are declared stale and dropped.
    STALE_SKIP_LIMIT = 100_000

    def __init__(
        self,
        fs: FileSystem,
        array: StripedArray,
        cache: BlockCache,
        readahead: SequentialReadAhead,
        stats: StatRegistry,
        params: TipParams,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        self.fs = fs
        self.array = array
        self.cache = cache
        self.readahead = readahead
        self.stats = stats
        self.params = params
        self.tracer = tracer
        #: Every queued hint across all queues, per key in disclosure
        #: order: the first record's seq is the key's earliest hint, for
        #: eviction decisions.  The ledger reads it for its stamps.
        self._queued: OpenIndex = {}
        #: Always-on per-hint lifecycle ledger (disclosed -> terminal).
        #: Reads the array's clock; never schedules or advances anything.
        self.lifecycle = HintLifecycle(array.engine.clock, self._queued, tracer=tracer)
        self._procs: Dict[int, _ProcessHints] = {}
        self._next_seq = 0
        #: Blocks whose hint was already consumed: later reads of the same
        #: block (segments often span several short reads) still count as
        #: hinted without consuming fresh queue entries.
        self._consumed_blocks: Dict[BlockKey, int] = {}
        #: Keys currently being prefetched because of a hint, mapped to the
        #: disk servicing them (enforces the per-disk in-flight limit).
        self._inflight_hint_fetch: Dict[BlockKey, int] = {}
        self._inflight_per_disk: Dict[int, int] = {}

    # -- read path (called by the kernel) -----------------------------------

    def access_block(
        self, inode: Inode, file_block: int, on_ready: Callable[[], None]
    ) -> bool:
        """Application demand access to one block.

        Returns True when the block is resident (``on_ready`` is *not*
        called).  Otherwise starts/joins a fetch, arranges for ``on_ready``
        to run once the block arrives, and returns False.
        """
        key: BlockKey = (inode.ino, file_block)
        entry = self.cache.get(key)
        if entry is not None and entry.state is EntryState.VALID:
            self.cache.note_access(key)
            return True

        if entry is not None:
            # In flight: join the outstanding request at demand priority.
            entry.demand_waiters += 1
            self.cache.note_access(key)

            def joined(req: IORequest) -> None:
                self._check_demand_failure(req)
                on_ready()

            self.array.submit(inode.lbn_of_block(file_block), IOKind.DEMAND, joined)
            self.stats.bump(metrics.CACHE_DEMAND_JOINS_INFLIGHT)
            return False

        # Full miss: bring the block in at demand priority.  Evict one block
        # for it; overcommit if no victim is available (demand must not be
        # refused).
        if self.cache.free_blocks == 0:
            self._evict_one()
        entry = self.cache.insert_fetching(key, FetchOrigin.DEMAND)
        entry.demand_waiters += 1
        self.cache.note_access(key)
        self.stats.bump(metrics.CACHE_DEMAND_MISSES)

        def completed(req: IORequest) -> None:
            self._check_demand_failure(req)
            self.cache.mark_valid(key)
            self.on_block_arrived(key)
            on_ready()

        self.array.submit(inode.lbn_of_block(file_block), IOKind.DEMAND, completed)
        return False

    def _check_demand_failure(self, request: IORequest) -> None:
        """Demand reads must not be refused: exhausted retries are a hard,
        typed failure (never silent data corruption)."""
        if request.failed:
            cause = StripedArray.failure_cause(request)
            if isinstance(cause, DataLossError):
                # Unrecoverable, not merely slow: surface the loss directly
                # (retrying cannot bring a dead disk's blocks back).
                raise cause
            raise RetriesExhausted(
                f"demand read for lbn {request.lbn} failed after "
                f"{request.attempts} attempts"
            ) from cause

    def peek_valid(self, inode: Inode, file_block: int) -> bool:
        """Non-blocking residency check (used by speculative reads).

        Does not count as an access and does not disturb LRU order.
        """
        return self.cache.contains_valid((inode.ino, file_block))

    def read_call_completed(
        self,
        pid: int,
        ra_state: ReadAheadState,
        inode: Inode,
        first_block: int,
        last_block: int,
        hinted: bool,
    ) -> None:
        """Post-read bookkeeping: unhinted calls invoke sequential
        read-ahead (the paper's policy); every call lets the process's
        hint window advance."""
        if not hinted:
            for file_block in self.readahead.on_read(ra_state, inode, first_block, last_block):
                if self.array.degraded:
                    # Load shedding: sequential read-ahead is a pure
                    # performance bet, and while a dead disk is being
                    # reconstructed every speculative read competes with
                    # demand and rebuild traffic.  Skip it for the duration.
                    self.cache.note_prefetch_shed(FetchOrigin.READAHEAD)
                    continue
                self.start_prefetch(inode, file_block, FetchOrigin.READAHEAD)
        self._schedule_prefetches(pid)

    # -- prefetch mechanics ---------------------------------------------------

    def start_prefetch(self, inode: Inode, file_block: int, origin: FetchOrigin) -> bool:
        """Bring a block in ahead of need.  Returns False if the block is
        already present/in-flight, unservable, or no cache room could be made."""
        key: BlockKey = (inode.ino, file_block)
        if self.cache.get(key) is not None:
            return False
        lbn = inode.lbn_of_block(file_block)
        if not self.array.servable(lbn):
            return False
        if self.cache.free_blocks == 0 and not self._evict_one():
            self.stats.bump(metrics.CACHE_PREFETCH_DENIED_NO_ROOM)
            return False
        self.cache.insert_fetching(key, origin)

        def completed(req: IORequest) -> None:
            if req.failed:
                # Dropped prefetch: discard the entry silently.  A later
                # demand access simply misses — the unhinted baseline, never
                # an error surfaced to the application.
                self.cache.discard_fetching(key)
                self.stats.bump(metrics.CACHE_PREFETCHES_DROPPED)
                self.on_prefetch_dropped(key)
                return
            self.cache.mark_valid(key)
            self.on_block_arrived(key)

        self.array.submit(lbn, IOKind.PREFETCH, completed)
        return True

    def _evict_one(self) -> bool:
        victim = self.find_victim()
        if victim is None:
            return False
        self.cache.evict(victim.key)
        self.on_block_evicted(victim.key)
        return True

    # -- hint surface (Table 2) -------------------------------------------------

    def _proc(self, pid: int) -> _ProcessHints:
        state = self._procs.get(pid)
        if state is None:
            state = _ProcessHints()
            self._procs[pid] = state
        return state

    def disclose(self, pid: int, inode: Inode, offset: int, length: int) -> int:
        """Accept one hint segment (TIPIO_SEG / TIPIO_FD_SEG): ``length``
        bytes of ``inode`` at ``offset``.  Returns the blocks queued.

        Precondition: ``0 <= offset < inode.size`` and
        ``1 <= length <= inode.size - offset``.  Outside input is validated
        and clamped to the file where it arrives, in ``Kernel.hint_from``.
        """
        self.stats.bump(metrics.TIP_HINT_CALLS)
        if self.params.ignore_hints:
            self.stats.bump(metrics.TIP_HINTS_IGNORED)
            return 0
        state = self._proc(pid)
        ino = inode.ino
        first_lbn = inode.first_lbn
        disk_of = self.array.disk_of
        queued = self._queued
        now = self.array.engine.clock.now
        seq = self._next_seq
        records: List[HintRecord] = []
        for file_block in range(offset // BLOCK_SIZE, (offset + length - 1) // BLOCK_SIZE + 1):
            seq += 1
            key = (ino, file_block)
            record = HintRecord(seq, key, pid, now, disk_of(first_lbn + file_block))
            records.append(record)
            same_key = queued.get(key)
            if same_key is None:
                queued[key] = [record]
            else:
                same_key.append(record)
        self._next_seq = seq
        state.queue.extend(records)
        accepted = len(records)
        self.lifecycle.disclosed(records)
        self.stats.bump(metrics.TIP_HINTED_BLOCKS, accepted)
        # Appending to a window whose visited prefix already spans the whole
        # depth leaves the scan nothing to visit (and nothing to count).
        if state.dirty or state.visited != self._depth(state) or self.array.degraded:
            self._schedule_prefetches(pid)
        return accepted

    def cancel_all(self, pid: int) -> int:
        """TIPIO_CANCEL_ALL: drop every outstanding hint from ``pid``.
        Returns the number cancelled; prefetches already issued proceed."""
        state = self._procs.get(pid)
        if state is None or not state.queue:
            return 0
        cancelled = len(state.queue)
        for entry in state.drain():
            self._unindex(entry)
            self.lifecycle.cancelled(entry)
        state.accuracy.observe_inaccurate(cancelled)
        self.stats.bump(metrics.TIP_HINTS_CANCELLED, cancelled)
        if self.tracer.enabled:
            self.tracer.instant(CAT_TIP, "cancel_all", tid=TID_SYSTEM,
                                pid=pid, cancelled=cancelled)
        # Post-condition of TIPIO_CANCEL_ALL: the queue is drained.  The
        # restart protocol restarts speculation on the strength of this —
        # a leaked hint would let a cancelled prediction keep prefetching.
        assert not state.queue, f"cancel_all leaked {len(state.queue)} hints"
        self.stats.bump(metrics.TIP_CANCEL_DRAINED)
        return cancelled

    # -- read-path matching -----------------------------------------------------

    def consume_hints(
        self,
        pid: int,
        inode: Inode,
        first_block: int,
        last_block: int,
        length: int,
    ) -> bool:
        """Match a ``length``-byte read call against the process's hint queue.

        Returns True (the call was hinted) when every block of the call
        matches a queue entry within the scan window.
        """
        if self.params.ignore_hints:
            return False
        state = self._procs.get(pid)
        if state is None:
            return False

        matched_all = True
        for file_block in range(first_block, last_block + 1):
            if not self._consume_one(state, (inode.ino, file_block)):
                matched_all = False
        if matched_all:
            self.stats.bump(metrics.TIP_HINTED_READ_CALLS)
            self.stats.bump(metrics.TIP_HINTED_READ_BYTES, length)
        self._drop_stale(state)
        return matched_all

    def _consume_one(self, state: _ProcessHints, key: BlockKey) -> bool:
        queue = state.queue
        window = min(self.MATCH_WINDOW, len(queue))
        for i in range(window):
            entry = queue[i]
            if entry.key == key:
                state.remove(i)
                self._unindex(entry)
                state.accuracy.observe_consumed()
                self.stats.bump(metrics.TIP_HINTS_CONSUMED)
                self.lifecycle.consumed(entry)
                self._remember_consumed(key)
                return True
            entry.skips += 1
        if key in self._consumed_blocks:
            # A previous read of this block already consumed the hint
            # entry; the segment still covers this read.
            return True
        return False

    def _remember_consumed(self, key: BlockKey) -> None:
        self._next_seq += 1
        self._consumed_blocks[key] = self._next_seq
        if len(self._consumed_blocks) > 4096:
            # Bound memory: forget the oldest half.
            ordered = sorted(self._consumed_blocks.items(), key=lambda kv: kv[1])
            for old_key, _ in ordered[: len(ordered) // 2]:
                del self._consumed_blocks[old_key]

    def _drop_stale(self, state: _ProcessHints) -> None:
        queue = state.queue
        while queue and queue[0].skips > self.STALE_SKIP_LIMIT:
            entry = state.remove(0)
            self._unindex(entry)
            state.accuracy.observe_inaccurate()
            self.stats.bump(metrics.TIP_HINTS_STALE_DROPPED)
            self.lifecycle.wasted(entry, "stale")

    def _unindex(self, record: HintRecord) -> None:
        """Take a record that just left its queue out of the key index."""
        same_key = self._queued[record.key]
        same_key.remove(record)
        if not same_key:
            del self._queued[record.key]

    # -- prefetch scheduling ------------------------------------------------------

    def effective_depth(self, pid: int) -> int:
        """Prefetch depth for this process: horizon scaled by accuracy."""
        state = self._procs.get(pid)
        if state is None:
            return 0
        return self._depth(state)

    def _depth(self, state: _ProcessHints) -> int:
        """:meth:`effective_depth` of the process whose hint state is ``state``."""
        accuracy = state.accuracy.value
        if accuracy >= ACCURACY_DISCOUNT_THRESHOLD:
            return self.params.prefetch_horizon
        factor = max(0.1, accuracy)
        return max(4, int(self.params.prefetch_horizon * factor))

    def _schedule_prefetches(self, pid: int, released: Optional[int] = None) -> None:
        """Prefetch down ``pid``'s window, visiting only what may be issuable.

        A scan leaves every window entry it visited either in the cache or
        on a disk at its in-flight limit.  Until something breaks that, the
        next scan need only visit the window's new tail (the head was
        consumed or dropped, the depth grew, hints were appended to a short
        queue) and the entries on ``released``, the disk whose hint slot the
        caller just freed.  The whole window is walked when the state is
        ``dirty`` (a hinted key left the cache, or a prefetch was denied for
        lack of room or of a servable block) and while the array is degraded
        (the shed counter counts visits and the limit changes back on
        recovery, so a degraded scan leaves the state dirty).
        """
        state = self._procs.get(pid)
        if state is None or not state.queue:
            return
        depth = self._depth(state)
        limit = self.params.max_inflight_per_disk
        degraded = self.array.degraded
        if degraded:
            # Speculation-aware load shedding: while a dead disk is being
            # reconstructed, demand and rebuild traffic own the spindles.
            # Shrink the hint horizon and clamp the per-disk appetite;
            # hints stay queued, so prefetching catches back up on resume.
            depth = max(1, int(depth * DEGRADED_HORIZON_FACTOR))
            limit = DEGRADED_MAX_INFLIGHT_PER_DISK
        visited = 0 if state.dirty or degraded else state.visited
        # Cleared before the walk: an eviction or denial below must reach
        # the next scan (and widens the rest of this one).
        state.dirty = degraded
        start = visited if released is None else 0
        for index, entry in enumerate(islice(state.queue, start, depth), start):
            if index < visited and entry.disk != released and not state.dirty:
                continue
            key = entry.key
            if self.cache.get(key) is not None:
                continue
            disk = entry.disk
            if limit > 0 and self._inflight_per_disk.get(disk, 0) >= limit:
                if degraded:
                    self.stats.bump(metrics.TIP_PREFETCHES_SHED_DEGRADED)
                continue
            if self.start_prefetch(self.fs.inode(key[0]), key[1], FetchOrigin.HINT):
                self._inflight_hint_fetch[key] = disk
                self._inflight_per_disk[disk] = self._inflight_per_disk.get(disk, 0) + 1
                self.stats.bump(metrics.TIP_PREFETCHES_ISSUED)
                self.lifecycle.prefetch_issued(key)
            else:
                state.dirty = True  # no room, or unservable: neither resident nor blocked
        if degraded and len(state.queue) > depth:
            self.stats.bump(metrics.TIP_PREFETCHES_SHED_DEGRADED)
        state.visited = min(depth, len(state.queue))

    def on_block_arrived(self, key: BlockKey) -> None:
        """Any fetch completed: free its hint slot and prefetch further."""
        self.lifecycle.filled(key)
        disk = self._inflight_hint_fetch.pop(key, None)
        if disk is not None:
            self._inflight_per_disk[disk] -= 1
        for pid in self._procs:
            self._schedule_prefetches(pid, disk)

    def on_prefetch_dropped(self, key: BlockKey) -> None:
        """A hinted prefetch failed terminally: release its in-flight slot
        so the per-disk limit does not leak, and keep prefetching others."""
        disk = self._inflight_hint_fetch.pop(key, None)
        if disk is not None:
            self._inflight_per_disk[disk] -= 1
            self.stats.bump(metrics.TIP_PREFETCHES_DROPPED)
            self.lifecycle.prefetch_dropped(key)
        else:
            # A read-ahead fetch died: no slot to free, but its key is gone.
            self.on_block_evicted(key)
        for pid in self._procs:
            self._schedule_prefetches(pid, disk)

    def on_block_evicted(self, key: BlockKey) -> None:
        """A block left the cache (evicted, or its read-ahead died)."""
        if key in self._queued:
            # A window may have seen this key resident: rescan them all.
            for state in self._procs.values():
                state.dirty = True

    # -- eviction policy -------------------------------------------------------------

    def find_victim(self) -> Optional[CacheEntry]:
        """Choose an evictable entry (VALID, unpinned): the unhinted LRU
        block if any; else a hinted block far beyond the prefetch horizon
        (largest hint distance first); else None."""
        best_hinted: Optional[CacheEntry] = None
        best_distance = -1
        front_seq = self._front_seq()
        for entry in self.cache.entries():
            if entry.state is not EntryState.VALID or entry.pinned > 0:
                continue
            queued = self._queued.get(entry.key)
            if queued is None:
                return entry  # unhinted LRU block: cheapest eviction
            distance = queued[0].seq - front_seq
            if distance > best_distance:
                best_distance = distance
                best_hinted = entry
        if best_hinted is not None and best_distance > self.params.prefetch_horizon:
            self.stats.bump(metrics.TIP_HINTED_EVICTIONS)
            return best_hinted
        return None

    def _front_seq(self) -> int:
        fronts = [
            state.queue[0].seq for state in self._procs.values() if state.queue
        ]
        return min(fronts) if fronts else self._next_seq

    # -- reporting -----------------------------------------------------------------

    def accuracy_of(self, pid: int) -> HintAccuracyTracker:
        """The accuracy tracker for ``pid`` (creating it if needed)."""
        return self._proc(pid).accuracy

    def outstanding_hints(self, pid: int) -> int:
        """Hints still queued for ``pid`` (the restart protocol's drain
        check reads this)."""
        state = self._procs.get(pid)
        return len(state.queue) if state is not None else 0

    def finalize(self) -> None:
        """Unconsumed hints at end of run count as inaccurate."""
        for state in self._procs.values():
            leftover = len(state.queue)
            if leftover:
                for entry in state.drain():
                    self._unindex(entry)
                    self.lifecycle.wasted(entry, "unconsumed")
                state.accuracy.observe_inaccurate(leftover)
                self.stats.bump(metrics.TIP_HINTS_UNCONSUMED_AT_END, leftover)
        self.cache.finalize()
