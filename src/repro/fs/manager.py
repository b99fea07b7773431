"""Cache manager base class.

A cache manager owns replacement and prefetch *policy* over the
:class:`~repro.fs.cache.BlockCache`.  The kernel's read path calls into the
manager; the manager talks to the striped array.  Two managers exist:

* :class:`~repro.fs.ubc.UbcManager` — the stock Digital UNIX Unified Buffer
  Cache: LRU replacement + sequential read-ahead, ignores hints;
* :class:`~repro.tip.manager.TipManager` — Patterson's TIP informed
  prefetching and caching manager, which this paper's system feeds with
  speculatively generated hints.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.errors import DataLossError, RetriesExhausted
from repro.fs.cache import BlockCache, BlockKey, CacheEntry, EntryState, FetchOrigin
from repro.fs.filesystem import FileSystem, Inode
from repro.fs.readahead import ReadAheadState, SequentialReadAhead
from repro.sim import metrics
from repro.sim.stats import StatRegistry
from repro.storage.request import IOKind, IORequest
from repro.storage.striping import StripedArray

ReadyCallback = Callable[[], None]


class CacheManagerBase:
    """Mechanism shared by every cache manager; policy in subclasses."""

    def __init__(
        self,
        fs: FileSystem,
        array: StripedArray,
        cache: BlockCache,
        readahead: SequentialReadAhead,
        stats: StatRegistry,
    ) -> None:
        self.fs = fs
        self.array = array
        self.cache = cache
        self.readahead = readahead
        self.stats = stats

    # -- read path (called by the kernel) -----------------------------------

    def access_block(self, inode: Inode, file_block: int, on_ready: ReadyCallback) -> bool:
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
            self.stats.counter(metrics.CACHE_DEMAND_JOINS_INFLIGHT).add()
            return False

        # Full miss: bring the block in at demand priority.
        self._make_room_for_demand()
        entry = self.cache.insert_fetching(key, FetchOrigin.DEMAND)
        entry.demand_waiters += 1
        self.cache.note_access(key)
        self.stats.counter(metrics.CACHE_DEMAND_MISSES).add()

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
        read-ahead (the paper's policy); managers may add more."""
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
        self.after_read(pid)

    # -- prefetch mechanics ---------------------------------------------------

    def start_prefetch(
        self,
        inode: Inode,
        file_block: int,
        origin: FetchOrigin,
        on_done: Optional[ReadyCallback] = None,
    ) -> bool:
        """Bring a block in ahead of need.  Returns False if the block is
        already present/in-flight or no cache room could be made."""
        key: BlockKey = (inode.ino, file_block)
        if self.cache.get(key) is not None:
            return False
        if self.cache.free_blocks == 0 and not self._evict_one():
            self.stats.counter(metrics.CACHE_PREFETCH_DENIED_NO_ROOM).add()
            return False
        self.cache.insert_fetching(key, origin)

        def completed(req: IORequest) -> None:
            if req.failed:
                # Dropped prefetch: discard the entry silently.  A later
                # demand access simply misses — the unhinted baseline, never
                # an error surfaced to the application.
                self.cache.discard_fetching(key)
                self.stats.counter(metrics.CACHE_PREFETCHES_DROPPED).add()
                self.on_prefetch_dropped(key)
                return
            self.cache.mark_valid(key)
            self.on_block_arrived(key)
            if on_done is not None:
                on_done()

        self.array.submit(inode.lbn_of_block(file_block), IOKind.PREFETCH, completed)
        return True

    def _make_room_for_demand(self) -> None:
        """Evict one block for an incoming demand fetch; overcommit if no
        victim is available (demand must not be refused)."""
        if self.cache.free_blocks == 0:
            self._evict_one()

    def _evict_one(self) -> bool:
        victim = self.find_victim()
        if victim is None:
            return False
        self.cache.evict(victim.key)
        self.on_block_evicted(victim.key)
        return True

    # -- policy hooks ----------------------------------------------------------

    def find_victim(self) -> Optional[CacheEntry]:
        """Choose an evictable entry (VALID, unpinned), or None."""
        raise NotImplementedError

    def consume_hints(
        self,
        pid: int,
        inode: Inode,
        first_block: int,
        last_block: int,
        offset: int,
        length: int,
    ) -> bool:
        """Match an arriving read against outstanding hints.  Returns True
        when the call was hinted.  Hint-ignorant managers return False."""
        return False

    def hint_segments(self, pid: int, segments: Sequence["object"]) -> int:
        """Accept hints (TIP ioctls).  Returns the number accepted."""
        return 0

    def cancel_all(self, pid: int) -> int:
        """TIPIO_CANCEL_ALL: drop this process's outstanding hints.
        Returns the number cancelled.  Already-issued prefetches proceed."""
        return 0

    def outstanding_hints(self, pid: int) -> int:
        """Hints still queued for ``pid``.  Hint-ignorant managers hold
        none (the restart protocol's drain check relies on this)."""
        return 0

    def on_block_arrived(self, key: BlockKey) -> None:
        """Called whenever any fetch completes (policy may react)."""

    def on_prefetch_dropped(self, key: BlockKey) -> None:
        """Called when a prefetch failed terminally (policy may react)."""

    def on_block_evicted(self, key: BlockKey) -> None:
        """Called after a resident block was evicted (policy may react)."""

    def after_read(self, pid: int) -> None:
        """Called at the end of every read call (policy may react)."""

    def finalize(self) -> None:
        """End-of-run accounting."""
        self.cache.finalize()
