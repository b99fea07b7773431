"""The file block cache.

Pure mechanism: entries, states, LRU ordering, pinning of in-flight
blocks, and the Table 5 accounting (fully / partially / unused prefetched
blocks, cache block reuses).  *Policy* — which block to evict, what to
prefetch — lives in the cache manager, :mod:`repro.tip.manager`.

Entries are keyed by ``(ino, file_block)``.  The cache stores presence
metadata only; file bytes live in the inode and are copied to the
application at read time.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from typing import Dict, Iterator, Optional, Tuple

from repro.sim import metrics
from repro.sim.stats import StatRegistry

BlockKey = Tuple[int, int]  # (ino, file_block)


class EntryState(enum.Enum):
    """Lifecycle of a cache entry."""

    #: Disk request in flight.
    FETCHING = "fetching"
    #: Data resident.
    VALID = "valid"


class FetchOrigin(enum.Enum):
    """What caused the block to be brought in — drives Table 5 rows."""

    DEMAND = "demand"
    READAHEAD = "readahead"
    HINT = "hint"

    @property
    def is_prefetch(self) -> bool:
        return self is not FetchOrigin.DEMAND


class CacheEntry:
    """Metadata for one cached block."""

    __slots__ = (
        "key",
        "state",
        "origin",
        "accessed",
        "access_count",
        "pinned",
        "demand_waiters",
        "arrived_clean",
    )

    def __init__(self, key: BlockKey, origin: FetchOrigin) -> None:
        self.key = key
        self.state = EntryState.FETCHING
        self.origin = origin
        #: True once the application has read this block from the cache.
        self.accessed = False
        #: Number of application accesses (reuse = access_count - 1).
        self.access_count = 0
        #: Pinned entries may not be evicted (the fetch is in flight).
        self.pinned = 0

        #: Number of threads currently blocked waiting for this fetch —
        #: a fetch someone is waiting on is a *partial* prefetch (Table 5).
        self.demand_waiters = 0
        #: Prefetch completed before any request; whether it becomes a
        #: *fully prefetched* block (Table 5) is decided at first access —
        #: never-accessed prefetches are *unused*, not fully.
        self.arrived_clean = False


class BlockCache:
    """Fixed-capacity block cache with LRU ordering and Table 5 stats."""

    def __init__(self, capacity_blocks: int, stats: StatRegistry) -> None:
        self.capacity = capacity_blocks
        self.stats = stats
        self._entries: "OrderedDict[BlockKey, CacheEntry]" = OrderedDict()

    # -- lookup --------------------------------------------------------------

    def get(self, key: BlockKey) -> Optional[CacheEntry]:
        """The entry for ``key`` (any state), without touching LRU order."""
        return self._entries.get(key)

    def contains_valid(self, key: BlockKey) -> bool:
        """True if the block's data is resident right now."""
        entry = self._entries.get(key)
        return entry is not None and entry.state is EntryState.VALID

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def free_blocks(self) -> int:
        return max(0, self.capacity - len(self._entries))

    def entries(self) -> Iterator[CacheEntry]:
        """Entries in LRU order (least recently used first)."""
        return iter(self._entries.values())

    # -- state transitions ----------------------------------------------------

    def insert_fetching(self, key: BlockKey, origin: FetchOrigin) -> CacheEntry:
        """Create a FETCHING entry for a block being brought in.

        Caller must have made room first (see :attr:`free_blocks`); demand
        fetches may overcommit, which is recorded but allowed.
        """
        if len(self._entries) >= self.capacity:
            self.stats.bump(metrics.CACHE_OVERCOMMITTED_INSERTS)
        entry = CacheEntry(key, origin)
        entry.pinned += 1  # in-flight blocks are not evictable
        self._entries[key] = entry
        self._entries.move_to_end(key)
        if origin.is_prefetch:
            self.stats.bump(metrics.CACHE_PREFETCHED_BLOCKS)
        return entry

    def mark_valid(self, key: BlockKey) -> Optional[CacheEntry]:
        """Record fetch completion.  Returns the entry, or None if it was
        discarded while in flight (cannot normally happen: in-flight entries
        are pinned)."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        entry.state = EntryState.VALID
        entry.pinned -= 1
        if entry.origin.is_prefetch:
            if entry.demand_waiters > 0:
                # The application blocked on this block mid-prefetch.
                self.stats.bump(metrics.CACHE_PREFETCHED_PARTIAL)
            else:
                entry.arrived_clean = True
        return entry

    def discard_fetching(self, key: BlockKey) -> None:
        """Drop the FETCHING entry of a prefetch whose fetch failed
        terminally.

        The degraded-mode path for prefetches: the block never arrives, the
        entry must not linger pinned forever.  A FETCHING entry is pinned,
        so it is still there, and still FETCHING, when its fetch fails.
        """
        del self._entries[key]
        self.stats.bump(metrics.CACHE_FETCH_FAILURES)

    def note_access(self, key: BlockKey) -> CacheEntry:
        """Record an application read of a resident (or arriving) block."""
        entry = self._entries[key]
        entry.access_count += 1
        entry.accessed = True
        if entry.arrived_clean:
            # First request of a prefetch that had fully completed.
            entry.arrived_clean = False
            self.stats.bump(metrics.CACHE_PREFETCHED_FULLY)
        if entry.access_count > 1:
            self.stats.bump(metrics.CACHE_BLOCK_REUSES)
        self._entries.move_to_end(key)
        self.stats.bump(metrics.CACHE_BLOCK_READS)
        return entry

    def note_prefetch_shed(self, origin: FetchOrigin) -> None:
        """Record a prefetch the manager declined to start while the array
        was degraded (load shedding, not a failure)."""
        self.stats.bump(metrics.CACHE_SHED_DEGRADED_PREFIX + origin.value)

    def evict(self, key: BlockKey) -> None:
        """Remove a VALID, unpinned entry; accounts unused prefetches."""
        entry = self._entries.pop(key)
        self._account_departure(entry)

    def finalize(self) -> None:
        """End-of-run accounting: residual never-accessed prefetched blocks
        count as unused (Table 5's Unused column)."""
        for entry in self._entries.values():
            self._account_departure(entry)
        self._entries.clear()

    def _account_departure(self, entry: CacheEntry) -> None:
        if entry.origin.is_prefetch and not entry.accessed:
            self.stats.bump(metrics.CACHE_PREFETCHED_UNUSED)
