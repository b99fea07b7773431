"""Tests for the block cache mechanism and its Table 5 accounting."""

import pytest

from repro.fs.cache import BlockCache, EntryState, FetchOrigin
from repro.fs.filesystem import FileSystem
from repro.fs.readahead import SequentialReadAhead
from repro.params import ArrayParams, CpuParams, DiskParams, TipParams
from repro.sim.clock import SimClock
from repro.sim.engine import EventEngine
from repro.sim.stats import StatRegistry
from repro.storage.striping import StripedArray
from repro.tip.manager import TipManager


@pytest.fixture
def stats():
    return StatRegistry()


@pytest.fixture
def cache(stats):
    return BlockCache(4, stats)


@pytest.fixture
def manager(cache, stats):
    """A manager that is never given a hint: its victim is the LRU one."""
    fs = FileSystem()
    array = StripedArray(
        8, ArrayParams(), DiskParams(), CpuParams(), EventEngine(SimClock()), stats
    )
    return TipManager(fs, array, cache, SequentialReadAhead(), stats, TipParams())


KEY = (0, 0)
KEY2 = (0, 1)


class TestLifecycle:
    def test_insert_fetching_pinned(self, cache):
        entry = cache.insert_fetching(KEY, FetchOrigin.DEMAND)
        assert entry.state is EntryState.FETCHING
        assert entry.pinned == 1
        assert not cache.contains_valid(KEY)

    def test_mark_valid_unpins(self, cache):
        cache.insert_fetching(KEY, FetchOrigin.DEMAND)
        entry = cache.mark_valid(KEY)
        assert entry.state is EntryState.VALID
        assert entry.pinned == 0
        assert cache.contains_valid(KEY)

    def test_mark_valid_unknown_returns_none(self, cache):
        assert cache.mark_valid(KEY) is None

    def test_free_blocks(self, cache):
        assert cache.free_blocks == 4
        cache.insert_fetching(KEY, FetchOrigin.DEMAND)
        assert cache.free_blocks == 3

    def test_overcommit_counted(self, cache, stats):
        for i in range(5):
            cache.insert_fetching((0, i), FetchOrigin.DEMAND)
        assert stats.get("cache.overcommitted_inserts") == 1


class TestTable5Accounting:
    def test_fully_prefetched_counted_at_first_access(self, cache, stats):
        cache.insert_fetching(KEY, FetchOrigin.HINT)
        cache.mark_valid(KEY)
        # Not yet requested: could still become "unused".
        assert stats.get("cache.prefetched_fully") == 0
        cache.note_access(KEY)
        assert stats.get("cache.prefetched_fully") == 1
        cache.note_access(KEY)
        assert stats.get("cache.prefetched_fully") == 1  # only once
        assert stats.get("cache.prefetched_partial") == 0

    def test_partially_prefetched(self, cache, stats):
        entry = cache.insert_fetching(KEY, FetchOrigin.READAHEAD)
        entry.demand_waiters += 1  # application blocked mid-prefetch
        cache.mark_valid(KEY)
        assert stats.get("cache.prefetched_partial") == 1

    def test_demand_fetch_not_counted_as_prefetch(self, cache, stats):
        cache.insert_fetching(KEY, FetchOrigin.DEMAND)
        cache.mark_valid(KEY)
        assert stats.get("cache.prefetched_blocks") == 0
        assert stats.get("cache.prefetched_fully") == 0

    def test_unused_prefetch_on_evict(self, cache, stats):
        cache.insert_fetching(KEY, FetchOrigin.HINT)
        cache.mark_valid(KEY)
        cache.evict(KEY)
        assert stats.get("cache.prefetched_unused") == 1

    def test_used_prefetch_not_unused(self, cache, stats):
        cache.insert_fetching(KEY, FetchOrigin.HINT)
        cache.mark_valid(KEY)
        cache.note_access(KEY)
        cache.evict(KEY)
        assert stats.get("cache.prefetched_unused") == 0

    def test_finalize_counts_residual_unused(self, cache, stats):
        cache.insert_fetching(KEY, FetchOrigin.HINT)
        cache.mark_valid(KEY)
        cache.insert_fetching(KEY2, FetchOrigin.HINT)
        cache.mark_valid(KEY2)
        cache.note_access(KEY2)
        cache.finalize()
        assert stats.get("cache.prefetched_unused") == 1
        assert len(cache) == 0

    def test_block_reads_and_reuses(self, cache, stats):
        cache.insert_fetching(KEY, FetchOrigin.DEMAND)
        cache.mark_valid(KEY)
        cache.note_access(KEY)
        cache.note_access(KEY)
        cache.note_access(KEY)
        assert stats.get("cache.block_reads") == 3
        assert stats.get("cache.block_reuses") == 2


class TestLruOrdering:
    def _fill_valid(self, cache, n):
        for i in range(n):
            cache.insert_fetching((0, i), FetchOrigin.DEMAND)
            cache.mark_valid((0, i))

    def test_lru_victim_is_least_recent(self, cache, manager):
        self._fill_valid(cache, 3)
        cache.note_access((0, 0))  # 0 becomes most recent
        victim = manager.find_victim()
        assert victim.key == (0, 1)

    def test_lru_victim_skips_pinned(self, cache, manager):
        self._fill_valid(cache, 2)
        cache.get((0, 0)).pinned += 1
        assert manager.find_victim().key == (0, 1)
        cache.get((0, 0)).pinned -= 1
        assert manager.find_victim().key == (0, 0)

    def test_lru_victim_skips_fetching(self, cache, manager):
        cache.insert_fetching((0, 0), FetchOrigin.DEMAND)  # stays FETCHING
        cache.insert_fetching((0, 1), FetchOrigin.DEMAND)
        cache.mark_valid((0, 1))
        assert manager.find_victim().key == (0, 1)

    def test_no_victim_when_all_pinned(self, cache, manager):
        cache.insert_fetching(KEY, FetchOrigin.DEMAND)
        assert manager.find_victim() is None

    def test_entries_in_lru_order(self, cache):
        self._fill_valid(cache, 3)
        cache.note_access((0, 0))
        keys = [e.key for e in cache.entries()]
        assert keys == [(0, 1), (0, 2), (0, 0)]
