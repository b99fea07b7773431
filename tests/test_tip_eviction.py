"""Focused tests of TIP's cost-benefit eviction policy."""

from repro.fs.cache import BlockCache
from repro.fs.filesystem import FileSystem
from repro.fs.readahead import SequentialReadAhead
from repro.params import (
    ArrayParams,
    BLOCK_SIZE,
    CpuParams,
    DiskParams,
    TipParams,
)
from repro.sim.clock import SimClock
from repro.sim.engine import EventEngine
from repro.sim.stats import StatRegistry
from repro.storage.striping import StripedArray
from repro.tip.manager import TipManager

PID = 1


def make_tip(cache_blocks=4, horizon=8, file_blocks=128):
    fs = FileSystem()
    fs.create("f", bytes(file_blocks * BLOCK_SIZE))
    clock = SimClock()
    engine = EventEngine(clock)
    stats = StatRegistry()
    array = StripedArray(
        fs.total_blocks, ArrayParams(), DiskParams(), CpuParams(),
        engine, stats,
    )
    cache = BlockCache(cache_blocks, stats)
    params = TipParams(prefetch_horizon=horizon, max_inflight_per_disk=16)
    manager = TipManager(fs, array, cache, SequentialReadAhead(), stats, params)
    return manager, fs.lookup("f"), engine, stats


def fill_valid(manager, inode, blocks, engine):
    for b in blocks:
        manager.access_block(inode, b, lambda: None)
    while engine.advance_to_next():
        pass


def hint_blocks(manager, inode, blocks):
    for b in blocks:
        manager.disclose(PID, inode, b * BLOCK_SIZE, BLOCK_SIZE)


class TestVictimSelection:
    def test_prefers_unhinted_lru(self):
        manager, inode, engine, _ = make_tip()
        fill_valid(manager, inode, [60, 61, 62, 63], engine)
        # Hint (and thereby protect) blocks 61-63 but not 60.
        hint_blocks(manager, inode, [61, 62, 63])
        victim = manager.find_victim()
        assert victim is not None
        assert victim.key == (inode.ino, 60)

    def test_hinted_within_horizon_protected(self):
        manager, inode, engine, _ = make_tip(horizon=8)
        fill_valid(manager, inode, [60, 61], engine)
        hint_blocks(manager, inode, [60, 61])
        # Both hinted near the queue front: no victim available.
        assert manager.find_victim() is None

    def test_hinted_beyond_horizon_evictable(self):
        """Blocks whose hints sit far beyond the prefetch horizon may be
        displaced by prefetches for the front of the queue."""
        manager, inode, engine, stats = make_tip(cache_blocks=2, horizon=4)
        # Two demand fetches in flight fill the cache: nothing is evictable,
        # so the prefetches the disclosures ask for are refused for now.
        for b in (100, 101):
            manager.access_block(inode, b, lambda: None)
        # Two disclosures (a segment is one byte range, so the batch this
        # test used to pass in one call is two calls): 30 near-future
        # blocks, then the two being fetched.
        manager.disclose(PID, inode, 0, 30 * BLOCK_SIZE)
        manager.disclose(PID, inode, 100 * BLOCK_SIZE, 2 * BLOCK_SIZE)
        assert stats.get("tip.hinted_evictions") == 0
        while engine.advance_to_next():
            pass
        # Prefetching the queue front evicted the far-future hinted blocks.
        assert stats.get("tip.hinted_evictions") >= 1
        assert not manager.peek_valid(inode, 100) or \
            not manager.peek_valid(inode, 101)

    def test_closest_hint_position_counts(self):
        """A block hinted both soon and late is protected by the soon one."""
        manager, inode, engine, _ = make_tip(cache_blocks=1, horizon=4)
        fill_valid(manager, inode, [100], engine)
        hint_blocks(manager, inode, [100] + list(range(0, 20)) + [100])
        assert manager.find_victim() is None


class TestQueueHygiene:
    def test_consumed_hints_release_protection(self):
        manager, inode, engine, _ = make_tip()
        fill_valid(manager, inode, [60], engine)
        hint_blocks(manager, inode, [60])
        assert manager.find_victim() is None
        manager.consume_hints(PID, inode, 60, 60, BLOCK_SIZE)
        victim = manager.find_victim()
        assert victim is not None and victim.key == (inode.ino, 60)

    def test_cancel_releases_protection(self):
        manager, inode, engine, _ = make_tip()
        fill_valid(manager, inode, [60], engine)
        hint_blocks(manager, inode, [60])
        manager.cancel_all(PID)
        assert manager.find_victim() is not None

    def test_stale_entries_eventually_dropped(self):
        manager, inode, engine, stats = make_tip(file_blocks=128)
        hint_blocks(manager, inode, [99])  # never read
        state = manager._proc(PID)
        state.queue[0].skips = manager.STALE_SKIP_LIMIT + 1
        manager.consume_hints(PID, inode, 0, 0, 64)
        assert stats.get("tip.hints_stale_dropped") == 1
        assert manager.outstanding_hints(PID) == 0
