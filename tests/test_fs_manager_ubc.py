"""Tests for the cache-manager mechanics and the baseline UBC behaviour.

A ``TipManager`` that was never given a hint *is* the stock Unified Buffer
Cache: LRU replacement plus sequential read-ahead.
"""


from repro.fs.cache import BlockCache, FetchOrigin
from repro.fs.filesystem import FileSystem
from repro.fs.readahead import SequentialReadAhead
from repro.params import ArrayParams, BLOCK_SIZE, CpuParams, DiskParams, TipParams
from repro.sim.clock import SimClock
from repro.sim.engine import EventEngine
from repro.sim.stats import StatRegistry
from repro.storage.striping import StripedArray
from repro.tip.manager import TipManager

PID = 1


def make_ubc(cache_blocks=8, file_blocks=64):
    fs = FileSystem()
    fs.create("f", bytes(file_blocks * BLOCK_SIZE))
    clock = SimClock()
    engine = EventEngine(clock)
    stats = StatRegistry()
    array = StripedArray(
        fs.total_blocks, ArrayParams(), DiskParams(), CpuParams(), engine, stats
    )
    cache = BlockCache(cache_blocks, stats)
    manager = TipManager(fs, array, cache, SequentialReadAhead(), stats, TipParams())
    return manager, fs.lookup("f"), engine, stats


def drain(engine):
    while engine.advance_to_next():
        pass


class TestAccessBlock:
    def test_miss_then_hit(self):
        manager, inode, engine, stats = make_ubc()
        ready = []
        assert not manager.access_block(inode, 0, lambda: ready.append(1))
        drain(engine)
        assert ready == [1]
        assert manager.access_block(inode, 0, lambda: ready.append(2))
        assert ready == [1]  # hit: callback not invoked

    def test_join_inflight_fetch(self):
        manager, inode, engine, stats = make_ubc()
        ready = []
        manager.access_block(inode, 0, lambda: ready.append("a"))
        manager.access_block(inode, 0, lambda: ready.append("b"))
        assert stats.get("cache.demand_joins_inflight") == 1
        drain(engine)
        assert sorted(ready) == ["a", "b"]

    def test_demand_evicts_lru_when_full(self):
        manager, inode, engine, stats = make_ubc(cache_blocks=2)
        for block in (0, 1):
            manager.access_block(inode, block, lambda: None)
        drain(engine)
        manager.access_block(inode, 2, lambda: None)
        drain(engine)
        assert not manager.peek_valid(inode, 0)  # LRU victim
        assert manager.peek_valid(inode, 1)
        assert manager.peek_valid(inode, 2)

    def test_demand_overcommits_when_no_victim(self):
        manager, inode, engine, stats = make_ubc(cache_blocks=1)
        # Two concurrent demand fetches: the second finds no VALID victim.
        manager.access_block(inode, 0, lambda: None)
        manager.access_block(inode, 1, lambda: None)
        assert stats.get("cache.overcommitted_inserts") == 1
        drain(engine)


class TestPrefetchMechanics:
    def test_start_prefetch_and_peek(self):
        manager, inode, engine, stats = make_ubc()
        assert manager.start_prefetch(inode, 3, FetchOrigin.READAHEAD)
        assert not manager.peek_valid(inode, 3)  # still in flight
        drain(engine)
        assert manager.peek_valid(inode, 3)

    def test_prefetch_skips_present_block(self):
        manager, inode, engine, _ = make_ubc()
        manager.start_prefetch(inode, 3, FetchOrigin.READAHEAD)
        assert not manager.start_prefetch(inode, 3, FetchOrigin.READAHEAD)

    def test_prefetch_denied_without_victim(self):
        manager, inode, engine, stats = make_ubc(cache_blocks=1)
        manager.access_block(inode, 0, lambda: None)  # pins the only slot
        assert not manager.start_prefetch(inode, 1, FetchOrigin.READAHEAD)
        assert stats.get("cache.prefetch_denied_no_room") == 1
        drain(engine)

    def test_prefetch_evicts_when_full_of_valid(self):
        manager, inode, engine, _ = make_ubc(cache_blocks=1)
        manager.access_block(inode, 0, lambda: None)
        drain(engine)
        assert manager.start_prefetch(inode, 1, FetchOrigin.READAHEAD)
        drain(engine)
        assert not manager.peek_valid(inode, 0)
        assert manager.peek_valid(inode, 1)


class TestReadCallCompleted:
    def test_unhinted_sequential_reads_trigger_readahead(self):
        manager, inode, engine, stats = make_ubc(cache_blocks=32)
        from repro.fs.readahead import ReadAheadState

        state = ReadAheadState()
        for block in range(4):
            manager.read_call_completed(PID, state, inode, block, block,
                                        hinted=False)
        drain(engine)
        assert stats.get("cache.prefetched_blocks") > 0

    def test_hinted_reads_do_not_invoke_readahead(self):
        manager, inode, engine, stats = make_ubc(cache_blocks=32)
        from repro.fs.readahead import ReadAheadState

        state = ReadAheadState()
        for block in range(4):
            manager.read_call_completed(PID, state, inode, block, block,
                                        hinted=True)
        drain(engine)
        assert stats.get("cache.prefetched_blocks") == 0
