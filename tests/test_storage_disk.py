"""Tests for the single-disk model."""

import pytest

from repro.errors import InvalidBlockError
from repro.params import CpuParams, DiskParams
from repro.sim.clock import SimClock
from repro.sim.engine import EventEngine
from repro.sim.stats import StatRegistry
from repro.storage.disk import Disk
from repro.storage.request import IOKind, IORequest


def make_disk(nblocks=1000, params=None):
    clock = SimClock()
    engine = EventEngine(clock)
    stats = StatRegistry()
    done = []
    disk = Disk(
        0,
        nblocks,
        params or DiskParams(),
        CpuParams(),
        engine,
        stats,
        on_finish=done.append,
    )
    return disk, engine, stats, done


def request_for(disk, block, kind=IOKind.DEMAND):
    req = IORequest(block, kind)
    req.disk_id = disk.disk_id
    req.physical_block = block
    return req


def drain(engine):
    while engine.advance_to_next():
        pass


class TestDiskBasics:
    def test_needs_positive_size(self):
        with pytest.raises(InvalidBlockError):
            make_disk(nblocks=0)

    def test_block_out_of_range_rejected(self):
        disk, _, _, _ = make_disk(nblocks=10)
        with pytest.raises(InvalidBlockError):
            disk.submit(request_for(disk, 10))

    def test_single_request_completes(self):
        disk, engine, _, done = make_disk()
        disk.submit(request_for(disk, 5))
        assert disk.busy
        drain(engine)
        assert len(done) == 1
        assert done[0].lbn == 5
        assert not disk.busy

    def test_timestamps_recorded(self):
        disk, engine, _, done = make_disk()
        disk.submit(request_for(disk, 5))
        drain(engine)
        req = done[0]
        assert req.submit_time == 0
        assert req.start_time == 0
        assert req.finish_time > req.start_time


class TestServiceTimes:
    def test_random_access_pays_positioning(self):
        disk, engine, _, done = make_disk()
        disk.submit(request_for(disk, 500))
        drain(engine)
        cpu = CpuParams()
        p = DiskParams()
        expected = cpu.cycles(p.overhead_s + p.positioning_s + p.media_transfer_s(8192))
        assert done[0].finish_time == expected

    def test_sequential_access_skips_positioning(self):
        disk, engine, _, done = make_disk()
        disk.submit(request_for(disk, 100))
        drain(engine)
        first_time = done[0].finish_time
        # Block 101 is in the track buffer after reading block 100.
        disk.submit(request_for(disk, 101))
        drain(engine)
        second_service = done[1].finish_time - first_time
        assert second_service < first_time

    def test_track_buffer_hit_is_fastest(self):
        disk, engine, stats, done = make_disk()
        disk.submit(request_for(disk, 100))
        drain(engine)
        disk.submit(request_for(disk, 105))  # within the 16-block buffer
        drain(engine)
        assert stats.get("disk0.buffer_hits") == 1

    def test_far_jump_is_random_again(self):
        disk, engine, stats, _ = make_disk()
        for block in (100, 500):
            disk.submit(request_for(disk, block))
            drain(engine)
        assert stats.get("disk0.random_accesses") == 2


class TestQueueing:
    def test_fifo_among_demand(self):
        disk, engine, _, done = make_disk()
        for block in (10, 20, 30):
            disk.submit(request_for(disk, block))
        drain(engine)
        assert [r.lbn for r in done] == [10, 20, 30]

    def test_demand_bypasses_queued_prefetch(self):
        disk, engine, _, done = make_disk()
        disk.submit(request_for(disk, 10))  # becomes active
        disk.submit(request_for(disk, 20, IOKind.PREFETCH))
        disk.submit(request_for(disk, 30))  # demand jumps the prefetch
        drain(engine)
        assert [r.lbn for r in done] == [10, 30, 20]

    def test_queued_count(self):
        disk, _, _, _ = make_disk()
        disk.submit(request_for(disk, 1))
        disk.submit(request_for(disk, 2))
        disk.submit(request_for(disk, 3, IOKind.PREFETCH))
        assert disk.queued == 2
        assert disk.queued_prefetches() == 1

    def test_promote_queued_prefetch(self):
        disk, engine, _, done = make_disk()
        disk.submit(request_for(disk, 10))
        prefetch = request_for(disk, 20, IOKind.PREFETCH)
        disk.submit(prefetch)
        disk.submit(request_for(disk, 30))
        assert disk.promote_queued(20)
        assert prefetch.is_demand
        drain(engine)
        # Promoted request now competes FIFO with the other demand.
        assert [r.lbn for r in done] == [10, 30, 20]

    def test_promote_missing_returns_false(self):
        disk, _, _, _ = make_disk()
        assert not disk.promote_queued(99)


@pytest.mark.parametrize("readahead, regimes", [(0, (2, 0)), (1, (1, 1))])
def test_the_next_block_is_a_buffer_hit_or_a_positioned_access(readahead, regimes):
    """Two regimes: with any read-ahead the block after a media access is
    in the track buffer; without, it pays the positioning again."""
    disk, engine, stats, done = make_disk(params=DiskParams(track_readahead_blocks=readahead))
    for block in (100, 101):
        disk.submit(request_for(disk, block))
        drain(engine)
    assert (stats.get("disk0.random_accesses"), stats.get("disk0.buffer_hits")) == regimes
    services = [r.finish_time - r.start_time for r in done]
    assert (services[0] == services[1]) is (readahead == 0)
