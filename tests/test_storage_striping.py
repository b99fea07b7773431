"""Tests for the striping pseudodevice."""

import pytest

from repro.errors import InvalidBlockError
from repro.params import (
    BLOCKS_PER_STRIPE_UNIT,
    ArrayParams,
    CpuParams,
    DiskParams,
)
from repro.sim.clock import SimClock
from repro.sim.engine import EventEngine
from repro.sim.stats import StatRegistry
from repro.storage.request import IOKind
from repro.storage.striping import StripedArray


def make_array(nblocks=1024, **array_kwargs):
    clock = SimClock()
    engine = EventEngine(clock)
    stats = StatRegistry()
    array = StripedArray(
        nblocks,
        ArrayParams(**array_kwargs),
        DiskParams(),
        CpuParams(),
        engine,
        stats,
    )
    return array, engine, stats


def drain(engine):
    while engine.advance_to_next():
        pass


class TestGeometry:
    def test_stripe_unit_must_be_block_multiple(self):
        with pytest.raises(InvalidBlockError):
            make_array(stripe_unit=1000)

    def test_needs_at_least_one_disk(self):
        with pytest.raises(InvalidBlockError):
            make_array(ndisks=0)

    def test_blocks_within_unit_on_same_disk(self):
        array, _, _ = make_array(ndisks=4)
        disks = {array.disk_of(lbn) for lbn in range(BLOCKS_PER_STRIPE_UNIT)}
        assert len(disks) == 1

    def test_consecutive_units_round_robin(self):
        array, _, _ = make_array(ndisks=4)
        unit_disks = [
            array.disk_of(u * BLOCKS_PER_STRIPE_UNIT) for u in range(8)
        ]
        assert unit_disks == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_mapping_is_injective(self):
        array, _, _ = make_array(nblocks=512, ndisks=3)
        seen = set()
        for lbn in range(512):
            key = array.map_block(lbn)
            assert key not in seen
            seen.add(key)

    def test_out_of_range_lbn_rejected(self):
        array, _, _ = make_array(nblocks=16)
        with pytest.raises(InvalidBlockError):
            array.map_block(16)
        with pytest.raises(InvalidBlockError):
            array.map_block(-1)

    def test_single_disk_array(self):
        array, _, _ = make_array(ndisks=1)
        assert all(array.disk_of(lbn) == 0 for lbn in range(0, 200, 17))


class TestRequestPath:
    def test_demand_completes_with_callback(self):
        array, engine, _ = make_array()
        done = []
        array.submit(5, IOKind.DEMAND, done.append)
        drain(engine)
        assert len(done) == 1
        assert done[0].done
        assert done[0].notify_time == done[0].finish_time

    def test_coalescing_same_block(self):
        array, engine, stats = make_array()
        done = []
        first = array.submit(5, IOKind.DEMAND, lambda r: done.append("a"))
        second = array.submit(5, IOKind.DEMAND, lambda r: done.append("b"))
        assert first is second
        drain(engine)
        assert done == ["a", "b"]
        assert stats.get("array.completed") == 1

    def test_outstanding_tracking(self):
        array, engine, _ = make_array()
        array.submit(5, IOKind.DEMAND, lambda r: None)
        assert array.outstanding_for(5) is not None
        assert array.total_outstanding == 1
        drain(engine)
        assert array.outstanding_for(5) is None
        assert array.total_outstanding == 0

    def test_demand_promotes_outstanding_prefetch(self):
        array, engine, _ = make_array()
        # Make the target disk busy so the prefetch queues.
        blocker_lbn = 0
        target_lbn = BLOCKS_PER_STRIPE_UNIT * 4  # same disk 0, next unit
        array.submit(blocker_lbn, IOKind.DEMAND, lambda r: None)
        prefetch = array.submit(target_lbn, IOKind.PREFETCH, lambda r: None)
        assert not prefetch.is_demand
        array.submit(target_lbn, IOKind.DEMAND, lambda r: None)
        assert prefetch.is_demand
        drain(engine)

    def test_parallelism_across_disks(self):
        """Blocks on different disks overlap in time."""
        array, engine, _ = make_array(ndisks=4)
        done = []
        for unit in range(4):
            array.submit(unit * BLOCKS_PER_STRIPE_UNIT, IOKind.DEMAND,
                         lambda r: done.append(r))
        drain(engine)
        finish_times = {r.finish_time for r in done}
        # All four serviced concurrently: identical finish times.
        assert len(finish_times) == 1


class TestFigure6Knobs:
    def test_completion_delay_factor(self):
        fast, fast_engine, _ = make_array()
        slow, slow_engine, _ = make_array(completion_delay_factor=2.0)
        results = {}
        fast.submit(5, IOKind.DEMAND, lambda r: results.setdefault("fast", r))
        slow.submit(5, IOKind.DEMAND, lambda r: results.setdefault("slow", r))
        drain(fast_engine)
        drain(slow_engine)
        assert results["slow"].notify_time == pytest.approx(
            2 * results["fast"].notify_time, rel=0.01
        )

    def test_delay_applies_to_notification_not_media(self):
        array, engine, _ = make_array(completion_delay_factor=3.0)
        done = []
        array.submit(5, IOKind.DEMAND, done.append)
        drain(engine)
        req = done[0]
        assert req.notify_time > req.finish_time

    def test_prefetch_limit_holds_excess(self):
        array, engine, stats = make_array(ndisks=1, max_prefetches_per_disk=1)
        for lbn in (0, 8, 16):
            array.submit(lbn, IOKind.PREFETCH, lambda r: None)
        assert stats.get("array.prefetches_held") == 2
        drain(engine)
        assert stats.get("array.completed") == 3

    def test_held_prefetch_promoted_by_demand(self):
        array, engine, _ = make_array(ndisks=1, max_prefetches_per_disk=1)
        array.submit(0, IOKind.PREFETCH, lambda r: None)
        held = array.submit(8, IOKind.PREFETCH, lambda r: None)
        array.submit(8, IOKind.DEMAND, lambda r: None)
        assert held.is_demand
        drain(engine)
        assert held.done


def test_an_unknown_redundancy_scheme_is_refused():
    with pytest.raises(InvalidBlockError, match="unknown redundancy scheme 'mirror'"):
        make_array(redundancy="mirror")
