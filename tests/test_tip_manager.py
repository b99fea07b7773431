"""Tests for the TIP informed prefetching and caching manager."""

import pytest

from repro.fs.cache import BlockCache
from repro.fs.filesystem import FileSystem
from repro.fs.readahead import ReadAheadState, SequentialReadAhead
from repro.harness.runner import (
    ExperimentConfig,
    Variant,
    add_system_observer,
    remove_system_observer,
    run_experiment,
)
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
from tests.conftest import make_system

PID = 1


def make_tip(cache_blocks=16, nfiles=2, file_blocks=32, tip_params=None):
    fs = FileSystem()
    blob = bytes(file_blocks * BLOCK_SIZE)  # shared until a file is written
    for i in range(nfiles):
        fs.create(f"f{i}", blob)
    clock = SimClock()
    engine = EventEngine(clock)
    stats = StatRegistry()
    array = StripedArray(
        fs.total_blocks, ArrayParams(), DiskParams(), CpuParams(), engine, stats
    )
    cache = BlockCache(cache_blocks, stats)
    manager = TipManager(
        fs, array, cache, SequentialReadAhead(), stats, tip_params or TipParams()
    )
    return manager, fs, engine, stats


def hint(manager, fs, path, offset, length):
    """Disclose one in-file segment of ``path`` straight to TIP."""
    return manager.disclose(PID, fs.lookup(path), offset, length)


def make_kernel(file_blocks):
    """A wired system whose one file, ``f0``, has ``file_blocks`` blocks:
    ``Kernel.hint_from`` is where outside hints are validated and clamped."""
    fs = FileSystem()
    fs.create("f0", bytes(file_blocks * BLOCK_SIZE))
    system = make_system(fs)
    return system.kernel, fs.lookup("f0"), system.stats


def drain(engine):
    while engine.advance_to_next():
        pass


class TestHintIntake:
    def test_hint_expands_to_blocks(self):
        manager, fs, _, stats = make_tip()
        accepted = hint(manager, fs, "f0", 0, 3 * BLOCK_SIZE)
        assert accepted == 3
        assert stats.get("tip.hinted_blocks") == 3

    def test_zero_length_hint_accepted_empty(self):
        kernel, inode, stats = make_kernel(file_blocks=2)
        assert kernel.hint_from(PID, inode, 0, 0) == 0
        assert stats.get("app.hint_calls_unresolvable") == 1
        assert stats.get("tip.hint_calls") == 0  # never reached TIP

    def test_hint_beyond_eof_clamped(self):
        kernel, inode, stats = make_kernel(file_blocks=2)
        assert kernel.hint_from(PID, inode, 0, 10 * BLOCK_SIZE) == 2
        assert stats.get("app.hint_calls_unresolvable") == 0
        assert kernel.manager.lifecycle.disclosed_keys() == [
            (inode.ino, 0), (inode.ino, 1)]

    def test_hint_offset_past_eof_empty(self):
        kernel, inode, stats = make_kernel(file_blocks=2)
        assert kernel.hint_from(PID, inode, 5 * BLOCK_SIZE, 100) == 0
        assert kernel.hint_from(PID, inode, -1, 100) == 0
        assert stats.get("app.hint_calls") == 2
        assert stats.get("app.hint_calls_unresolvable") == 2
        assert kernel.manager.outstanding_hints(PID) == 0

    def test_ignore_hints_mode(self):
        manager, fs, _, stats = make_tip(tip_params=TipParams(ignore_hints=True))
        assert hint(manager, fs, "f0", 0, BLOCK_SIZE) == 0
        assert manager.outstanding_hints(PID) == 0
        assert stats.get("tip.hints_ignored") == 1
        # The baseline UBC: nothing to cancel, no read is ever hinted.
        assert manager.cancel_all(PID) == 0
        assert not manager.consume_hints(PID, fs.lookup("f0"), 0, 0, 10)


class TestPrefetching:
    def test_hints_trigger_prefetch(self):
        manager, fs, engine, stats = make_tip()
        hint(manager, fs, "f0", 0, 4 * BLOCK_SIZE)
        assert stats.get("tip.prefetches_issued") == 4
        drain(engine)
        inode = fs.lookup("f0")
        assert all(manager.peek_valid(inode, b) for b in range(4))

    def test_prefetch_depth_limited_by_horizon(self):
        params = TipParams(prefetch_horizon=4, max_inflight_per_disk=16)
        manager, fs, _, stats = make_tip(cache_blocks=64, tip_params=params)
        hint(manager, fs, "f0", 0, 20 * BLOCK_SIZE)
        assert stats.get("tip.prefetches_issued") == 4

    def test_inflight_per_disk_limit(self):
        params = TipParams(prefetch_horizon=64, max_inflight_per_disk=1)
        manager, fs, _, stats = make_tip(cache_blocks=64, tip_params=params)
        # f0's first 8 blocks live in one stripe unit = one disk.
        hint(manager, fs, "f0", 0, 8 * BLOCK_SIZE)
        assert stats.get("tip.prefetches_issued") == 1

    def test_more_prefetches_after_arrival(self):
        params = TipParams(prefetch_horizon=64, max_inflight_per_disk=1)
        manager, fs, engine, stats = make_tip(cache_blocks=64, tip_params=params)
        hint(manager, fs, "f0", 0, 4 * BLOCK_SIZE)
        drain(engine)
        assert stats.get("tip.prefetches_issued") == 4


class TestConsume:
    def test_a_process_without_hints_has_no_depth(self):
        manager, _, _, _ = make_tip()
        assert manager.effective_depth(PID + 1) == 0

    def test_matching_read_consumes(self):
        manager, fs, _, stats = make_tip()
        inode = fs.lookup("f0")
        hint(manager, fs, "f0", 0, 2 * BLOCK_SIZE)
        hinted = manager.consume_hints(PID, inode, 0, 1, 2 * BLOCK_SIZE)
        assert hinted
        assert stats.get("tip.hinted_read_calls") == 1
        assert stats.get("tip.hints_consumed") == 2
        assert manager.outstanding_hints(PID) == 0

    def test_unhinted_read_not_matched(self):
        manager, fs, _, _ = make_tip()
        inode = fs.lookup("f1")
        hint(manager, fs, "f0", 0, BLOCK_SIZE)
        assert not manager.consume_hints(PID, inode, 0, 0, 100)

    def test_no_hints_no_match(self):
        manager, fs, _, _ = make_tip()
        inode = fs.lookup("f0")
        assert not manager.consume_hints(PID, inode, 0, 0, 100)

    def test_repeated_partial_block_reads_stay_hinted(self):
        """Several short reads of one hinted block all count as hinted."""
        manager, fs, _, _ = make_tip()
        inode = fs.lookup("f0")
        hint(manager, fs, "f0", 0, BLOCK_SIZE)
        assert manager.consume_hints(PID, inode, 0, 0, 512)
        assert manager.consume_hints(PID, inode, 0, 0, 512)

    def test_match_deep_in_queue(self):
        manager, fs, _, _ = make_tip(file_blocks=64, cache_blocks=4)
        inode = fs.lookup("f0")
        hint(manager, fs, "f0", 0, 40 * BLOCK_SIZE)
        # Read block 30 (well past the front of the queue).
        assert manager.consume_hints(PID, inode, 30, 30, BLOCK_SIZE)

    def test_past_4096_consumed_blocks_the_oldest_half_is_forgotten(self):
        """A re-read of a block whose hint was consumed still counts as
        hinted while TIP remembers the block; past 4,096 consumed blocks it
        forgets the oldest half, and a re-read of one of those is not."""
        manager, fs, _, stats = make_tip(nfiles=5, file_blocks=900)
        consumed = []
        for i in range(5):
            inode = fs.lookup(f"f{i}")
            hint(manager, fs, f"f{i}", 0, 900 * BLOCK_SIZE)
            for block in range(900):
                assert manager.consume_hints(PID, inode, block, block, BLOCK_SIZE)
                consumed.append((inode, block))
        assert stats.get("tip.hints_consumed") == 4500
        assert manager.outstanding_hints(PID) == 0
        # The 4,097th consumption dropped the 2,048 oldest; 403 came after.
        forgotten, remembered = consumed[:2048], consumed[2048:]
        for inode, block in (forgotten[0], forgotten[-1]):
            assert not manager.consume_hints(PID, inode, block, block, BLOCK_SIZE)
        for inode, block in (remembered[0], remembered[-1]):
            assert manager.consume_hints(PID, inode, block, block, BLOCK_SIZE)

    def test_accuracy_improves_on_consume(self):
        manager, fs, _, stats = make_tip()
        inode = fs.lookup("f0")
        hint(manager, fs, "f0", 0, BLOCK_SIZE)
        manager.cancel_all(PID)
        before = manager.accuracy_of(PID).value
        hint(manager, fs, "f0", 0, BLOCK_SIZE)
        manager.consume_hints(PID, inode, 0, 0, BLOCK_SIZE)
        assert manager.accuracy_of(PID).value > before
        assert stats.get("tip.hints_consumed") == 1
        assert manager.lifecycle.terminal_counts["consumed"] == 1


class TestCancelAll:
    def test_cancel_empties_queue(self):
        manager, fs, _, stats = make_tip()
        hint(manager, fs, "f0", 0, 5 * BLOCK_SIZE)
        assert manager.cancel_all(PID) == 5
        assert manager.outstanding_hints(PID) == 0
        assert stats.get("tip.hints_cancelled") == 5

    def test_cancel_counts_as_inaccurate(self):
        manager, fs, _, _ = make_tip()
        hint(manager, fs, "f0", 0, 2 * BLOCK_SIZE)
        manager.cancel_all(PID)
        assert manager.lifecycle.terminal_counts["cancelled"] == 2
        assert manager.accuracy_of(PID).value < 1.0

    def test_cancel_without_hints_is_zero(self):
        manager, _, _, _ = make_tip()
        assert manager.cancel_all(PID) == 0

    def test_issued_prefetches_proceed_after_cancel(self):
        manager, fs, engine, _ = make_tip()
        hint(manager, fs, "f0", 0, 2 * BLOCK_SIZE)
        manager.cancel_all(PID)
        drain(engine)
        inode = fs.lookup("f0")
        assert manager.peek_valid(inode, 0)  # prefetch was not recalled


class TestAccuracyDiscount:
    def test_low_accuracy_shrinks_depth(self):
        manager, fs, _, _ = make_tip(cache_blocks=128, file_blocks=200)
        full_depth = manager.params.prefetch_horizon
        for _ in range(40):
            hint(manager, fs, "f0", 0, 4 * BLOCK_SIZE)
            manager.cancel_all(PID)
        assert manager.accuracy_of(PID).value < 0.5
        assert manager.effective_depth(PID) < full_depth


class TestEviction:
    def test_unhinted_lru_evicted_first(self):
        manager, fs, engine, _ = make_tip(cache_blocks=4)
        inode = fs.lookup("f0")
        # Fill the cache with unhinted demand blocks.
        for b in range(4):
            manager.access_block(inode, b, lambda: None)
        drain(engine)
        hint(manager, fs, "f1", 0, BLOCK_SIZE)
        drain(engine)
        # One unhinted block was evicted to make room.
        valid = [b for b in range(4) if manager.peek_valid(inode, b)]
        assert len(valid) == 3

    def test_hinted_blocks_protected_within_horizon(self):
        params = TipParams(prefetch_horizon=64)
        manager, fs, engine, stats = make_tip(cache_blocks=4, tip_params=params)
        hint(manager, fs, "f0", 0, 4 * BLOCK_SIZE)
        drain(engine)
        # All 4 cached blocks are hinted within the horizon (well, their
        # hints were consumed... re-hint to protect them):
        hint(manager, fs, "f0", 0, 4 * BLOCK_SIZE)
        assert manager.find_victim() is None

    def test_finalize_counts_unconsumed(self):
        manager, fs, _, stats = make_tip()
        hint(manager, fs, "f0", 0, 3 * BLOCK_SIZE)
        manager.finalize()
        assert stats.get("tip.hints_unconsumed_at_end") == 3


class TestCancelDrain:
    """TIPIO_CANCEL_ALL's post-condition: the queue is provably drained
    (the restart protocol restarts speculation on the strength of this)."""

    def test_cancel_all_drains_outstanding_hints(self):
        manager, fs, _, stats = make_tip()
        hint(manager, fs, "f0", 0, 5 * BLOCK_SIZE)
        assert manager.outstanding_hints(PID) == 5
        cancelled = manager.cancel_all(PID)
        assert cancelled == 5
        assert manager.outstanding_hints(PID) == 0
        assert stats.get("tip.hints_cancelled") == 5
        assert stats.get("tip.cancel_drained") == 1

    def test_leaked_unconsumed_hint_is_cancelled(self):
        """A hint the application never consumed (leaked from its point of
        view) must still be drained by the cancel, not linger."""
        manager, fs, engine, _ = make_tip()
        hint(manager, fs, "f0", 0, 3 * BLOCK_SIZE)
        drain(engine)
        # Consume two of three; the third leaks.
        inode = fs.lookup("f0")
        manager.consume_hints(PID, inode, 0, 1, 2 * BLOCK_SIZE)
        assert manager.outstanding_hints(PID) == 1
        assert manager.cancel_all(PID) == 1
        assert manager.outstanding_hints(PID) == 0

    def test_cancel_idempotent_on_empty_queue(self):
        manager, fs, _, stats = make_tip()
        assert manager.cancel_all(PID) == 0
        hint(manager, fs, "f0", 0, BLOCK_SIZE)
        manager.cancel_all(PID)
        assert manager.cancel_all(PID) == 0
        assert stats.get("tip.hints_cancelled") == 1

    def test_cancelled_total_accumulates_across_calls(self):
        manager, fs, _, stats = make_tip()
        hint(manager, fs, "f0", 0, 2 * BLOCK_SIZE)
        manager.cancel_all(PID)
        hint(manager, fs, "f1", 0, 3 * BLOCK_SIZE)
        manager.cancel_all(PID)
        assert stats.get("tip.hints_cancelled") == 5
        assert manager.lifecycle.terminal_counts["cancelled"] == 5


def count_scheduler_lookups(manager):
    """Count ``cache.get`` calls made from inside ``_schedule_prefetches``
    (test-only wrappers; the count lands in the returned one-item list)."""
    lookups = [0]
    depth = [0]
    cache_get, schedule = manager.cache.get, manager._schedule_prefetches

    def get(key):
        if depth[0]:
            lookups[0] += 1
        return cache_get(key)

    def scheduled(*args):
        depth[0] += 1
        try:
            schedule(*args)
        finally:
            depth[0] -= 1

    manager.cache.get = get
    manager._schedule_prefetches = scheduled
    return lookups


class TestSchedulingCost:
    """Scheduling work follows what changed, not the size of the window."""

    def test_unhinted_arrival_with_resident_window_is_free(self):
        params = TipParams(prefetch_horizon=8, max_inflight_per_disk=16)
        manager, fs, engine, stats = make_tip(cache_blocks=64, tip_params=params)
        hint(manager, fs, "f0", 0, 20 * BLOCK_SIZE)
        drain(engine)
        assert stats.get("tip.prefetches_issued") == 8  # full, resident window
        lookups = count_scheduler_lookups(manager)
        # A demand fetch of a block nobody hinted: no slot to release.
        manager.access_block(fs.lookup("f1"), 0, lambda: None)
        drain(engine)
        assert manager.peek_valid(fs.lookup("f1"), 0)
        assert lookups[0] == 0
        assert stats.get("tip.prefetches_issued") == 8

    def test_denied_prefetch_is_retried_then_the_window_is_clean_again(self):
        params = TipParams(prefetch_horizon=8, max_inflight_per_disk=16)
        manager, fs, engine, stats = make_tip(cache_blocks=2, tip_params=params)
        inode = fs.lookup("f0")
        hint(manager, fs, "f0", 0, 4 * BLOCK_SIZE)
        # Two blocks fit; the other two are refused, and again on every
        # arrival while the first two stay hinted (so unevictable).
        assert stats.get("tip.prefetches_issued") == 2
        assert stats.get("cache.prefetch_denied_no_room") == 2
        drain(engine)
        assert stats.get("cache.prefetch_denied_no_room") == 6
        # Reading the first two frees them for eviction: the retry succeeds.
        manager.consume_hints(PID, inode, 0, 1, 2 * BLOCK_SIZE)
        manager.read_call_completed(PID, ReadAheadState(), inode, 0, 1, hinted=True)
        drain(engine)
        assert stats.get("tip.prefetches_issued") == 4
        # Nothing is owed any more: an unrelated arrival looks nothing up.
        lookups = count_scheduler_lookups(manager)
        manager.access_block(fs.lookup("f1"), 0, lambda: None)
        drain(engine)
        assert lookups[0] == 0

    def test_released_slot_goes_to_oldest_blocked_entry_on_that_disk(self):
        params = TipParams(prefetch_horizon=64, max_inflight_per_disk=1)
        manager, fs, _, stats = make_tip(cache_blocks=64, tip_params=params)
        submitted = []
        submit = manager.array.submit

        def recording_submit(lbn, kind, callback):
            submitted.append(lbn)
            return submit(lbn, kind, callback)

        manager.array.submit = recording_submit
        # Blocks 0-7 share a stripe unit (disk 0), 8-15 the next (disk 1).
        hint(manager, fs, "f0", 0, 12 * BLOCK_SIZE)
        inode = fs.lookup("f0")
        assert submitted == [inode.first_lbn, inode.first_lbn + 8]  # one per disk
        del submitted[:]
        # Block 8 lands (the completion path's two calls, made by hand so
        # that disk 0's fetch, due the same cycle, stays in flight).
        manager.cache.mark_valid((inode.ino, 8))
        manager.on_block_arrived((inode.ino, 8))
        # One slot freed on disk 1, one prefetch: block 9, the oldest entry
        # waiting on disk 1 -- not block 1, older but waiting on disk 0.
        assert submitted == [inode.first_lbn + 9]
        assert stats.get("tip.prefetches_issued") == 3

    @pytest.mark.parametrize("variant", ["manual", "speculating"])
    def test_whole_run_lookups_bounded_by_hints_and_prefetches(self, variant):
        """Exact counts, no wall clock: rescanning the window on every event
        cost 90 (manual) and 118 (speculating) lookups per hinted-or-issued
        block on this run; visiting only what changed costs 8.6 and 9.5."""
        counts = []

        def observer(system):
            counts.append(count_scheduler_lookups(system.manager))

        add_system_observer(observer)
        try:
            result = run_experiment(
                ExperimentConfig("xds", Variant(variant), workload_scale=0.3))
        finally:
            remove_system_observer(observer)
        work = (result.counters["tip.hinted_blocks"]
                + result.counters["tip.prefetches_issued"])
        assert work > 1000
        assert counts[0][0] <= 20 * work, (counts[0][0], work)
