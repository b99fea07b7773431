"""Tests for hint segments (Table 2) and accuracy tracking."""

import pytest

from repro.fs.filesystem import FileSystem
from repro.params import BLOCK_SIZE
from repro.tip.accuracy import HintAccuracyTracker
from tests.conftest import make_system

PID = 1


def hinted_blocks(nbytes, offset, length):
    """What one segment of an ``nbytes`` file, hinted through
    ``Kernel.hint_from`` (which validates and clamps it), makes TIP queue:
    the file blocks, and how many calls were unresolvable."""
    fs = FileSystem()
    inode = fs.create("f", bytes(nbytes))
    system = make_system(fs)
    queued = system.kernel.hint_from(PID, inode, offset, length)
    keys = system.manager.lifecycle.disclosed_keys()
    assert len(keys) == queued
    assert all(ino == inode.ino for ino, _ in keys)
    unresolvable = system.stats.get("app.hint_calls_unresolvable")
    return [block for _, block in keys], unresolvable


def hinting_system(nblocks):
    """A system whose process ``PID`` has hinted a whole ``nblocks``-block
    file and read none of it."""
    fs = FileSystem()
    inode = fs.create("f", bytes(nblocks * BLOCK_SIZE))
    system = make_system(fs)
    assert system.kernel.hint_from(PID, inode, 0, inode.size) == nblocks
    return system


def inaccurate(n):
    """The estimate after ``n`` inaccurate hints and nothing else."""
    tracker = HintAccuracyTracker()
    tracker.observe_inaccurate(n)
    return tracker.value


class TestHintSegment:
    def test_block_range_single_block(self):
        assert hinted_blocks(BLOCK_SIZE * 4, 100, 200) == ([0], 0)

    def test_block_range_spanning(self):
        assert hinted_blocks(BLOCK_SIZE * 4, BLOCK_SIZE - 1, 2) == ([0, 1], 0)

    def test_block_range_clamped_to_file(self):
        assert hinted_blocks(BLOCK_SIZE + 1, 0, 100 * BLOCK_SIZE) == ([0, 1], 0)

    def test_empty_segment(self):
        assert hinted_blocks(BLOCK_SIZE, 0, 0) == ([], 1)

    def test_offset_past_eof(self):
        assert hinted_blocks(10, 20, 5) == ([], 1)

    def test_blocks_keys(self):
        assert hinted_blocks(BLOCK_SIZE * 3, 0, 3 * BLOCK_SIZE) == ([0, 1, 2], 0)


class TestHintAccuracyTracker:
    def test_starts_optimistic(self):
        assert HintAccuracyTracker().value == 1.0

    def test_consumed_keeps_high(self):
        tracker = HintAccuracyTracker()
        tracker.observe_consumed(50)
        assert tracker.value == pytest.approx(1.0)

    def test_cancelled_decays(self):
        """CANCEL_ALL counts every cancelled hint as inaccurate."""
        system = hinting_system(50)
        assert system.manager.cancel_all(PID) == 50
        assert system.manager.accuracy_of(PID).value == inaccurate(50) < 0.2

    def test_stale_decays(self):
        """Hints that never match a read -- here, still queued when the run
        ends -- count as inaccurate."""
        system = hinting_system(50)
        system.manager.finalize()
        assert system.manager.accuracy_of(PID).value == inaccurate(50) < 0.2

    def test_mixed_converges_to_rate(self):
        tracker = HintAccuracyTracker()
        for _ in range(400):
            tracker.observe_consumed()
            tracker.observe_inaccurate()
        assert tracker.value == pytest.approx(0.5, abs=0.15)

    def test_inaccurate_total(self):
        """The estimate reflects only how many hints were inaccurate, not
        how the calls that reported them were split."""
        tracker = HintAccuracyTracker()
        tracker.observe_inaccurate(3)
        tracker.observe_inaccurate(4)
        assert tracker.value == inaccurate(7) < 1.0

    def test_recovery_after_bad_patch(self):
        tracker = HintAccuracyTracker()
        tracker.observe_inaccurate(50)
        low = tracker.value
        tracker.observe_consumed(100)
        assert tracker.value > low
        assert tracker.value > 0.9
