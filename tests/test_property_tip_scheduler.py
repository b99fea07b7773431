"""Differential property test of the incremental TIP prefetch scheduler.

``TipManager._schedule_prefetches`` visits only the window entries that
may have become issuable since the last scan.  The reference model
(``tests/tip_reference.py``) walks the whole window on every event.  Any
interleaving of hints, cancels, reads, block arrivals, dropped prefetches,
lost blocks, evictions, degraded-mode toggles and accuracy swings must drive
both to the
same disk traffic, the same counters and the same hint-lifecycle ledger —
checked after *every* step, so a divergence is reported where it starts.

The cache is tiny on purpose: ``find_victim`` then hands out hinted victims
and ``start_prefetch`` is refused for lack of room, the two events that
invalidate a window wholesale.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fs.cache import BlockCache, FetchOrigin
from repro.fs.filesystem import FileSystem
from repro.fs.readahead import SequentialReadAhead
from repro.params import ArrayParams, BLOCK_SIZE, CpuParams, DiskParams, TipParams
from repro.sim.clock import SimClock
from repro.sim.engine import EventEngine
from repro.sim.stats import StatRegistry
from repro.storage.request import IOKind
from repro.storage.striping import StripedArray
from repro.tip.manager import TipManager
from tests.tip_reference import ReferenceTipManager, reference_victim

NFILES = 3
FILE_BLOCKS = 24
PIDS = (1, 2)


class ScriptedArray(StripedArray):
    """A striped array the test can degrade, whose prefetches it can doom
    and whose blocks it can lose, recording every submitted lbn."""

    #: Shadows the property: the managers only ever read the flag.
    degraded = False

    def __init__(self, *args):
        super().__init__(*args)
        self.submitted = []
        self.doomed = set()
        self.demanded = set()
        self.lost = set()

    def servable(self, lbn):
        return lbn not in self.lost and super().servable(lbn)

    def submit(self, lbn, kind, callback):
        self.submitted.append((lbn, kind.value))
        if kind is IOKind.DEMAND:
            self.demanded.add(lbn)
        return super().submit(lbn, kind, callback)

    def _notify(self, request):
        # A request a demand read waits on (its own, or a prefetch it
        # joined) must not fail: that is a typed error, not a drop.
        if request.lbn in self.doomed and request.lbn not in self.demanded:
            self.doomed.discard(request.lbn)
            request.failed = True
        self.demanded.discard(request.lbn)
        super()._notify(request)


class Stack:
    """One manager on its own file system, array, cache and clock."""

    def __init__(self, manager_cls, cache_blocks, horizon, inflight):
        self.fs = FileSystem()
        for i in range(NFILES):
            self.fs.create(f"f{i}", bytes(FILE_BLOCKS * BLOCK_SIZE))
        self.engine = EventEngine(SimClock())
        self.stats = StatRegistry()
        self.array = ScriptedArray(
            self.fs.total_blocks,
            ArrayParams(stripe_unit=2 * BLOCK_SIZE),
            DiskParams(), CpuParams(), self.engine, self.stats,
        )
        self.readahead = SequentialReadAhead(max_blocks=4)
        self.ra_states = {pid: self.readahead.new_state() for pid in PIDS}
        self.manager = manager_cls(
            self.fs, self.array, BlockCache(cache_blocks, self.stats),
            self.readahead, self.stats,
            TipParams(prefetch_horizon=horizon, max_inflight_per_disk=inflight),
        )

    def apply(self, step):
        op, args = step[0], step[1:]
        getattr(self, op)(*args)

    def hint(self, pid, runs):
        """One disclosure per run (so one scheduling pass after each),
        clamped to the file as ``Kernel.hint_from`` would."""
        for f, first, count in runs:
            count = min(count, FILE_BLOCKS - first)
            self.manager.disclose(pid, self.fs.inode(f), first * BLOCK_SIZE,
                                  count * BLOCK_SIZE)

    def cancel(self, pid):
        self.manager.cancel_all(pid)

    def read(self, pid, f, first, count, events_before_completion):
        """One read call, with the kernel's gap between matching the hints
        and the post-read hook (blocks arrive in between)."""
        inode = self.fs.inode(f)
        last = min(first + count, FILE_BLOCKS) - 1
        hinted = self.manager.consume_hints(
            pid, inode, first, last, (last - first + 1) * BLOCK_SIZE)
        for block in range(first, last + 1):
            self.manager.access_block(inode, block, lambda: None)
        self.events(events_before_completion)
        self.manager.read_call_completed(
            pid, self.ra_states[pid], inode, first, last, hinted)

    def follow(self, pid, skip, count, events_before_completion):
        """Read what ``pid`` hinted: the ``skip``-th queued block onwards."""
        queue = self.manager._proc(pid).queue
        if skip < len(queue):
            ino, first = queue[skip].key
            self.read(pid, ino, first, count, events_before_completion)

    def events(self, n):
        for _ in range(n):
            if not self.engine.advance_to_next():
                break

    def doom(self, nth):
        """Fail the ``nth`` fetch now outstanding (unless a demand read
        comes to wait on it)."""
        outstanding = [lbn for lbn in range(self.array.nblocks)
                       if self.array.outstanding_for(lbn) is not None]
        if outstanding:
            self.array.doomed.add(outstanding[nth % len(outstanding)])

    def degrade(self, flag):
        """Enter or leave degraded mode; leaving it is a rebuild's end,
        which makes every lost block servable again."""
        self.array.degraded = flag
        if not flag:
            self.array.lost.clear()

    def lose(self, f, block):
        """A second death strands a block: no disk and no parity row can
        serve it until the rebuild ends."""
        self.array.lost.add(self.fs.inode(f).lbn_of_block(block))
        self.array.degraded = True

    def resident(self, f, block):
        """Put a block in the cache as if a demand read had brought it."""
        key = (f, block)
        if self.manager.cache.get(key) is None:
            self.manager.cache.insert_fetching(key, FetchOrigin.DEMAND)
            self.manager.cache.mark_valid(key)

    def swing(self, pid, up, n):
        """Move ``pid``'s measured accuracy, and with it its depth."""
        accuracy = self.manager.accuracy_of(pid)
        if up:
            accuracy.observe_consumed(n)
        else:
            accuracy.observe_inaccurate(n)

    def observed(self):
        lifecycle = self.manager.lifecycle
        return {
            "submitted": self.array.submitted,
            "stats": self.stats.snapshot(),
            "ledger": [r.to_jsonable() for r in lifecycle.records()],
            "ledger_counts": lifecycle.summary_counts(),
            "ready_before_demand": lifecycle.ready_before_demand,
            "now": self.engine.clock.now,
        }


pids = st.sampled_from(PIDS)
files = st.integers(0, NFILES - 1)
blocks = st.integers(0, FILE_BLOCKS - 1)
runs = st.lists(st.tuples(files, blocks, st.integers(1, 12)),
                min_size=1, max_size=3)

STEPS = st.lists(
    st.one_of(  # an op listed twice is drawn twice as often
        st.tuples(st.just("hint"), pids, runs),
        st.tuples(st.just("hint"), pids, runs),
        st.tuples(st.just("read"), pids, files, blocks, st.integers(1, 4),
                  st.integers(0, 3)),
        st.tuples(st.just("follow"), pids, st.integers(0, 2),
                  st.integers(1, 4), st.integers(0, 3)),
        st.tuples(st.just("follow"), pids, st.integers(0, 2),
                  st.integers(1, 4), st.integers(0, 3)),
        st.tuples(st.just("events"), st.integers(1, 6)),
        st.tuples(st.just("events"), st.integers(1, 6)),
        st.tuples(st.just("cancel"), pids),
        st.tuples(st.just("doom"), st.integers(0, 7)),
        st.tuples(st.just("degrade"), st.booleans()),
        st.tuples(st.just("lose"), files, blocks),
        st.tuples(st.just("resident"), files, blocks),
        st.tuples(st.just("swing"), pids, st.booleans(), st.integers(5, 40)),
    ),
    min_size=20, max_size=80,
)


def assert_victim_matches_reference(stack, context):
    """``find_victim`` against the brute-force rule.  It counts a hinted
    victim, so the check runs on both twins alike."""
    expected = reference_victim(stack.manager)
    assert stack.manager.find_victim() is expected, context


def run_twins(cache_blocks, horizon, inflight, steps):
    real = Stack(TipManager, cache_blocks, horizon, inflight)
    model = Stack(ReferenceTipManager, cache_blocks, horizon, inflight)
    for index, step in enumerate(steps):
        real.apply(step)
        model.apply(step)
        assert_victim_matches_reference(real, (index, step))
        assert_victim_matches_reference(model, (index, step))
        assert real.observed() == model.observed(), (index, step)
    # Run on a while (a tiny cache can thrash for ever) and close out: the
    # ledgers must also end the same way.
    for stack in (real, model):
        stack.events(100)
        stack.manager.finalize()
    assert real.observed() == model.observed()
    return real


@given(
    cache_blocks=st.integers(3, 12),
    # Up to 64: at the degraded quarter, a window of 16 worth scanning.
    horizon=st.sampled_from([4, 8, 16, 32, 64]),
    inflight=st.sampled_from([0, 1, 2]),
    steps=STEPS,
)
@settings(max_examples=200, deadline=None)
def test_incremental_scheduler_matches_full_scan(cache_blocks, horizon,
                                                 inflight, steps):
    run_twins(cache_blocks, horizon, inflight, steps)


# Two invalidations that random interleavings reach too rarely to rely on.
# With a stripe unit of two blocks on four disks, file blocks 0-1 sit on
# disk 0, 2-3 on disk 1, ... and 8-9 on disk 0 again.

def test_depth_that_shrinks_and_regrows_revisits_what_fell_outside():
    real = run_twins(cache_blocks=32, horizon=16, inflight=1, steps=[
        # 15 entries visited: four issued (one per disk), eleven blocked.
        ("hint", 1, [(0, 0, 15)]),
        # Depth 16 -> 4, then three arrivals free slots on disks the shrunk
        # window has no entry for ...
        ("swing", 1, False, 40),
        ("events", 3),
        # ... and depth 4 -> 16 again: positions 4-14 are tail once more.
        ("swing", 1, True, 60),
        ("hint", 1, [(1, 0, 1)]),
    ])
    assert real.stats.get("tip.prefetches_issued") == 16


def test_dropped_readahead_of_a_hinted_block_is_prefetched_again():
    real = run_twins(cache_blocks=32, horizon=16, inflight=1, steps=[
        # An unhinted four-block read: read-ahead fetches blocks 4-7.
        ("read", 2, 1, 0, 4, 0),
        # Another process hints those blocks: all in flight, window clean.
        ("hint", 1, [(1, 4, 4)]),
        # Block 4's read-ahead dies.  No hint slot is released, yet the
        # hinted key has left the cache.
        ("doom", 4),
        ("events", 8),
    ])
    assert real.stats.get("cache.prefetches_dropped") == 1
    assert real.stats.get("tip.prefetches_dropped") == 0
    assert real.stats.get("tip.prefetches_issued") == 1


# What a scan costs: a disclosure into a full window walks nothing.

def counting_scans(stack):
    """Record every scheduling pass of ``stack``'s manager (its released
    disk)."""
    passes = []
    manager = stack.manager
    scan = manager._schedule_prefetches

    def counted_scan(pid, released=None):
        passes.append(released)
        scan(pid, released)

    manager._schedule_prefetches = counted_scan
    return passes


def run_steps(real, model, steps):
    for step in steps:
        real.apply(step)
        model.apply(step)
        for stack in (real, model):
            assert_victim_matches_reference(stack, step)
        assert real.observed() == model.observed(), step


def test_disclosure_into_a_full_window_scans_nothing():
    real = Stack(TipManager, 32, 4, 1)
    model = Stack(ReferenceTipManager, 32, 4, 1)
    # Depth 4: blocks 0 and 2 issued, 1 and 3 blocked — a full window.
    run_steps(real, model, [("hint", 1, [(0, 0, 8)])])
    passes = counting_scans(real)
    run_steps(real, model, [("hint", 1, [(1, 0, 3)]), ("hint", 1, [(2, 5, 1)])])
    assert passes == []
    # A freed slot still refills the window.
    run_steps(real, model, [("events", 1)])
    assert passes and real.stats.get("tip.prefetches_issued") == 4


def test_a_released_slot_that_evicts_a_hinted_block_widens_the_scan():
    """Two processes hint one file into a seven-block cache, so refilling a
    freed slot from the released disk's entries must evict a hinted block;
    that dirties the window, and the scan must go on to visit everything
    after the entry it was refilling — stopping there diverges from the
    full scan."""
    real = Stack(TipManager, 7, 4, 1)
    model = Stack(ReferenceTipManager, 7, 4, 1)
    run_steps(real, model, [
        ("hint", 2, [(0, 0, 4)]),
        ("hint", 1, [(0, 5, 4)]),
        ("events", 4),
    ])


def test_a_dropped_hinted_prefetch_is_prefetched_again():
    real = run_twins(cache_blocks=32, horizon=8, inflight=1, steps=[
        ("hint", 1, [(0, 0, 8)]),
        ("doom", 0),
        ("events", 8),
    ])
    assert real.stats.get("tip.prefetches_dropped") == 1
    assert real.stats.get("tip.prefetches_issued") == 9


def test_a_lost_block_is_refused_until_the_rebuild_ends():
    real = run_twins(cache_blocks=32, horizon=16, inflight=0, steps=[
        # Degraded: a quarter of the depth, one prefetch per disk.  Block
        # 0 is lost, so disk 0's slot goes to block 1 instead.
        ("lose", 0, 0),
        ("hint", 1, [(0, 0, 4)]),
        ("events", 8),
        # Still refused on every rescan while degraded ...
        ("hint", 1, [(1, 0, 1)]),
        # ... and issued once the rebuild has ended.
        ("degrade", False),
        ("hint", 1, [(2, 0, 1)]),
    ])
    # File f's block b is lbn 24 f + b: block 0 of file 0 goes out once,
    # after the rebuild, ahead of the two hints queued behind it.
    issued = [lbn for lbn, kind in real.array.submitted if kind == "prefetch"]
    assert issued == [1, 2, 3, 0, 24, 48]
