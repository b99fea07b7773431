"""The request lifecycle of the striped array (DESIGN §12.4).

Three layers:

* ``SCHEDULES`` — small named deterministic schedules, one per place
  where two recovery policies meet (held × death, backoff × death, the
  primary dying or running out of retries while its hedge races, a peer
  dying during a child's backoff, ...), each asserting its outcome;
* ``test_every_move_is_taken_and_no_other`` — the ``_move`` edges taken
  across all of them *equal* the edge set of ``_MOVES``: no dead edge in
  the table, no untested one;
* ``test_any_schedule_leaves_the_array_clean`` — a hypothesis property
  over random submit schedules × fault plans × the two Section 4.8
  knobs, submitting a prefetch only where the array can serve it (as TIP
  does), checking the slot accounting after every event and, at drain,
  that every callback ran exactly once and nothing is left armed.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    DataLossError,
    DiskFaultError,
    IOTimeoutError,
)
from repro.faults.injector import FAULT_DATA_LOSS, FaultInjector
from repro.faults.plan import FaultPlan
from repro.params import BLOCK_SIZE, CPU_HZ, ArrayParams, CpuParams, DiskParams
from repro.sim.clock import SimClock
from repro.sim.engine import EventEngine
from repro.sim.stats import StatRegistry
from repro.storage import striping
from repro.storage.request import IOKind
from repro.storage.striping import StripedArray

#: One random disk access at the default parameters, in cycles.
SERVICE = 3_389_684
DEMAND, PREFETCH = IOKind.DEMAND, IOKind.PREFETCH


class RecordingArray(StripedArray):
    """A striped array that records every ``_move`` edge it takes."""

    #: Set by the rig before the first submit.
    edges = None

    def _move(self, request, new):
        self.edges.add((request.state, new))
        super()._move(request, new)


def build(array_cls, plan, parity, nblocks, **array_kwargs):
    """An array on its own clock, with an injector when there is a plan."""
    engine = EventEngine(SimClock())
    stats = StatRegistry()
    cpu = CpuParams()
    injector = None
    if plan is not None:
        injector = FaultInjector(plan, cpu, engine.clock, stats)
    redundancy = "parity" if parity else "none"
    array = array_cls(
        nblocks, ArrayParams(redundancy=redundancy, **array_kwargs),
        DiskParams(), cpu, engine, stats, injector=injector,
    )
    return array, engine, stats


class Rig:
    """One recording array; ``done`` collects notifications."""

    def __init__(self, edges, plan=None, parity=False, nblocks=1024,
                 **array_kwargs):
        self.array, self.engine, self.stats = build(
            RecordingArray, plan, parity, nblocks, **array_kwargs)
        self.array.edges = edges
        self.done = []

    def submit(self, lbn, kind):
        return self.array.submit(lbn, kind, self.done.append)

    def at(self, cycle, lbn, kind):
        """Submit ``lbn`` when the clock reaches ``cycle``."""
        self.engine.schedule_at(cycle, lambda: self.submit(lbn, kind))

    def lbns_on(self, disk_id):
        """The logical blocks whose home is ``disk_id``, ascending."""
        return [lbn for lbn in range(self.array.nblocks)
                if self.array.map_block(lbn)[0] == disk_id]

    def run(self, until=None):
        """Dispatch every event (or only those due by cycle ``until``)."""
        while True:
            when = self.engine.next_event_time()
            if when is None or (until is not None and when > until):
                return
            self.engine.advance_to_next()

    def get(self, counter):
        return self.stats.get(counter)

    def hedge_ledger(self):
        return (self.get("array.hedges_issued"),
                self.get("array.hedges_won")
                + self.get("array.hedges_cancelled")
                + self.get("array.hedges_lost"))


def state_of(request):
    """By name, so that a failed assertion reads HELD, not 0."""
    return request.state.name


# ---------------------------------------------------------------------------
# Named schedules: one per place where two policies meet
# ---------------------------------------------------------------------------

#: A 1 ms window at t=0 in which every access started is stretched 1000x:
#: a primary dispatched at once is stuck (~3.4G cycles), anything started
#: later runs at full speed.
STUCK = dict(slow_factor=1000.0, slow_duration_s=0.001)


def plain_read_retry_and_delayed_notice(edges):
    """The unhedged paths: a read, a retried read, a delayed notice."""
    rig = Rig(edges, FaultPlan(offline_disk=0, offline_duration_s=0.0005),
              completion_delay_factor=2.0)
    req = rig.submit(0, DEMAND)
    rig.run()
    assert rig.done == [req] and not req.failed
    assert req.attempts == 2 and rig.get("array.retries") == 1
    # The notice doubles the perceived service time of the final attempt.
    assert req.notify_time - req.finish_time == req.finish_time - req.start_time


def held_prefetch_joined_by_a_demand(edges):
    """A held prefetch promoted by a demand join goes straight to its
    disk's demand queue: no timeout of its own is armed."""
    rig = Rig(edges, FaultPlan(), max_prefetches_per_disk=1)
    rig.submit(0, PREFETCH)
    held = rig.submit(1, PREFETCH)
    assert state_of(held) == "HELD"
    assert rig.submit(1, DEMAND) is held
    assert state_of(held) == "AT_DISK" and held.is_demand
    assert held.timeout_event is None
    rig.run()
    assert len(rig.done) == 3 and rig.array._inflight_prefetches[0] == 0


def held_prefetch_when_its_disk_dies(edges, parity):
    """held × death: the demand ahead in the queue observes the death
    while one prefetch holds the slot and another is still held."""
    rig = Rig(edges, FaultPlan(dead_disk=1, dead_at_s=0.0), parity=parity,
              max_prefetches_per_disk=1)
    first, queued, parked = rig.lbns_on(1)[:3]
    rig.submit(first, DEMAND)
    rig.submit(queued, PREFETCH)
    held = rig.submit(parked, PREFETCH)
    assert state_of(held) == "HELD"
    rig.run()
    assert len(rig.done) == 3
    assert not any(rig.array._held_prefetches[1])
    return rig, held


def held_prefetch_when_its_disk_dies_with_parity(edges):
    rig, held = held_prefetch_when_its_disk_dies(edges, parity=True)
    assert all(r.reconstructed and not r.failed for r in rig.done)
    # The death drains the held queue before it re-places the observer.
    assert rig.done[0] is held


def held_prefetch_when_its_disk_dies_without_parity(edges):
    rig, held = held_prefetch_when_its_disk_dies(edges, parity=False)
    assert all(r.failed and r.fault == FAULT_DATA_LOSS for r in rig.done)
    assert rig.get("array.prefetches_dropped") == 2
    assert rig.get("array.demand_failures") == 1


def read_of_a_known_dead_disk_without_parity(edges):
    """A demand fails on the spot (the typed error surfaces at the read);
    a prefetch is refused: the array takes none it cannot serve."""
    rig = Rig(edges, FaultPlan(dead_disk=1, dead_at_s=0.0))
    first, demand, prefetch = rig.lbns_on(1)[:3]
    assert rig.array.servable(prefetch)  # the death is not known yet
    rig.submit(first, DEMAND)
    rig.run()
    failed = rig.submit(demand, DEMAND)
    assert failed.done and failed.failed
    assert isinstance(StripedArray.failure_cause(failed), DataLossError)
    assert not rig.array.servable(prefetch)
    assert rig.array.servable(rig.lbns_on(0)[0])
    with pytest.raises(AssertionError, match="unservable"):
        rig.submit(prefetch, PREFETCH)
    assert rig.array.outstanding_for(prefetch) is None
    assert rig.get("array.prefetch_submitted") == 0
    assert rig.get("array.demand_failures") == 2


def held_prefetch_stranded_by_a_second_death(edges):
    """Disk 1 is dead with no spare; a demand on disk 2 observes disk 2's
    death while a prefetch holds its slot and another waits, held.  The
    held one fails at that very event, and by the time its callback runs
    the array already answers that the block is unservable — so TIP,
    which asks before it submits, does not resubmit it."""
    plan = FaultPlan(dead_disk=1, dead_at_s=0.0,
                     second_dead_disk=2, second_dead_at_s=0.001)
    rig = Rig(edges, plan, parity=True, max_prefetches_per_disk=1)
    rig.submit(rig.lbns_on(1)[0], DEMAND)
    rig.run(until=70_000)  # disk 1's death is known
    demand, slotted, parked = rig.lbns_on(2)[:3]
    observer = rig.submit(demand, DEMAND)
    rig.submit(slotted, PREFETCH)
    resubmitted = []

    def tip_reacts(request):
        rig.done.append(request)
        if rig.array.servable(request.lbn):  # TipManager.start_prefetch
            resubmitted.append(rig.submit(request.lbn, PREFETCH))

    held = rig.array.submit(parked, PREFETCH, tip_reacts)
    assert state_of(held) == "HELD"
    rig.run()
    assert held.failed and held.fault == FAULT_DATA_LOSS
    assert held.notify_time == observer.finish_time  # no deferral event
    assert resubmitted == []
    assert rig.get("array.prefetch_submitted") == 2
    assert rig.get("array.prefetches_dropped") == 2
    assert observer.failed and rig.get("array.disk_deaths") == 2


def backoff_when_the_disk_dies(edges, kind, parity, hot_spares=0,
                               backoff=5_000_000):
    """backoff × death: the request is rejected inside disk 1's offline
    window and backs off; another read observes the death meanwhile."""
    plan = FaultPlan(offline_disk=1, offline_duration_s=0.001,
                     dead_disk=1, dead_at_s=0.002)
    rig = Rig(edges, plan, parity=parity, hot_spares=hot_spares,
              retry_backoff_cycles=backoff)
    lbn, observer = rig.lbns_on(1)[:2]
    req = rig.submit(lbn, kind)
    rig.at(1_000_000, observer, DEMAND)
    rig.run(until=1_100_000)
    assert state_of(req) == "BACKOFF" and rig.get("array.disk_deaths") == 1
    rig.run()
    assert req.done and req.attempts == 2
    return rig, req


def backoff_when_the_disk_dies_to_the_peers(edges):
    rig, req = backoff_when_the_disk_dies(edges, DEMAND, parity=True)
    assert req.reconstructed and not req.failed
    assert rig.get("array.degraded_reads") == 2


def backoff_when_the_disk_dies_to_the_spare(edges):
    # By the time the retry is due the rebuild has passed physical block 0.
    rig, req = backoff_when_the_disk_dies(
        edges, DEMAND, parity=True, hot_spares=1, backoff=20_000_000)
    assert not req.failed and not req.reconstructed
    assert req.disk_id == rig.array.array.ndisks
    assert rig.get("array.degraded_reads") == 1


def backoff_when_the_disk_dies_without_parity(edges):
    rig, req = backoff_when_the_disk_dies(edges, PREFETCH, parity=False)
    assert req.failed and req.fault == FAULT_DATA_LOSS
    assert rig.get("array.prefetches_dropped") == 1


def request_queued_at_a_dead_disk_until_the_spare_has_its_block(edges):
    """death → spare: ~110 prefetches ahead of it take the dead disk 7.5M
    cycles to reject (alternating far-apart blocks: no track-buffer hit);
    the rebuild resilvers physical block 0 in ~6.9M."""
    rig = Rig(edges, FaultPlan(dead_disk=1, dead_at_s=0.0), parity=True,
              hot_spares=1)
    on_disk = rig.lbns_on(1)
    assert rig.array.map_block(on_disk[0]) == (1, 0)
    for pair in zip(on_disk[20:75], on_disk[200:255], strict=True):
        for lbn in pair:
            rig.submit(lbn, PREFETCH)
    req = rig.submit(on_disk[0], PREFETCH)
    rig.run()
    assert len(rig.done) == 111 and not any(r.failed for r in rig.done)
    assert req.disk_id == rig.array.array.ndisks and not req.reconstructed
    assert rig.get("array.degraded_reads") == 110


def primary_dies_while_the_hedge_races(edges, **extra):
    """hedge × death: the demand waits behind a prefetch that entered
    service before the death; its hedge is out when it reaches the head
    of the queue and is rejected."""
    plan = FaultPlan(dead_disk=1, dead_at_s=0.001, hedge_after_s=0.002,
                     **extra.pop("plan", {}))
    rig = Rig(edges, plan, parity=True, **extra)
    ahead, lbn = rig.lbns_on(1)[1], rig.lbns_on(1)[0]
    rig.submit(ahead, PREFETCH)
    req = rig.submit(lbn, DEMAND)
    rig.run(until=SERVICE + 70_000)
    assert state_of(req) == "HEDGE_ONLY"
    assert rig.get("array.degraded_reads") == 0  # no duplicate reconstruction
    rig.run()
    assert rig.done[-1] is req and not req.failed
    assert rig.hedge_ledger() == (1, 1)
    return rig, req


def primary_dies_while_the_hedge_races_and_the_hedge_wins(edges):
    rig, req = primary_dies_while_the_hedge_races(edges)
    assert req.reconstructed and rig.get("array.hedges_won") == 1


def primary_dies_then_the_hedge_loses_to_the_peers(edges):
    # Two attempts each, 3M cycles apart: both of the hedge's child on
    # disk 2 fall inside the offline window (the second after the primary
    # has died); of the reconstruction's that follows, only the first.
    rig, req = primary_dies_while_the_hedge_races(
        edges, retry_max_attempts=2, retry_backoff_cycles=3_000_000,
        plan=dict(offline_disk=2, offline_start_s=0.0015,
                  offline_duration_s=0.015))
    assert rig.get("array.hedges_lost") == 1
    assert req.reconstructed and rig.get("array.degraded_reads") == 1


def primary_dies_then_the_hedge_loses_to_the_spare(edges):
    """The hedge's child on disk 2 is rejected (offline) and backs off for
    200M cycles; the rebuild of disk 1 completes; disk 2 dies; the child's
    retry finds it dead and the hedge is lost."""
    plan = dict(offline_disk=2, offline_start_s=0.0015,
                offline_duration_s=0.001,
                second_dead_disk=2, second_dead_at_s=0.5)
    rig, req = primary_dies_while_the_hedge_races(
        edges, plan=plan, hot_spares=1, nblocks=64,
        retry_backoff_cycles=200_000_000, rebuild_bandwidth_share=1.0)
    assert rig.get("array.hedges_lost") == 1
    assert rig.get("array.disk_deaths") == 2
    assert req.disk_id == rig.array.array.ndisks and not req.reconstructed


def primary_out_of_retries_while_the_hedge_races(edges, plan, **extra):
    rig = Rig(edges, plan, parity=True, retry_max_attempts=1, **extra)
    req = rig.submit(0, DEMAND)
    rig.run(until=SERVICE)
    assert state_of(req) == "HEDGE_ONLY" and not req.done
    rig.run()
    assert rig.done == [req] and rig.hedge_ledger() == (1, 1)
    return rig, req


def primary_out_of_retries_and_the_hedge_wins(edges):
    # The stuck primary times out at 3M; the hedge (out at 2 ms) is done
    # at ~3.86M.
    rig, req = primary_out_of_retries_while_the_hedge_races(
        edges, FaultPlan(hedge_after_s=0.002, **STUCK),
        request_timeout_cycles=3_000_000)
    assert not req.failed and req.reconstructed
    assert rig.get("array.timeouts") == 1 and rig.get("array.hedges_won") == 1


def primary_out_of_retries_and_the_hedge_loses(edges):
    # Every access faults: the primary at SERVICE, the hedge's children
    # 23,300 cycles later — the hedge was the last hope.
    rig, req = primary_out_of_retries_while_the_hedge_races(
        edges, FaultPlan(disk_error_rate=1.0, hedge_after_s=0.0001))
    assert req.failed and rig.get("array.hedges_lost") == 1
    assert isinstance(StripedArray.failure_cause(req), DiskFaultError)
    assert rig.get("array.demand_failures") == 1


def hedge_wins_during_the_backoff(edges):
    """The stuck primary times out with its hedge racing and backs off;
    the hedge wins; the retry comes due for a request that is DONE."""
    rig = Rig(edges, FaultPlan(hedge_after_s=0.002, **STUCK), parity=True,
              request_timeout_cycles=3_000_000,
              retry_backoff_cycles=50_000_000)
    req = rig.submit(0, DEMAND)
    rig.run()
    assert rig.done == [req] and not req.failed and req.attempts == 2
    assert rig.engine.clock.now > 50_000_000  # the late retry did fire
    assert rig.get("disk1.submitted") == 1  # ... and placed nothing
    assert rig.hedge_ledger() == (1, 1)


def primary_finishes_while_its_hedge_is_in_the_xor(edges):
    """The demand waits one service behind a prefetch; its hedge goes out
    2,000 cycles before it starts, so the peers have all answered and the
    XOR (4,096 cycles) is running when the primary finishes."""
    rig = Rig(edges, FaultPlan(hedge_after_s=(SERVICE - 2_000) / CPU_HZ),
              parity=True)
    rig.submit(rig.lbns_on(1)[5], PREFETCH)
    req = rig.submit(0, DEMAND)
    rig.run()
    assert req.notify_time == 2 * SERVICE and not req.reconstructed
    assert rig.get("array.hedges_cancelled") == 1
    assert rig.hedge_ledger() == (1, 1)
    # Nothing was left at a disk to abort, and no block was rebuilt.
    assert sum(rig.get(f"disk{d}.aborted") for d in range(4)) == 0
    assert rig.get("array.reconstructed_blocks") == 0


def reconstruction_child_out_of_retries(edges):
    rig = Rig(edges, FaultPlan(dead_disk=1, dead_at_s=0.0,
                               disk_error_rate=1.0),
              parity=True, retry_max_attempts=3)
    req = rig.submit(0, DEMAND)
    rig.run()
    assert req.failed and req.reconstructed
    assert isinstance(StripedArray.failure_cause(req), DiskFaultError)
    # Three children, the demand budget of three attempts each.
    assert rig.get("array.retries") == 6
    assert rig.get("array.faulted_attempts") == 0  # children do not count


def peer_dies_during_a_childs_backoff(edges):
    """The child on disk 2 is rejected (offline) and backs off; a demand
    observes disk 2's death; the child's retry finds the row gone."""
    plan = FaultPlan(dead_disk=1, dead_at_s=0.0,
                     offline_disk=2, offline_duration_s=0.001,
                     second_dead_disk=2, second_dead_at_s=0.005)
    rig = Rig(edges, plan, parity=True, retry_backoff_cycles=5_000_000)
    req = rig.submit(0, DEMAND)
    rig.at(2_000_000, rig.lbns_on(2)[0], DEMAND)
    rig.run()
    assert req.failed and rig.get("array.disk_deaths") == 2
    assert isinstance(StripedArray.failure_cause(req), DataLossError)
    assert rig.get("disk2.retries") == 1
    # The row, and the observer's own block (its peer disk 1 is dead).
    assert rig.get("faults.data_loss") == 2


def demand_joins_a_prefetch_under_reconstruction(edges):
    rig = Rig(edges, FaultPlan(dead_disk=1, dead_at_s=0.0), parity=True)
    rig.submit(rig.lbns_on(1)[1], DEMAND)
    rig.run(until=70_000)  # the death is known
    rig.submit(rig.lbns_on(0)[5], PREFETCH)  # disk 0 is busy with this
    req = rig.submit(0, PREFETCH)
    assert state_of(req) == "RECONSTRUCTING"
    children = req.recon.children
    assert not any(child.is_demand for child in children)
    rig.submit(0, DEMAND)
    # The child queued at disk 0 moved queues; those in service flipped.
    assert req.is_demand and all(child.is_demand for child in children)
    assert len(rig.array.disks[0]._demand_queue) == 1
    rig.run()
    assert req.done and not req.failed and rig.done.count(req) == 2


def second_reconstruction_racing_the_hedge(edges, **plan):
    """The stuck primary times out with its hedge racing; the prefetch
    queued behind it observes the death; the retry finds the disk dead
    and starts a reconstruction beside the hedge."""
    plan = FaultPlan(hedge_after_s=0.002, dead_disk=1,
                     dead_at_s=2_900_000 / CPU_HZ, **STUCK, **plan)
    rig = Rig(edges, plan, parity=True, request_timeout_cycles=3_000_000,
              retry_backoff_cycles=100_000)
    req = rig.submit(0, DEMAND)
    rig.at(500_000, 1, PREFETCH)
    rig.run(until=3_200_000)
    assert state_of(req) == "RECONSTRUCTING" and req.hedge is not None
    rig.run()
    assert rig.done.count(req) == 1 and not req.failed and req.reconstructed
    assert rig.hedge_ledger() == (1, 1)
    return rig, req


def hedge_finishes_before_the_second_reconstruction(edges):
    """Fix: the parent threw this hedge away (it found the primary at no
    disk and took the "finishing this very cycle" exit): the reader was
    notified at 7,249,464 and the hedge left the ledger."""
    rig, req = second_reconstruction_racing_the_hedge(edges)
    assert req.notify_time == 3_859_780
    assert rig.get("array.hedges_won") == 1
    # The late reconstruction ran to completion and was ignored.
    assert rig.get("array.degraded_reads") == 2
    assert rig.get("array.completed") == 2


def second_reconstruction_finishes_before_the_hedge(edges):
    # Disk 2 is offline from 1.5 ms to 34.5 ms.  The hedge's child there
    # has backed off longer than the reconstruction's by the time the
    # window closes, so the reconstruction gets through first.
    rig, req = second_reconstruction_racing_the_hedge(
        edges, offline_disk=2, offline_start_s=0.0015,
        offline_duration_s=0.033)
    assert rig.get("array.hedges_cancelled") == 1
    assert rig.get("array.hedges_won") == 0


def demand_joins_a_prefetch_awaiting_its_delayed_notice(edges):
    """Fix: the parent freed the prefetch's slot a second time here (under
    an injector): the count stuck at -1 and two prefetches sat at disk 0
    under a limit of one."""
    rig = Rig(edges, FaultPlan(), completion_delay_factor=2.0,
              max_prefetches_per_disk=1)
    req = rig.submit(0, PREFETCH)
    rig.engine.advance_to_next()
    assert rig.engine.clock.now == SERVICE  # read; notice due at 2x
    assert state_of(req) == "NOTIFYING"
    assert rig.submit(0, DEMAND) is req
    assert rig.array._inflight_prefetches[0] == 0
    rig.submit(1, PREFETCH)
    rig.submit(2, PREFETCH)
    assert rig.array._inflight_prefetches[0] == 1
    assert len(rig.array._held_prefetches[0]) == 1
    rig.run()
    assert req.notify_time == 2 * SERVICE
    assert rig.array._inflight_prefetches == [0, 0, 0, 0]


def hedge_timer_due_while_the_notice_is_delayed(edges):
    """Fix: the parent hedged a read that had finished at 3,389,684 when
    the timer fired at 4,000,000 — three peer accesses issued and aborted
    for a block already in hand."""
    rig = Rig(edges, FaultPlan(hedge_after_s=4_000_000 / CPU_HZ), parity=True,
              completion_delay_factor=2.0)
    req = rig.submit(0, DEMAND)
    assert req.hedge_event is not None
    rig.engine.advance_to_next()
    assert state_of(req) == "NOTIFYING" and req.hedge_event is None
    rig.run()
    assert req.notify_time == 2 * SERVICE
    assert rig.hedge_ledger() == (0, 0)
    assert sum(rig.get(f"disk{d}.accesses") for d in range(4)) == 1
    assert sum(rig.get(f"disk{d}.aborted") for d in range(4)) == 0


SCHEDULES = [
    plain_read_retry_and_delayed_notice,
    held_prefetch_joined_by_a_demand,
    held_prefetch_when_its_disk_dies_with_parity,
    held_prefetch_when_its_disk_dies_without_parity,
    read_of_a_known_dead_disk_without_parity,
    held_prefetch_stranded_by_a_second_death,
    backoff_when_the_disk_dies_to_the_peers,
    backoff_when_the_disk_dies_to_the_spare,
    backoff_when_the_disk_dies_without_parity,
    request_queued_at_a_dead_disk_until_the_spare_has_its_block,
    primary_dies_while_the_hedge_races_and_the_hedge_wins,
    primary_dies_then_the_hedge_loses_to_the_peers,
    primary_dies_then_the_hedge_loses_to_the_spare,
    primary_out_of_retries_and_the_hedge_wins,
    primary_out_of_retries_and_the_hedge_loses,
    hedge_wins_during_the_backoff,
    primary_finishes_while_its_hedge_is_in_the_xor,
    reconstruction_child_out_of_retries,
    peer_dies_during_a_childs_backoff,
    demand_joins_a_prefetch_under_reconstruction,
    hedge_finishes_before_the_second_reconstruction,
    second_reconstruction_finishes_before_the_hedge,
    demand_joins_a_prefetch_awaiting_its_delayed_notice,
    hedge_timer_due_while_the_notice_is_delayed,
]


@pytest.mark.parametrize("schedule", SCHEDULES, ids=lambda s: s.__name__)
def test_schedule(schedule):
    schedule(set())


def test_every_move_is_taken_and_no_other():
    taken = set()
    for schedule in SCHEDULES:
        schedule(taken)
    table = {(old, new) for old, news in striping._MOVES.items()
             for new in news}

    def names(edges):
        return sorted((old.name, new.name) for old, new in edges)

    assert names(taken - table) == [], "a move the table does not allow"
    assert names(table - taken) == [], "a move no schedule takes"


def test_module_docstring_renders_the_table():
    rows = {}
    for line in striping.__doc__.split("::\n", 1)[1].splitlines():
        if "->" in line:
            state, line = line.split("->")
        if line.strip():  # a continuation line belongs to the state above
            rows.setdefault(state.strip(), set()).update(line.split())
    assert rows == {old.name: {new.name for new in news}
                    for old, news in striping._MOVES.items() if news}


# ---------------------------------------------------------------------------
# Any schedule leaves the array clean
# ---------------------------------------------------------------------------

NBLOCKS = 48
SECONDS = st.sampled_from([0.0, 0.0005, 0.002, 0.008, 0.02, 0.05])


@st.composite
def fault_plans(draw):
    """None (no injector), an inactive plan, or any mix of the storage
    fault dimensions ``faults/generate.py`` samples — over wider ranges,
    because these runs last tens of accesses, not thousands."""
    if draw(st.integers(0, 5)) == 0:
        return None
    fields = {"seed": draw(st.integers(0, 999))}
    if draw(st.booleans()):
        fields["disk_error_rate"] = draw(st.sampled_from([0.05, 0.3, 1.0]))
    if draw(st.booleans()):
        fields.update(slow_factor=draw(st.sampled_from([5.0, 60.0, 1000.0])),
                      slow_start_s=draw(SECONDS),
                      slow_duration_s=draw(SECONDS))
    if draw(st.booleans()):
        fields.update(offline_disk=draw(st.integers(0, 3)),
                      offline_start_s=draw(SECONDS),
                      offline_duration_s=draw(SECONDS))
    if draw(st.booleans()):
        fields["hedge_after_s"] = draw(SECONDS)
    if draw(st.booleans()):
        fields.update(dead_disk=draw(st.integers(0, 3)),
                      dead_at_s=draw(SECONDS),
                      rebuild_share=draw(st.sampled_from([0.0, 0.9])))
        if draw(st.booleans()):
            fields.update(
                second_dead_disk=(fields["dead_disk"]
                                  + draw(st.integers(1, 3))) % 4,
                second_dead_at_s=fields["dead_at_s"] + draw(SECONDS))
    plan = FaultPlan(**fields)
    plan.validate()
    return plan


ARRAYS = st.fixed_dictionaries(dict(
    completion_delay_factor=st.sampled_from([1.0, 2.0]),
    max_prefetches_per_disk=st.integers(0, 2),
    hot_spares=st.integers(0, 1),
    retry_max_attempts=st.sampled_from([1, 3, 12]),
    prefetch_retry_attempts=st.integers(1, 2),
    retry_backoff_cycles=st.sampled_from([50_000, 2_000_000]),
    request_timeout_cycles=st.sampled_from([0, 5_000_000, 120_000_000]),
))

STEP = st.one_of(
    # A dozen blocks (they span every disk), so that reads often join.
    st.tuples(st.just("submit"), st.integers(0, 11),
              st.sampled_from([DEMAND, PREFETCH])),
    st.tuples(st.just("events"), st.integers(1, 6)),
)
STEPS = st.lists(STEP, min_size=8, max_size=40)


class Driven:
    """A small array driven by a generated schedule, with one counting
    callback per submit and every distinct request kept for inspection."""

    def __init__(self, array_cls, plan, params, parity):
        self.array, self.engine, self.stats = build(
            array_cls, plan, parity, NBLOCKS,
            stripe_unit=2 * BLOCK_SIZE, **params)
        self.requests = []
        self.calls = []
        self.completions = []

    def submit(self, lbn, kind):
        if kind is PREFETCH and not self.array.servable(lbn):
            return  # refused, as TipManager.start_prefetch refuses it
        index = len(self.calls)
        self.calls.append(0)

        def callback(request):
            self.calls[index] += 1
            self.completions.append(
                (request.lbn, request.notify_time, request.failed,
                 request.reconstructed, request.attempts))

        request = self.array.submit(lbn, kind, callback)
        if not any(request is seen for seen in self.requests):
            self.requests.append(request)

    def play(self, steps, after_each=lambda: None):
        """Run ``steps`` and drain.  Returns False when the rebuild engine
        gave up with its typed error (the run is over, by design)."""
        try:
            for step in steps:
                if step[0] == "submit":
                    self.submit(*step[1:])
                    after_each()
                else:
                    for _ in range(step[1]):
                        self.engine.advance_to_next()
                        after_each()
            while self.engine.advance_to_next():
                after_each()
        except (DataLossError, DiskFaultError):
            return False
        return True


@given(plan=fault_plans(), params=ARRAYS, parity=st.booleans(), steps=STEPS)
@settings(deadline=None)
def test_any_schedule_leaves_the_array_clean(plan, params, parity, steps):
    parity = parity or (plan is not None and plan.permanent_death)
    run = Driven(StripedArray, plan, params, parity)
    array, get = run.array, run.stats.get
    limit = params["max_prefetches_per_disk"]

    def slots_are_consistent():
        for disk_id, slots in enumerate(array._inflight_prefetches):
            # Exact, so never negative: one slot per prefetch at the disk.
            assert slots == sum(
                r.state.name == "AT_DISK" and r.kind is PREFETCH
                and r.disk_id == disk_id for r in run.requests)
            if array._held_prefetches[disk_id]:
                assert slots >= limit > 0  # held only behind a full disk
            # Admission respects the limit.  (A retried or re-routed
            # attempt is placed again without queueing behind it.)
            if limit > 0 and not get("array.retries") + get("array.disk_deaths"):
                assert slots <= limit

    if not run.play(steps, slots_are_consistent):
        return
    assert run.calls == [1] * len(run.calls)
    assert not array._outstanding
    assert not any(array._held_prefetches)
    assert not any(array._inflight_prefetches)
    for request in run.requests:
        assert request.done and request.state.name == "DONE"
        assert request.timeout_event is None and request.hedge_event is None
        assert request.hedge is None
        if request.failed:
            assert isinstance(StripedArray.failure_cause(request),
                              (DataLossError, IOTimeoutError, DiskFaultError))
    assert get("array.completed") == (
        get("array.demand_submitted") + get("array.prefetch_submitted"))
    assert get("array.hedges_issued") == (
        get("array.hedges_won") + get("array.hedges_cancelled")
        + get("array.hedges_lost"))
