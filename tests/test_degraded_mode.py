"""Degraded-mode resilience: parity, reconstruction, rebuild, hedging.

The tentpole invariant: on a parity array any *single* disk loss is
survivable — demand reads are reconstructed from the survivors, a hot
spare is resilvered in the background, and application output stays
byte-identical.  A double fault must fail loudly with a typed
:class:`~repro.errors.DataLossError`, never corrupt silently.
"""

import dataclasses

import pytest

from repro import cli
from repro.errors import DataLossError, DiskFaultError, InvalidBlockError, StorageError
from repro.faults.injector import FAULT_DATA_LOSS, FAULT_TRANSIENT, FaultInjector
from repro.faults.plan import FaultPlan, profile
from repro.harness.config import ExperimentConfig, Variant
from repro.harness.fuzz import run_fuzz_case
from repro.harness.oracle import oracle_case, run_oracle_cell
from repro.harness import runner
from repro.harness.runner import run_experiment
from repro.harness.tables import format_degraded_sweep
from repro.params import (
    BLOCKS_PER_STRIPE_UNIT,
    ArrayParams,
    CpuParams,
    DiskParams,
)
from repro.sim.clock import SimClock
from repro.sim.engine import EventEngine
from repro.sim.stats import StatRegistry
from repro.spechint.gate import CLOSED, RESTART, SUSPEND
from repro.storage.parity import ParityGeometry
from repro.storage.request import IOKind, IORequest, State
from repro.storage.striping import StripedArray
from repro.trace.analyzer import TraceAnalyzer
from repro.trace.tracer import Tracer
from tests.conftest import digest_of
from tests.spec_gate_reference import build_gate

SCALE = 0.3
#: A degraded run's workload-completion time may be at most this multiple of
#: the healthy run's: reconstruction fans one read out to every peer and
#: speculation is suspended, and rebuild-storm also hands the rebuild 90 %
#: of the bandwidth.  The rebuild's drain after the workload exits is left
#: out: it scales with the array's capacity, not with the workload.
SLOWDOWN_CEILINGS = {"disk-death": 5.0, "rebuild-storm": 15.0}
#: ``to_jsonable()`` of every cell of ``TestDegradedRuns.grid``, and of its
#: agrep fault-free and disk-death cells alone.  Every interpreter must
#: reproduce both; re-pin only after showing the old and new payloads equal
#: but for what a change meant to move.
GRID_DIGEST = (
    "4e80f91364cd4f39286fbf5f2240194c215003da0cfb7cd6eabd3aa6467d196c")
AGREP_DISK_DEATH_DIGEST = (
    "9ff436aa5eb9b5f79d9dc0365d139d47ee6835239328d5651adac335b5dbf840")


def make_parity_array(plan=None, nblocks=1024, hot_spares=1, **array_kwargs):
    """A parity array (optionally chaos-wired) plus its engine and stats."""
    clock = SimClock()
    engine = EventEngine(clock)
    stats = StatRegistry()
    cpu = CpuParams()
    injector = (
        FaultInjector(plan, cpu, clock, stats) if plan is not None else None
    )
    params = ArrayParams(
        redundancy="parity", hot_spares=hot_spares, **array_kwargs
    )
    array = StripedArray(nblocks, params, DiskParams(), cpu, engine, stats,
                         injector=injector)
    return array, engine, stats


def drain(engine):
    while engine.advance_to_next():
        pass


def lbn_on_disk(array, disk_id):
    """Some logical block whose home is ``disk_id``."""
    for lbn in range(array.nblocks):
        if array.map_block(lbn)[0] == disk_id:
            return lbn
    raise AssertionError(f"no block maps to disk {disk_id}")


class TestParityGeometry:
    def test_mapping_is_bijective(self):
        geometry = ParityGeometry(4, BLOCKS_PER_STRIPE_UNIT)
        seen = set()
        for lbn in range(1024):
            disk, physical = geometry.map_block(lbn)
            assert (disk, physical) not in seen
            seen.add((disk, physical))

    def test_parity_disk_rotates_and_holds_no_data(self):
        ndisks = 4
        geometry = ParityGeometry(ndisks, BLOCKS_PER_STRIPE_UNIT)
        for row in range(12):
            physical = row * BLOCKS_PER_STRIPE_UNIT
            assert geometry.parity_disk_of(physical) == row % ndisks
        # No data block ever lands on its row's parity disk.
        for lbn in range(4096):
            disk, physical = geometry.map_block(lbn)
            assert disk != geometry.parity_disk_of(physical)

    def test_peers_are_everyone_else(self):
        geometry = ParityGeometry(4, BLOCKS_PER_STRIPE_UNIT)
        assert sorted(geometry.peer_disks(2)) == [0, 1, 3]

    def test_parity_needs_two_disks(self):
        with pytest.raises(InvalidBlockError):
            ParityGeometry(1, BLOCKS_PER_STRIPE_UNIT)

    def test_single_disk_parity_array_rejected(self):
        with pytest.raises(InvalidBlockError):
            make_parity_array(ndisks=1)


class TestDegradedReads:
    def test_read_on_dead_disk_is_reconstructed(self):
        plan = FaultPlan(dead_disk=1, dead_at_s=0.0)
        array, engine, stats = make_parity_array(plan)
        done = []
        array.submit(lbn_on_disk(array, 1), IOKind.DEMAND, done.append)
        drain(engine)
        (req,) = done
        assert req.done and not req.failed
        assert req.reconstructed
        assert stats.get("array.disk_deaths") == 1
        assert stats.get("array.degraded_reads") >= 1
        assert stats.get("array.reconstructed_blocks") >= 1
        assert stats.get("faults.data_loss") == 0

    def test_reads_on_survivors_stay_normal(self):
        plan = FaultPlan(dead_disk=1, dead_at_s=0.0)
        array, engine, stats = make_parity_array(plan)
        done = []
        # Touch the dead disk once so the death is observed...
        array.submit(lbn_on_disk(array, 1), IOKind.DEMAND, done.append)
        # ...then read a block whose home survived.
        survivor_req = array.submit(lbn_on_disk(array, 2), IOKind.DEMAND,
                                    done.append)
        drain(engine)
        assert all(r.done and not r.failed for r in done)
        assert not survivor_req.reconstructed

    def test_death_without_parity_is_data_loss(self):
        plan = FaultPlan(dead_disk=0, dead_at_s=0.0)
        clock = SimClock()
        engine = EventEngine(clock)
        stats = StatRegistry()
        cpu = CpuParams()
        array = StripedArray(
            1024, ArrayParams(), DiskParams(), cpu, engine, stats,
            injector=FaultInjector(plan, cpu, clock, stats),
        )
        done = []
        array.submit(lbn_on_disk(array, 0), IOKind.DEMAND, done.append)
        drain(engine)
        (req,) = done
        assert req.failed
        assert req.fault == FAULT_DATA_LOSS
        assert isinstance(StripedArray.failure_cause(req), DataLossError)
        assert stats.get("faults.data_loss") == 1

    def test_degraded_property_tracks_death_and_rebuild(self):
        plan = FaultPlan(dead_disk=1, dead_at_s=0.0)
        array, engine, stats = make_parity_array(plan)
        assert not array.degraded
        array.submit(lbn_on_disk(array, 1), IOKind.DEMAND, lambda r: None)
        drain(engine)
        # Fully drained: the rebuild ran to completion, clearing degraded.
        assert stats.get("rebuild.completed") == 1
        assert not array.degraded


class TestRebuild:
    def test_rebuild_resilvers_every_block_onto_spare(self):
        plan = FaultPlan(dead_disk=1, dead_at_s=0.0)
        array, engine, stats = make_parity_array(plan)
        array.submit(lbn_on_disk(array, 1), IOKind.DEMAND, lambda r: None)
        drain(engine)
        (rebuild,) = array.rebuilds
        assert rebuild.complete
        assert rebuild.watermark == rebuild.total_blocks
        assert rebuild.spare_id == array.array.ndisks  # first hot spare
        assert stats.get("rebuild.blocks_resilvered") == rebuild.total_blocks
        assert stats.get("rebuild.completed_cycle") == rebuild.completed_at > 0

    def test_no_spare_means_no_rebuild_but_reads_survive(self):
        plan = FaultPlan(dead_disk=1, dead_at_s=0.0)
        array, engine, stats = make_parity_array(plan, hot_spares=0)
        done = []
        array.submit(lbn_on_disk(array, 1), IOKind.DEMAND, done.append)
        drain(engine)
        assert done[0].done and not done[0].failed
        assert stats.get("rebuild.started") == 0
        assert array.degraded  # stays degraded forever, but serves reads

    def test_resilvered_blocks_served_from_spare(self):
        plan = FaultPlan(dead_disk=1, dead_at_s=0.0)
        array, engine, stats = make_parity_array(plan)
        array.submit(lbn_on_disk(array, 1), IOKind.DEMAND, lambda r: None)
        drain(engine)  # rebuild completes
        done = []
        req = array.submit(lbn_on_disk(array, 1), IOKind.DEMAND, done.append)
        drain(engine)
        # Routed to the spare: a plain read, not a reconstruction.
        assert req.done and not req.failed and not req.reconstructed
        assert req.disk_id == array.array.ndisks

    def test_gentle_share_rebuilds_slower_than_flat_out(self):
        def completion_cycle(share):
            plan = FaultPlan(dead_disk=1, dead_at_s=0.0)
            array, engine, stats = make_parity_array(
                plan, rebuild_bandwidth_share=share,
            )
            array.submit(lbn_on_disk(array, 1), IOKind.DEMAND, lambda r: None)
            drain(engine)
            return stats.get("rebuild.completed_cycle")

        assert completion_cycle(0.1) > completion_cycle(1.0)

    def test_peers_that_keep_failing_end_the_rebuild_with_a_typed_error(self):
        plan = FaultPlan(dead_disk=1, dead_at_s=0.0, disk_error_rate=1.0)
        array, engine, stats = make_parity_array(plan)
        array.submit(lbn_on_disk(array, 1), IOKind.DEMAND, lambda r: None)
        with pytest.raises(DiskFaultError, match="rebuild of disk 1 exhausted retries "
                                                 "reading peers for physical block 0"):
            drain(engine)
        assert stats.get("rebuild.completed") == 0

    def test_a_spare_that_keeps_failing_ends_the_rebuild_with_a_typed_error(self):
        # No fault plan names the spare: fault it by hand.
        array, engine, stats = make_parity_array(FaultPlan(dead_disk=1, dead_at_s=0.0))
        spare, judge = array.array.ndisks, array.injector.on_disk_service
        array.injector.on_disk_service = lambda disk_id, request, cycles: (
            (cycles, FAULT_TRANSIENT) if disk_id == spare
            else judge(disk_id, request, cycles))
        array.submit(lbn_on_disk(array, 1), IOKind.DEMAND, lambda r: None)
        with pytest.raises(DiskFaultError, match=f"rebuild write of physical block 0 to "
                                                 f"spare {spare} failed \\(transient\\)"):
            drain(engine)
        assert stats.get("rebuild.completed") == 0

    def test_a_rebuild_left_with_no_event_is_a_typed_stall(self, monkeypatch):
        array, engine, _ = make_parity_array(FaultPlan(dead_disk=1, dead_at_s=0.0))
        array.submit(lbn_on_disk(array, 1), IOKind.DEMAND, lambda r: None)
        while not array.rebuild_active:
            engine.advance_to_next()
        monkeypatch.setattr(engine, "advance_to_next", lambda: False)
        with pytest.raises(StorageError, match="rebuild stalled: event queue empty"):
            array.drain_rebuild()

    def test_a_child_finishing_for_a_cancelled_set_is_dropped(self):
        array, _, _ = make_parity_array()
        ended = []
        child_set = array.spawn_spare_write(
            array.array.ndisks, 0, ended.append, lambda cs, fault: ended.append(fault),
            label="test")
        array._cancel(child_set)
        array._child_finished(child_set.children[0], child_set)
        assert ended == [] and child_set.remaining == 1

    def test_a_move_the_table_forbids_names_the_request(self):
        array, _, _ = make_parity_array()
        request = IORequest(7, IOKind.DEMAND)
        with pytest.raises(AssertionError, match=r"request lbn=7 \(demand, disk .*\) "
                                                 r"cannot move from HELD to NOTIFYING"):
            array._move(request, State.NOTIFYING)

    def test_second_death_during_rebuild_raises_typed_error(self):
        plan = FaultPlan(dead_disk=1, dead_at_s=0.0,
                         second_dead_disk=2, second_dead_at_s=0.001)
        array, engine, stats = make_parity_array(plan)
        array.submit(lbn_on_disk(array, 1), IOKind.DEMAND, lambda r: None)
        with pytest.raises(DataLossError):
            drain(engine)


class TestHedging:
    # Primary dispatched at t=0 lands in a 1 ms stuck window (1000x
    # service); the hedge fires at 2 ms, after the window, so its peer
    # reads run at full speed and win the race by orders of magnitude.
    STUCK = dict(slow_factor=1000.0, slow_start_s=0.0, slow_duration_s=0.001)

    def test_hedge_wins_against_stuck_primary(self):
        plan = FaultPlan(hedge_after_s=0.002, **self.STUCK)
        array, engine, stats = make_parity_array(plan)
        done = []
        req = array.submit(0, IOKind.DEMAND, done.append)
        drain(engine)
        assert len(done) == 1  # exactly one completion
        assert req.done and not req.failed
        assert req.reconstructed
        assert stats.get("array.hedges_issued") == 1
        assert stats.get("array.hedges_won") == 1
        assert stats.get(f"disk{req.disk_id}.hedges") == 1
        assert stats.get("disk0.aborted") + stats.get("disk1.aborted") \
            + stats.get("disk2.aborted") + stats.get("disk3.aborted") >= 1

    def test_fast_primary_cancels_hedge(self):
        # Hedge armed almost immediately; the primary (no slow window)
        # started first on the same-speed disks and wins.
        plan = FaultPlan(hedge_after_s=0.000001, disk_error_rate=0.0,
                         hint_drop_rate=0.000001)  # active plan, clean disks
        array, engine, stats = make_parity_array(plan)
        done = []
        req = array.submit(0, IOKind.DEMAND, done.append)
        drain(engine)
        assert len(done) == 1
        assert req.done and not req.failed and not req.reconstructed
        assert stats.get("array.hedges_issued") == 1
        assert stats.get("array.hedges_won") == 0
        assert stats.get("array.hedges_cancelled") == 1

    def test_hedges_never_armed_for_prefetches(self):
        plan = FaultPlan(hedge_after_s=0.002, **self.STUCK)
        array, engine, stats = make_parity_array(plan)
        req = array.submit(0, IOKind.PREFETCH, lambda r: None)
        assert req.hedge_event is None
        drain(engine)
        assert stats.get("array.hedges_issued") == 0

    def test_hedges_need_parity(self):
        plan = FaultPlan(hedge_after_s=0.002, **self.STUCK)
        clock = SimClock()
        engine = EventEngine(clock)
        stats = StatRegistry()
        cpu = CpuParams()
        array = StripedArray(
            1024, ArrayParams(), DiskParams(), cpu, engine, stats,
            injector=FaultInjector(plan, cpu, clock, stats),
        )
        req = array.submit(0, IOKind.DEMAND, lambda r: None)
        assert req.hedge_event is None
        drain(engine)
        assert stats.get("array.hedges_issued") == 0

    def test_timeout_during_hedge_race_no_double_completion(self):
        """The satellite invariant: a primary timeout while the hedge
        races must retry the primary, let the hedge win, and complete the
        request exactly once with the timeout disarmed."""
        plan = FaultPlan(hedge_after_s=0.002, **self.STUCK)
        array, engine, stats = make_parity_array(
            plan,
            # Fires after the hedge spawns (~2M cycles) but long before
            # the stuck primary (~3.4G cycles) could finish.
            request_timeout_cycles=3_000_000,
            retry_backoff_cycles=50_000_000,
        )
        done = []
        req = array.submit(0, IOKind.DEMAND, done.append)
        assert req.timeout_event is not None
        drain(engine)
        assert len(done) == 1
        assert req.done and not req.failed
        assert req.timeout_event is None  # disarmed exactly once
        assert req.hedge is None and req.hedge_event is None
        assert stats.get("array.timeouts") == 1
        assert stats.get(f"disk{req.disk_id}.timeouts") == 1
        assert stats.get("array.hedges_won") == 1

    def test_timeout_resubmit_completes_when_hedge_lost_already(self):
        """A timed-out primary's resubmit still owns the request when no
        hedge survives: the retry (after the stuck window) completes it."""
        plan = FaultPlan(hedge_after_s=0.0, **self.STUCK)
        array, engine, stats = make_parity_array(
            plan,
            request_timeout_cycles=5_000_000,
            retry_backoff_cycles=5_000_000,
        )
        done = []
        req = array.submit(0, IOKind.DEMAND, done.append)
        drain(engine)
        assert len(done) == 1
        assert req.done and not req.failed
        assert req.attempts > 1
        assert stats.get("array.timeouts") >= 1
        assert stats.get("array.hedges_issued") == 0


class TestWatchdogSuspension:
    def test_suspend_resume_cycle(self):
        built = build_gate()
        dog = built.gate
        assert dog.on_read(True, lambda: False) == SUSPEND
        assert dog.suspended
        assert dog.on_read(True, lambda: False) == CLOSED  # idempotent
        assert dog.on_read(False, lambda: False) == RESTART  # resumed
        assert not dog.suspended
        assert built.stats.get("spec.degraded_suspensions") == 1
        assert built.stats.get("spec.degraded_resumes") == 1

    def test_suspension_is_not_a_trip(self):
        dog = build_gate().gate
        dog.on_read(True, lambda: False)
        assert dog.closed
        assert dog.trip_reason is None

    def test_repr_mentions_suspension(self):
        dog = build_gate().gate
        dog.on_read(True, lambda: False)
        assert "suspended" in repr(dog)


class TestAutoParity:
    def test_permanent_death_profile_enables_parity(self):
        cfg = ExperimentConfig(app="agrep", fault_plan=profile("disk-death"))
        system = cfg.resolved_system()
        assert system.array.redundancy == "parity"
        assert system.array.hot_spares >= 1

    def test_fault_free_config_stays_plain_striping(self):
        cfg = ExperimentConfig(app="agrep")
        assert cfg.resolved_system().array.redundancy == "none"

    def test_survivable_profiles_stay_plain_striping(self):
        cfg = ExperimentConfig(app="agrep", fault_plan=profile("transient-errors"))
        assert cfg.resolved_system().array.redundancy == "none"


class TestDegradedRuns:
    """Whole-system runs under the permanent-death profiles."""

    @pytest.fixture(scope="class")
    def grid(self):
        """``{"app/profile": result}``: agrep and gnuld speculating, healthy
        (``none``) and under each survivable death profile."""
        return {
            f"{app}/{name}": run_experiment(ExperimentConfig(
                app=app, variant=Variant.SPECULATING, workload_scale=SCALE,
                fault_plan=None if name == "none" else profile(name),
            ))
            for app in ("agrep", "gnuld")
            for name in ("none", *SLOWDOWN_CEILINGS)
        }

    @pytest.fixture(scope="class")
    def dead(self, grid):
        return grid["agrep/disk-death"]

    def test_output_identical_and_rebuild_completes(self, grid):
        for key, degraded in grid.items():
            app, name = key.split("/")
            if name == "none":
                continue
            healthy = grid[f"{app}/none"]
            assert degraded.output == healthy.output, key
            assert (degraded.workload_elapsed_s / healthy.elapsed_s
                    <= SLOWDOWN_CEILINGS[name]), key
            assert degraded.disk_deaths == 1, key
            assert degraded.degraded_reads > 0, key
            assert degraded.reconstructed_blocks > 0, key
            assert degraded.rebuild_completed, key
            assert degraded.rebuild_completed_cycle > 0, key
            assert degraded.data_loss_events == 0, key

    def test_speculation_sheds_load_while_degraded(self, dead):
        assert dead.prefetches_shed_degraded > 0
        assert dead.c("spec.degraded_suspensions") >= 1
        # Suspension is a policy pause, not a watchdog trip.
        assert dead.watchdog_tripped is None

    def test_same_seed_runs_are_bit_identical(self, grid, dead):
        again = run_experiment(ExperimentConfig(
            app="agrep", variant=Variant.SPECULATING, workload_scale=SCALE,
            fault_plan=profile("disk-death"),
        ))
        assert again.cycles == dead.cycles
        assert again.counters == dead.counters
        assert again.output == dead.output
        # ... and in every process, on every interpreter.
        payloads = {key: result.to_jsonable() for key, result in grid.items()}
        assert digest_of(payloads) == GRID_DIGEST
        agrep = {key: payloads[key] for key in ("agrep/none", "agrep/disk-death")}
        assert digest_of(agrep) == AGREP_DISK_DEATH_DIGEST

    def test_double_fault_raises_typed_error_in_both_variants(self):
        for variant in (Variant.ORIGINAL, Variant.SPECULATING):
            with pytest.raises(DataLossError):
                run_experiment(ExperimentConfig(
                    app="agrep", variant=variant, workload_scale=SCALE,
                    fault_plan=profile("double-fault"),
                ))

    def test_oracle_passes_on_survivable_death_profiles(self):
        for profile in ("disk-death", "rebuild-storm"):
            cell = run_oracle_cell("agrep", profile, workload_scale=SCALE)
            assert cell.passed, f"{profile}: {cell.detail}"

    def test_oracle_expects_symmetric_loss_on_double_fault(self):
        cell = run_fuzz_case(oracle_case("agrep", "double-fault"),
                             workload_scale=SCALE)
        assert cell.passed
        assert cell.escapes == {"original": "DataLossError",
                                "speculating": "DataLossError"}

    def test_run_and_trace_print_the_one_degraded_report(self, grid, monkeypatch, capsys):
        storm = grid["gnuld/rebuild-storm"]
        report = [
            "degraded mode:    1 disk death(s), 58 degraded reads, 267 blocks reconstructed",
            "hedging:          30 issued, 1 won",
            "rebuild:          done @1.259s (208 blocks)",
            "load shedding:    785 prefetches shed while degraded",
        ]
        assert storm.degraded_report() == report
        assert grid["gnuld/none"].degraded_report() == []

        monkeypatch.setattr(runner, "run_experiment", lambda cfg: storm)
        assert cli.main(["run", "gnuld", "--scale", "0.3", "--chaos", "rebuild-storm"]) == 0
        printed = capsys.readouterr().out.splitlines()
        start = printed.index(f"  {report[0]}")
        assert printed[start - 1].startswith("  chaos:            profile rebuild-storm")
        assert printed[start:start + 4] == [f"  {line}" for line in report]

        summary = TraceAnalyzer(Tracer(SimClock()), result=storm).render_summary()
        assert summary.splitlines()[-5:-1] == report

    def test_a_death_without_a_finished_rebuild_reads_incomplete(self, dead):
        counters = {name: value for name, value in dead.counters.items()
                    if not name.startswith("rebuild.")}
        stalled = dataclasses.replace(dead, counters=counters)
        assert stalled.rebuild_status() == "INCOMPLETE"
        assert stalled.degraded_report()[2] == "rebuild:          INCOMPLETE"

    def test_the_degraded_sweep_table_takes_the_same_rebuild_status(self, grid):
        apps, regimes = ("agrep", "gnuld"), ("none", *SLOWDOWN_CEILINGS)
        # The grid runs speculating cells only; they stand in for both columns.
        sweep = {name: {app: dict.fromkeys(("original", "speculating"), grid[f"{app}/{name}"])
                        for app in apps}
                 for name in regimes}
        rows = format_degraded_sweep(sweep).splitlines()[3:]
        assert rows == [
            "Agrep                   none     0.05s     0.05s         -       0       0      0  -",
            "Agrep             disk-death     1.06s     1.06s    23.22x     245       0     67  "
            "done @1.064s (216 blocks)",
            "Agrep          rebuild-storm     0.74s     0.74s    16.08x     243       0    123  "
            "done @0.737s (216 blocks)",
            "Gnuld                   none     0.24s     0.24s         -       0       0      0  -",
            "Gnuld             disk-death     1.53s     1.53s     6.48x     296       0    369  "
            "done @1.531s (208 blocks)",
            "Gnuld          rebuild-storm     1.26s     1.26s     5.33x     267       1    785  "
            "done @1.259s (208 blocks)",
        ]
        for name in regimes:
            for app in apps:
                assert grid[f"{app}/{name}"].rebuild_status() in rows[
                    regimes.index(name) + 3 * apps.index(app)]

    def test_per_disk_counters_surface_in_results(self, grid):
        per_disk = grid["agrep/rebuild-storm"].per_disk_io_counters()
        assert per_disk, "rebuild-storm must record per-disk retries"
        for disk_id, counters in per_disk.items():
            assert isinstance(disk_id, int)
            assert set(counters) <= {"retries", "timeouts", "hedges"}
            assert all(v > 0 for v in counters.values())
