"""Unit tests for the fault-injection subsystem: plans, injector, and the
speculation gate's watchdog triggers."""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    DiskFaultError,
    FaultError,
    IOTimeoutError,
    ReproError,
    RetriesExhausted,
)
from repro.faults.injector import (
    FAULT_OFFLINE,
    FAULT_TRANSIENT,
    FaultInjector,
)
from repro.faults.plan import PROFILES, FaultPlan, profile
from repro.fs.filesystem import FileSystem
from repro.params import BLOCK_SIZE, CpuParams
from repro.sim.clock import SimClock
from repro.sim.stats import StatRegistry
from repro.spechint.gate import CLOSED, RESTART
from repro.storage.request import IOKind, IORequest
from tests.spec_gate_reference import build_gate


class TestErrorHierarchy:
    def test_fault_errors_are_repro_errors(self):
        for cls in (DiskFaultError, IOTimeoutError, RetriesExhausted):
            assert issubclass(cls, FaultError)
            assert issubclass(cls, ReproError)


class TestFaultPlan:
    def test_default_plan_is_inert(self):
        assert not FaultPlan().active

    def test_every_builtin_profile_except_none_is_active(self):
        for name, plan in PROFILES.items():
            assert plan.name == name
            assert plan.active == (name != "none")

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="unknown fault profile"):
            profile("full-moon")

    def test_profile_reseeding(self):
        plan = profile("transient-errors", seed=99)
        assert plan.seed == 99
        assert PROFILES["transient-errors"].seed == 7  # original untouched

    def test_with_seed_preserves_rates(self):
        plan = PROFILES["hint-corruption"].with_seed(3)
        assert plan.hint_drop_rate == PROFILES["hint-corruption"].hint_drop_rate
        assert plan.seed == 3

    def test_slow_window_requires_duration(self):
        assert not FaultPlan(slow_factor=50.0).active
        assert FaultPlan(slow_factor=50.0, slow_duration_s=0.01).active

    def test_offline_requires_disk_and_duration(self):
        assert not FaultPlan(offline_disk=0).active
        assert FaultPlan(offline_disk=0, offline_duration_s=0.01).active

    def test_with_seed_round_trips(self):
        for name, plan in PROFILES.items():
            # Re-seeding with the original seed is the identity...
            assert plan.with_seed(plan.seed) == plan
            # ...and any re-seeding preserves everything but the seed.
            reseeded = plan.with_seed(plan.seed + 1)
            assert reseeded.active == plan.active
            assert reseeded.with_seed(plan.seed) == plan

    def test_unknown_profile_error_lists_every_known_profile(self):
        with pytest.raises(ValueError) as excinfo:
            profile("full-moon")
        message = str(excinfo.value)
        for name in PROFILES:
            assert name in message

    def test_permanent_death_makes_a_plan_active(self):
        plan = FaultPlan(dead_disk=0)
        assert plan.active
        assert plan.permanent_death
        assert not plan.expects_data_loss

    def test_data_loss_expected_only_for_double_faults(self):
        expecting = {name for name, plan in PROFILES.items()
                     if plan.expects_data_loss}
        assert expecting == {"double-fault"}
        # A second death without a first is not a double fault.
        assert not FaultPlan(second_dead_disk=1).expects_data_loss


def make_injector(plan):
    clock = SimClock()
    stats = StatRegistry()
    return FaultInjector(plan, CpuParams(), clock, stats), clock, stats


def request(lbn=0):
    return IORequest(lbn=lbn, kind=IOKind.DEMAND)


class TestInjectorDiskFaults:
    def test_inert_plan_never_faults(self):
        injector, _, stats = make_injector(FaultPlan())
        for lbn in range(50):
            cycles, fault = injector.on_disk_service(0, request(lbn), 1000)
            assert cycles == 1000 and fault is None
        assert stats.snapshot() == {}

    def test_transient_rate_roughly_respected(self):
        injector, _, stats = make_injector(FaultPlan(disk_error_rate=0.2))
        faults = sum(
            injector.on_disk_service(0, request(i), 1000)[1] == FAULT_TRANSIENT
            for i in range(500)
        )
        assert 50 < faults < 150  # ~100 expected
        assert stats.get("faults.disk_transient_errors") == faults

    def test_offline_window_fails_fast(self):
        plan = FaultPlan(offline_disk=1, offline_start_s=0.0,
                         offline_duration_s=0.001)
        injector, clock, stats = make_injector(plan)
        cycles, fault = injector.on_disk_service(1, request(), 1000)
        assert fault == FAULT_OFFLINE
        assert cycles < 1000  # command-overhead reject, no media access
        # Other disks are unaffected.
        assert injector.on_disk_service(0, request(), 1000) == (1000, None)
        # After the window the disk recovers.
        clock.advance(CpuParams().cycles(0.002))
        assert injector.on_disk_service(1, request(), 1000) == (1000, None)
        assert stats.get("faults.disk_offline_rejects") == 1

    def test_slow_window_stretches_service(self):
        plan = FaultPlan(slow_factor=10.0, slow_start_s=0.0,
                         slow_duration_s=0.001)
        injector, clock, stats = make_injector(plan)
        cycles, fault = injector.on_disk_service(0, request(), 1000)
        assert (cycles, fault) == (10_000, None)
        clock.advance(CpuParams().cycles(0.002))
        assert injector.on_disk_service(0, request(), 1000) == (1000, None)
        assert stats.get("faults.disk_slow_services") == 1

    def test_offline_window_open_past_end_of_run(self):
        """A window whose end lies beyond the run keeps the disk offline
        for the run's whole remainder — it must never wrap or re-enable."""
        plan = FaultPlan(offline_disk=0, offline_start_s=0.001,
                         offline_duration_s=1e9)
        injector, clock, stats = make_injector(plan)
        # Before the window opens the disk serves normally.
        assert injector.on_disk_service(0, request(), 1000) == (1000, None)
        clock.advance(CpuParams().cycles(0.002))
        assert injector.on_disk_service(0, request(), 1000)[1] == FAULT_OFFLINE
        # Arbitrarily far past any plausible end-of-run: still offline.
        clock.advance(CpuParams().cycles(3600.0))
        assert injector.on_disk_service(0, request(), 1000)[1] == FAULT_OFFLINE
        assert stats.get("faults.disk_offline_rejects") == 2

    def test_same_seed_same_decisions(self):
        plan = FaultPlan(disk_error_rate=0.3)
        a, _, _ = make_injector(plan)
        b, _, _ = make_injector(plan)
        decisions_a = [a.on_disk_service(0, request(i), 100) for i in range(200)]
        decisions_b = [b.on_disk_service(0, request(i), 100) for i in range(200)]
        assert decisions_a == decisions_b

    def test_different_seed_different_decisions(self):
        plan = FaultPlan(disk_error_rate=0.3)
        a, _, _ = make_injector(plan)
        b, _, _ = make_injector(plan.with_seed(8))
        decisions_a = [a.on_disk_service(0, request(i), 100)[1] for i in range(200)]
        decisions_b = [b.on_disk_service(0, request(i), 100)[1] for i in range(200)]
        assert decisions_a != decisions_b

    def test_disks_draw_from_independent_streams(self):
        plan = FaultPlan(disk_error_rate=0.3)
        a, _, _ = make_injector(plan)
        d0 = [a.on_disk_service(0, request(i), 100)[1] for i in range(200)]
        d1 = [a.on_disk_service(1, request(i), 100)[1] for i in range(200)]
        assert d0 != d1


class TestInjectorHintChannel:
    def _inode(self):
        fs = FileSystem()
        return fs.create("f.dat", bytes(4 * BLOCK_SIZE))

    def test_clean_channel_passes_hints_through(self):
        injector, _, _ = make_injector(FaultPlan())
        inode = self._inode()
        assert injector.filter_hint(inode, 100, 200) == (100, 200)

    def test_drop_rate_one_drops_everything(self):
        injector, _, stats = make_injector(FaultPlan(hint_drop_rate=1.0))
        inode = self._inode()
        for _ in range(10):
            assert injector.filter_hint(inode, 0, 100) is None
        assert stats.get("faults.hints_dropped") == 10

    def test_corruption_rewrites_but_never_drops(self):
        injector, _, stats = make_injector(FaultPlan(hint_corrupt_rate=1.0))
        inode = self._inode()
        for _ in range(20):
            delivered = injector.filter_hint(inode, 0, 100)
            assert delivered is not None
            offset, length = delivered
            assert length >= 1
        assert stats.get("faults.hints_corrupted") == 20


class TestInjectorSpecFaults:
    def test_zero_rate_never_diverges(self):
        injector, _, _ = make_injector(FaultPlan())
        assert not any(injector.force_divergence() for _ in range(100))

    def test_rate_one_always_diverges(self):
        injector, _, stats = make_injector(FaultPlan(spec_divergence_rate=1.0))
        assert all(injector.force_divergence() for _ in range(10))
        assert stats.get("faults.spec_divergence") == 10


def read(gate, matched):
    """One original-thread read on a healthy array."""
    return gate.on_read(False, lambda: matched)


class TestWatchdog:
    def test_restart_storm_trips_at_limit(self):
        built = build_gate(watchdog_restart_limit=3)
        dog = built.gate
        assert dog.on_restart() is None
        assert dog.on_restart() is None
        assert dog.on_restart() == "watchdog_disabled"
        assert dog.closed
        assert dog.trip_reason == "restart_storm"
        assert built.trips == ["restart_storm"]

    def test_match_resets_consecutive_restarts(self):
        dog = build_gate(watchdog_restart_limit=3).gate
        dog.on_restart()
        dog.on_restart()
        read(dog, matched=True)
        assert dog.on_restart() is None
        assert dog.trip_reason is None

    def test_mismatch_does_not_reset(self):
        dog = build_gate(watchdog_restart_limit=3).gate
        dog.on_restart()
        dog.on_restart()
        read(dog, matched=False)
        assert dog.on_restart() == "watchdog_disabled"

    def test_fault_storm_is_cumulative(self):
        dog = build_gate(watchdog_fault_limit=5).gate
        for _ in range(4):
            dog.on_fault()
            assert dog.trip_reason is None
        read(dog, matched=True)  # matches do not forgive faults
        dog.on_fault()
        assert dog.trip_reason == "fault_storm"

    def test_low_accuracy_needs_full_window(self):
        dog = build_gate(watchdog_min_accuracy=0.5,
                         watchdog_accuracy_window=4).gate
        assert read(dog, False) == RESTART
        assert read(dog, False) == RESTART
        assert read(dog, False) == RESTART  # window not full yet
        assert read(dog, False) == CLOSED
        assert dog.trip_reason == "low_accuracy"

    def test_accurate_window_does_not_trip(self):
        dog = build_gate(watchdog_min_accuracy=0.5,
                         watchdog_accuracy_window=4).gate
        for _ in range(8):
            read(dog, True)
        assert dog.trip_reason is None
        assert dog.accuracy == 1.0

    def test_zero_limits_disable_triggers(self):
        dog = build_gate(watchdog_restart_limit=0, watchdog_fault_limit=0,
                         watchdog_min_accuracy=0.0).gate
        for _ in range(1000):
            dog.on_restart()
            dog.on_fault()
            read(dog, False)
        assert dog.trip_reason is None

    def test_first_trip_reason_sticks(self):
        built = build_gate(watchdog_restart_limit=1, watchdog_fault_limit=1)
        built.gate.on_restart()
        built.gate.on_fault()
        assert built.gate.trip_reason == "restart_storm"
        # A later trigger still reaches the trip response, with the first
        # reason.
        assert built.trips == ["restart_storm", "restart_storm"]

    @settings(max_examples=300, deadline=None)
    @given(window=st.integers(1, 12),
           min_accuracy=st.sampled_from([0.02, 0.25, 0.5, 0.75, 1.0]),
           checks=st.lists(st.booleans(), max_size=80))
    def test_running_count_trips_where_the_window_sum_does(
            self, window, min_accuracy, checks):
        """The accuracy is kept as a running match count; the sliding
        window's ``sum()`` gives the same fraction at every check, so the
        trip comes at the same read."""
        dog = build_gate(watchdog_restart_limit=0, watchdog_fault_limit=0,
                         watchdog_min_accuracy=min_accuracy,
                         watchdog_accuracy_window=window).gate
        recent = deque(maxlen=window)
        for matched in checks:
            recent.append(matched)
            expected = (len(recent) == window
                        and sum(recent) / len(recent) < min_accuracy)
            assert (read(dog, matched) == CLOSED) == expected
            assert dog.accuracy == sum(recent) / len(recent)
            if expected:
                assert dog.trip_reason == "low_accuracy"
                break

    def test_repr_mentions_state(self):
        dog = build_gate(watchdog_restart_limit=1).gate
        assert "open" in repr(dog)
        dog.on_restart()
        assert "tripped:restart_storm" in repr(dog)
