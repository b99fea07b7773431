"""End-to-end chaos tests: whole benchmark runs under fault profiles.

The load-bearing invariant from the paper's safety argument: speculation
and hints are *only* an optimization, so no injected fault — lost hints,
flaky disks, restart storms — may ever change application output.  Every
test here compares a chaos run against the fault-free run of the same
workload.
"""

import pytest

from repro.faults.plan import PROFILES, profile
from repro.harness.config import ExperimentConfig, Variant
from repro.harness.runner import run_experiment
from repro.params import SpecHintParams, SystemConfig

SCALE = 0.3

# Output identity holds for every survivable profile — including the
# permanent-death ones, which auto-enable parity redundancy and recover
# through degraded reads.  Profiles that *expect* data loss (double
# faults) terminate with a typed DataLossError instead of output and are
# covered by tests/test_degraded_mode.py.
CHAOS_PROFILES = sorted(
    name for name in PROFILES
    if name != "none" and not PROFILES[name].expects_data_loss
)


def base_config(**kwargs):
    return ExperimentConfig(
        app="agrep", variant=Variant.SPECULATING, workload_scale=SCALE,
        **kwargs,
    )


@pytest.fixture(scope="module")
def clean_result():
    return run_experiment(base_config())


class TestOutputIdentity:
    @pytest.mark.parametrize("profile_name", CHAOS_PROFILES)
    def test_profile_preserves_output(self, profile_name, clean_result):
        result = run_experiment(base_config(fault_plan=profile(profile_name)))
        assert result.output == clean_result.output
        assert result.fault_profile == profile_name
        assert result.fault_events(), "profile injected nothing"

    def test_chaos_run_reads_same_data(self, clean_result):
        result = run_experiment(base_config(fault_plan=profile("transient-errors")))
        assert result.read_calls == clean_result.read_calls
        assert result.read_bytes == clean_result.read_bytes


class TestDeterminism:
    def test_same_fault_seed_bit_for_bit(self):
        cfg = base_config(fault_plan=profile("offline-disk"))
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a.cycles == b.cycles
        assert a.counters == b.counters
        assert a.output == b.output
        assert a.fault_events() == b.fault_events()

    def test_different_fault_seed_different_faults(self):
        a = run_experiment(base_config(fault_plan=profile("transient-errors")))
        b = run_experiment(base_config(
            fault_plan=profile("transient-errors", seed=1234)))
        assert a.output == b.output  # output identity holds for any seed
        assert a.fault_events() != b.fault_events()

    def test_none_profile_matches_no_profile(self, clean_result):
        result = run_experiment(base_config(fault_plan=profile("none")))
        # An inactive plan is a fault-free run, and is recorded as one.
        assert result.fault_profile is None
        assert result.to_jsonable() == clean_result.to_jsonable()
        assert result.cycles == clean_result.cycles
        assert result.counters == clean_result.counters
        assert result.output == clean_result.output

    def test_fault_free_run_records_no_fault_events(self, clean_result):
        assert clean_result.fault_events() == {}
        assert clean_result.watchdog_tripped is None


class TestDegradation:
    def test_transient_errors_survived_by_retries(self, clean_result):
        result = run_experiment(base_config(fault_plan=profile("transient-errors")))
        assert result.io_retries > 0
        assert result.c("array.demand_failures") == 0
        assert result.output == clean_result.output

    def test_offline_disk_drops_prefetches_not_reads(self, clean_result):
        result = run_experiment(base_config(fault_plan=profile("offline-disk")))
        assert result.disk_faults > 0
        assert result.c("array.demand_failures") == 0
        assert result.output == clean_result.output

    def test_hint_corruption_degrades_not_breaks(self, clean_result):
        result = run_experiment(base_config(fault_plan=profile("hint-corruption")))
        assert (result.c("faults.hints_dropped")
                + result.c("faults.hints_corrupted")) > 0
        # Garbage hints may cost hint coverage, never correctness.
        assert result.pct_calls_hinted <= clean_result.pct_calls_hinted + 1e-9
        assert result.output == clean_result.output

    def test_stuck_disk_costs_time_not_correctness(self, clean_result):
        result = run_experiment(base_config(fault_plan=profile("stuck-disk")))
        assert result.c("faults.disk_slow_services") > 0
        assert result.cycles > clean_result.cycles
        assert result.output == clean_result.output


class TestWatchdog:
    def _storm_config(self, restart_limit):
        system = SystemConfig(
            spechint=SpecHintParams(watchdog_restart_limit=restart_limit),
        )
        return base_config(system=system, fault_plan=profile("restart-storm"))

    def test_restart_storm_trips_watchdog(self, clean_result):
        result = run_experiment(self._storm_config(restart_limit=4))
        assert result.watchdog_tripped == "restart_storm"
        assert result.c("spec.watchdog_disabled") == 1
        assert result.c("spec.watchdog_trip.restart_storm") == 1
        # The run still completes, vanilla, with identical output.
        assert result.output == clean_result.output

    def test_watchdog_defaults_never_trip_clean_runs(self, clean_result):
        assert clean_result.c("spec.watchdog_disabled") == 0

    def test_disabled_speculation_stops_hinting(self):
        tripped = run_experiment(self._storm_config(restart_limit=2))
        untripped = run_experiment(self._storm_config(restart_limit=0))
        # Once disabled, the spec thread stays parked: fewer hints issued
        # and fewer restarts paid for than when the storm runs unchecked.
        assert tripped.spec_restarts < untripped.spec_restarts
