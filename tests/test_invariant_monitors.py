"""Each invariant monitor trips on its forged failure and only on it.

The monitors duck-type their way into the system (``getattr`` chains),
so these tests forge minimal fakes: a real audit table with one tampered
record, a real lifecycle ledger driven into double-terminal, a TIP
manager that lies about its queue.  A final test runs a real clean cell
and asserts total silence — the monitors must never cry wolf.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.errors import DataLossError
from repro.faults.plan import FaultPlan
from repro.harness.invariants import (
    DEFAULT_MONITORS,
    AuditChainMonitor,
    CancelDrainMonitor,
    CellObservation,
    ClockMonotonicityMonitor,
    HintLifecycleMonitor,
    PrefetchProgressMonitor,
    SpecIdentityMonitor,
    TypedErrorMonitor,
    VariantObservation,
    Violation,
    check_all,
)
from repro.sim import metrics
from repro.sim.clock import SimClock
from repro.sim.stats import StatRegistry
from repro.spechint.auditor import AuditTable
from tests.conftest import TipStandIn


def _plan(**kwargs) -> FaultPlan:
    return FaultPlan(name="forged", seed=3, **kwargs)


def _cell(variants, plan=None) -> CellObservation:
    return CellObservation(app="agrep", plan=plan or _plan(),
                           variants=variants)


def _vobs_with_process(process, **kwargs) -> VariantObservation:
    system = SimpleNamespace(
        kernel=SimpleNamespace(processes=[process]),
        manager=kwargs.pop("manager", None),
    )
    return VariantObservation(variant="speculating", system=system, **kwargs)


class TestAuditChainMonitor:
    def _process(self, table):
        return SimpleNamespace(
            pid=1, spec=SimpleNamespace(auditor=SimpleNamespace(table=table))
        )

    def test_intact_chain_is_silent(self):
        table = AuditTable()
        table.record("restart", "cancelled=3")
        table.record("quarantine", "cow escape")
        obs = _cell({"speculating": _vobs_with_process(self._process(table))})
        assert AuditChainMonitor().check(obs) == []

    def test_forged_record_trips(self):
        table = AuditTable()
        table.record("restart", "cancelled=3")
        table.record("restart", "cancelled=5")
        table.records()[0].detail = "cancelled=999"  # forge history
        obs = _cell({"speculating": _vobs_with_process(self._process(table))})
        violations = AuditChainMonitor().check(obs)
        assert len(violations) == 1
        assert violations[0].monitor == "audit-chain"
        assert "chain" in violations[0].detail

    def test_no_auditor_is_silent(self):
        process = SimpleNamespace(pid=1, spec=None)
        obs = _cell({"speculating": _vobs_with_process(process)})
        assert AuditChainMonitor().check(obs) == []


class _FakeLifecycle:
    """Just the surface HintLifecycleMonitor/CancelDrainMonitor read."""

    def __init__(self, disclosed=0, terminals=None, capacity=1 << 17,
                 records=()):
        self.disclosed_total = disclosed
        self.terminal_counts = dict(terminals or {})
        self.capacity = capacity
        self._records = list(records)

    @property
    def open_total(self):
        return self.disclosed_total - sum(self.terminal_counts.values())

    def records(self):
        return list(self._records)

    def summary_counts(self):
        return {"disclosed": self.disclosed_total, **self.terminal_counts}


def _vobs_with_lifecycle(lifecycle, error=None) -> VariantObservation:
    system = SimpleNamespace(manager=SimpleNamespace(lifecycle=lifecycle),
                             kernel=SimpleNamespace(processes=[]))
    return VariantObservation(variant="speculating", system=system,
                              error=error)


class TestHintLifecycleMonitor:
    def test_balanced_books_are_silent(self):
        lifecycle = _FakeLifecycle(
            disclosed=2, terminals={"consumed": 2},
            records=[
                SimpleNamespace(seq=0, terminal="consumed",
                                disclosed_ts=5, terminal_ts=9),
                SimpleNamespace(seq=1, terminal="consumed",
                                disclosed_ts=6, terminal_ts=12),
            ],
        )
        obs = _cell({"speculating": _vobs_with_lifecycle(lifecycle)})
        assert HintLifecycleMonitor().check(obs) == []

    def test_past_its_capacity_only_the_aggregates_are_checked(self):
        # The records would fail the per-record checks; past the capacity
        # the ledger keeps no complete record set, so they are not read.
        lifecycle = _FakeLifecycle(
            disclosed=3, terminals={"consumed": 3}, capacity=2,
            records=[SimpleNamespace(seq=0, terminal="consumed",
                                     disclosed_ts=9, terminal_ts=5)],
        )
        obs = _cell({"speculating": _vobs_with_lifecycle(lifecycle)})
        assert HintLifecycleMonitor().check(obs) == []
        lifecycle.capacity = 3
        assert HintLifecycleMonitor().check(obs) != []

    def test_open_hint_after_clean_finish_trips(self):
        lifecycle = _FakeLifecycle(disclosed=3, terminals={"consumed": 2})
        obs = _cell({"speculating": _vobs_with_lifecycle(lifecycle)})
        violations = HintLifecycleMonitor().check(obs)
        assert any("still open" in v.detail for v in violations)

    def test_double_terminal_trips(self):
        # 1 disclosed, 2 terminals: some hint terminated twice.
        lifecycle = _FakeLifecycle(
            disclosed=1, terminals={"consumed": 1, "cancelled": 1}
        )
        obs = _cell({"speculating": _vobs_with_lifecycle(lifecycle)})
        violations = HintLifecycleMonitor().check(obs)
        assert any("more than one terminal" in v.detail for v in violations)

    def test_aggregate_record_mismatch_trips(self):
        lifecycle = _FakeLifecycle(
            disclosed=2, terminals={"consumed": 2},
            records=[SimpleNamespace(seq=0, terminal="consumed",
                                     disclosed_ts=5, terminal_ts=9)],
        )
        obs = _cell({"speculating": _vobs_with_lifecycle(lifecycle)})
        violations = HintLifecycleMonitor().check(obs)
        assert any("do not balance" in v.detail for v in violations)

    def test_terminal_before_disclosure_trips(self):
        lifecycle = _FakeLifecycle(
            disclosed=1, terminals={"consumed": 1},
            records=[SimpleNamespace(seq=4, terminal="consumed",
                                     disclosed_ts=100, terminal_ts=40)],
        )
        obs = _cell({"speculating": _vobs_with_lifecycle(lifecycle)})
        violations = HintLifecycleMonitor().check(obs)
        assert any("before its disclosure" in v.detail for v in violations)

    def test_open_hints_excused_when_run_escaped(self):
        lifecycle = _FakeLifecycle(
            disclosed=3, terminals={"consumed": 2},
            records=[
                SimpleNamespace(seq=0, terminal="consumed",
                                disclosed_ts=5, terminal_ts=9),
                SimpleNamespace(seq=1, terminal="consumed",
                                disclosed_ts=6, terminal_ts=12),
                SimpleNamespace(seq=2, terminal=None,
                                disclosed_ts=7, terminal_ts=0),
            ],
        )
        obs = _cell({"speculating": _vobs_with_lifecycle(
            lifecycle, error=DataLossError("gone")
        )})
        assert HintLifecycleMonitor().check(obs) == []


class TestCancelDrainMonitor:
    def _obs(self, manager, process=None, error=None, restarts=0, cancelled=0):
        stats = StatRegistry()
        stats.bump(metrics.SPEC_RESTARTS, restarts)
        stats.bump(metrics.TIP_HINTS_CANCELLED, cancelled)
        system = SimpleNamespace(
            manager=manager,
            kernel=SimpleNamespace(
                processes=[process] if process is not None else []
            ),
            stats=stats,
        )
        vobs = VariantObservation(variant="speculating", system=system,
                                  error=error)
        return _cell({"speculating": vobs})

    def test_undrained_queue_at_end_trips(self):
        manager = SimpleNamespace(
            outstanding_hints=lambda pid: 3, lifecycle=None,
        )
        process = SimpleNamespace(pid=1, spec=None)
        violations = CancelDrainMonitor().check(self._obs(manager, process))
        assert any("still queued" in v.detail for v in violations)

    def test_restart_without_audit_record_trips(self):
        table = AuditTable()
        table.record("restart", "cancelled=2")
        process = SimpleNamespace(
            pid=1, spec=SimpleNamespace(auditor=SimpleNamespace(table=table)),
        )
        manager = SimpleNamespace(outstanding_hints=lambda pid: 0,
                                  lifecycle=None)
        violations = CancelDrainMonitor().check(
            self._obs(manager, process, restarts=2))
        assert any("skipped its cancel-drain audit" in v.detail
                   for v in violations)

    def test_ledger_cancel_mismatch_trips(self):
        lifecycle = _FakeLifecycle(disclosed=4, terminals={"cancelled": 1,
                                                           "consumed": 3})
        manager = SimpleNamespace(outstanding_hints=lambda pid: 0,
                                  lifecycle=lifecycle)
        violations = CancelDrainMonitor().check(self._obs(manager, cancelled=4))
        assert any("ledger recorded" in v.detail for v in violations)

    def test_clean_books_are_silent(self):
        table = AuditTable()
        table.record("restart", "cancelled=2")
        lifecycle = _FakeLifecycle(disclosed=2, terminals={"cancelled": 2})
        process = SimpleNamespace(
            pid=1, spec=SimpleNamespace(auditor=SimpleNamespace(table=table)),
        )
        manager = SimpleNamespace(outstanding_hints=lambda pid: 0,
                                  lifecycle=lifecycle)
        assert CancelDrainMonitor().check(
            self._obs(manager, process, restarts=1, cancelled=2)) == []


def _result(output=b"out", read_trace=((1, 0, 10),), cycles=100):
    return SimpleNamespace(output=output, read_trace=read_trace,
                           cycles=cycles)


class TestSpecIdentityMonitor:
    def _obs(self, original, speculating, plan=None):
        return _cell({"original": original, "speculating": speculating},
                     plan=plan)

    def test_identical_runs_are_silent(self):
        obs = self._obs(
            VariantObservation("original", result=_result()),
            VariantObservation("speculating", result=_result()),
        )
        assert SpecIdentityMonitor().check(obs) == []

    def test_tampered_output_trips(self):
        obs = self._obs(
            VariantObservation("original", result=_result(output=b"good")),
            VariantObservation("speculating", result=_result(output=b"evil")),
        )
        violations = SpecIdentityMonitor().check(obs)
        assert len(violations) == 1
        assert "output divergence" in violations[0].detail

    def test_diverged_read_trace_trips(self):
        obs = self._obs(
            VariantObservation("original",
                               result=_result(read_trace=((1, 0, 10),))),
            VariantObservation("speculating",
                               result=_result(read_trace=((1, 0, 11),))),
        )
        violations = SpecIdentityMonitor().check(obs)
        assert any("demand-read divergence" in v.detail for v in violations)

    def test_asymmetric_escape_trips(self):
        obs = self._obs(
            VariantObservation("original", result=_result()),
            VariantObservation("speculating", error=DataLossError("x")),
        )
        violations = SpecIdentityMonitor().check(obs)
        assert any("asymmetric" in v.detail for v in violations)

    def test_double_fault_plan_requires_symmetric_data_loss(self):
        plan = _plan(dead_disk=0, dead_at_s=0.001,
                     second_dead_disk=1, second_dead_at_s=0.002)
        obs = self._obs(
            VariantObservation("original", error=DataLossError("a")),
            VariantObservation("speculating", result=_result()),
            plan=plan,
        )
        violations = SpecIdentityMonitor().check(obs)
        assert any("symmetric DataLossError" in v.detail for v in violations)

    def test_double_fault_with_symmetric_loss_is_silent(self):
        plan = _plan(dead_disk=0, dead_at_s=0.001,
                     second_dead_disk=1, second_dead_at_s=0.002)
        obs = self._obs(
            VariantObservation("original", error=DataLossError("a")),
            VariantObservation("speculating", error=DataLossError("b")),
            plan=plan,
        )
        assert SpecIdentityMonitor().check(obs) == []


class TestTypedErrorMonitor:
    def test_untyped_escape_trips(self):
        obs = _cell({"speculating": VariantObservation(
            "speculating", error=ValueError("oops")
        )})
        violations = TypedErrorMonitor().check(obs)
        assert any("untyped ValueError" in v.detail for v in violations)

    def test_unexpected_data_loss_trips(self):
        obs = _cell({"speculating": VariantObservation(
            "speculating", error=DataLossError("gone")
        )})
        violations = TypedErrorMonitor().check(obs)
        assert any("without a double-fault plan" in v.detail
                   for v in violations)

    def test_expected_data_loss_is_silent(self):
        plan = _plan(dead_disk=0, dead_at_s=0.001,
                     second_dead_disk=1, second_dead_at_s=0.002)
        obs = _cell({"speculating": VariantObservation(
            "speculating", error=DataLossError("gone")
        )}, plan=plan)
        assert TypedErrorMonitor().check(obs) == []


class TestClockMonotonicityMonitor:
    def test_forward_clock_is_silent(self):
        obs = _cell({"speculating": VariantObservation(
            "speculating", result=_result(cycles=50),
            clock_samples=[("built", 0), ("end", 50)],
        )})
        assert ClockMonotonicityMonitor().check(obs) == []

    def test_backwards_clock_trips(self):
        obs = _cell({"speculating": VariantObservation(
            "speculating",
            clock_samples=[("built", 100), ("end", 40)],
        )})
        violations = ClockMonotonicityMonitor().check(obs)
        assert any("ran backwards" in v.detail for v in violations)

    def test_negative_cycle_count_trips(self):
        obs = _cell({"speculating": VariantObservation(
            "speculating", result=_result(cycles=-5))})
        (violation,) = ClockMonotonicityMonitor().check(obs)
        assert violation.detail == "speculating: negative cycle count -5"
        assert violation.witness == {"variant": "speculating", "cycles": -5}

    def test_result_clock_mismatch_trips(self):
        obs = _cell({"speculating": VariantObservation(
            "speculating", result=_result(cycles=999),
            clock_samples=[("built", 0), ("end", 50)],
        )})
        violations = ClockMonotonicityMonitor().check(obs)
        assert any("clock ended" in v.detail for v in violations)


class TestPrefetchProgressMonitor:
    LIMIT = PrefetchProgressMonitor.MAX_DROPS

    def _obs(self, drops, deaths=0, rebuilds_ended=0):
        """One hint whose prefetch was dropped ``drops`` times in a run
        with that many servability changes."""
        tip = TipStandIn(SimClock())
        lifecycle = tip.ledger
        tip.disclose(1, [(5, 0)], 1)
        for _ in range(drops):
            lifecycle.prefetch_issued((5, 0))
            lifecycle.prefetch_dropped((5, 0))
        stats = StatRegistry()
        stats.bump(metrics.ARRAY_DISK_DEATHS, deaths)
        stats.bump(metrics.REBUILD_COMPLETED, rebuilds_ended)
        system = SimpleNamespace(
            manager=SimpleNamespace(lifecycle=lifecycle), stats=stats)
        return _cell({"speculating": VariantObservation(
            "speculating", system=system)})

    def test_drops_within_the_bound_are_silent(self):
        assert PrefetchProgressMonitor().check(self._obs(self.LIMIT)) == []

    def test_a_livelocked_hint_trips(self):
        (violation,) = PrefetchProgressMonitor().check(
            self._obs(self.LIMIT + 1))
        assert violation.monitor == "prefetch-progress"
        assert violation.witness["drops"] == self.LIMIT + 1
        assert violation.witness["seq"] == 1

    def test_each_death_or_rebuild_end_opens_a_new_window(self):
        monitor = PrefetchProgressMonitor()
        drops = 3 * self.LIMIT
        assert monitor.check(self._obs(drops, deaths=1, rebuilds_ended=1)) == []
        assert monitor.check(self._obs(drops + 1, deaths=1, rebuilds_ended=1))

    def test_no_ledger_is_silent(self):
        obs = _cell({"original": VariantObservation("original")})
        assert PrefetchProgressMonitor().check(obs) == []


class TestViolationSerde:
    def test_round_trip(self):
        violation = Violation("audit-chain", "broken", {"pid": 1})
        back = Violation.from_jsonable(violation.to_jsonable())
        assert back.monitor == "audit-chain"
        assert back.detail == "broken"
        assert back.witness == {"pid": 1}
        assert str(back) == "[audit-chain] broken"


class TestSilenceOnCleanRuns:
    def test_all_monitors_silent_on_real_clean_cell(self):
        from repro.faults.generate import FuzzCase
        from repro.harness.fuzz import run_fuzz_case

        case = FuzzCase(index=0, app="agrep",
                        plan=FaultPlan(name="clean", seed=1))
        result = run_fuzz_case(case)
        assert result.passed, [str(v) for v in result.violations]

    @pytest.mark.parametrize("app", ["agrep", "gnuld", "xds", "postgres20"])
    def test_fault_free_differential_cell_passes_all_six(self, app):
        """The six safety monitors, and prefetch-progress beside them."""
        from repro.harness.fuzz import run_fuzz_case
        from repro.harness.oracle import oracle_case

        assert len(DEFAULT_MONITORS) == 7
        result = run_fuzz_case(oracle_case(app), workload_scale=0.2)
        assert result.passed, [str(v) for v in result.violations]
        assert result.escapes == {"original": None, "speculating": None}

    @pytest.mark.parametrize("app", ["agrep", "gnuld", "xds", "postgres20"])
    def test_manual_variant_passes_the_single_variant_monitors(self, app):
        from repro.harness.config import ExperimentConfig, Variant
        from repro.harness.fuzz import observe_variant

        vobs = observe_variant(ExperimentConfig(
            app=app, variant=Variant.MANUAL, workload_scale=0.2,
        ))
        assert vobs.error is None and vobs.result is not None
        obs = _cell({"manual": vobs}, plan=FaultPlan())
        monitors = (AuditChainMonitor(), HintLifecycleMonitor(),
                    CancelDrainMonitor(), ClockMonotonicityMonitor(),
                    TypedErrorMonitor(), PrefetchProgressMonitor())
        assert check_all(obs, monitors) == []

    def test_all_monitors_silent_under_builtin_chaos(self):
        from repro.faults.generate import FuzzCase
        from repro.harness.fuzz import run_fuzz_case

        case = FuzzCase(index=0, app="agrep",
                        plan=profile_plan("hint-corruption"))
        result = run_fuzz_case(case)
        assert result.passed, [str(v) for v in result.violations]


def profile_plan(name: str) -> FaultPlan:
    from repro.faults.plan import profile

    return profile(name, seed=7)


def test_check_all_concatenates_in_monitor_order():
    obs = _cell({"speculating": VariantObservation(
        "speculating", error=ValueError("oops"),
        clock_samples=[("built", 10), ("end", 5)],
    )})
    violations = check_all(obs, DEFAULT_MONITORS)
    names = [v.monitor for v in violations]
    assert "typed-errors" in names
    assert "clock-monotonic" in names
    assert names.index("typed-errors") < names.index("clock-monotonic")


def test_the_same_typed_error_on_both_sides_is_not_an_identity_problem():
    """Outside a double-fault plan a symmetric escape is for typed-errors
    to judge; spec-identity stays silent."""
    obs = _cell({"original": VariantObservation("original", error=DataLossError("a")),
                 "speculating": VariantObservation("speculating",
                                                   error=DataLossError("b"))})
    assert SpecIdentityMonitor().check(obs) == []
