"""The fault-plan generator: valid, composed, deterministic, covered."""

from __future__ import annotations

import pytest

from repro.errors import FuzzError
from repro.faults.generate import (
    DIMENSIONS,
    CoverageLedger,
    FaultPlanGenerator,
    FuzzCase,
    case_dimensions,
)

_ORDER = {d.name: i for i, d in enumerate(DIMENSIONS)}


class TestDeterminism:
    def test_same_seed_same_cases(self):
        a = FaultPlanGenerator(7, apps=("agrep", "xds"))
        b = FaultPlanGenerator(7, apps=("agrep", "xds"))
        for i in range(50):
            assert a.case(i).to_jsonable() == b.case(i).to_jsonable()

    def test_cases_stable_under_budget(self):
        # case(i) must not depend on how many cases were asked for.
        generator = FaultPlanGenerator(7)
        small = generator.cases(5)
        large = generator.cases(20)
        for s, g in zip(small, large):
            assert s.to_jsonable() == g.to_jsonable()

    def test_different_seeds_differ(self):
        a = [c.to_jsonable() for c in FaultPlanGenerator(7).cases(20)]
        b = [c.to_jsonable() for c in FaultPlanGenerator(8).cases(20)]
        assert a != b


class TestValidityAndComposition:
    def test_every_case_is_a_valid_plan(self):
        generator = FaultPlanGenerator(7, apps=("agrep", "xds"))
        for case in generator.cases(120):
            case.plan.validate()  # raises on an invalid sample
            assert case.app in ("agrep", "xds")
            # A case may carry only speculation-knob overrides (plan
            # inactive), but it must never be completely empty.
            assert case.plan.active or case.spec_overrides
            assert case.key == f"fuzz/{case.index:04d}/{case.app}"

    def test_double_fault_composes_data_loss(self):
        generator = FaultPlanGenerator(7)
        doubles = [
            case for case in generator.cases(200)
            if case.plan.second_dead_disk >= 0
        ]
        assert doubles, "200 cases never sampled a double fault"
        for case in doubles:
            plan = case.plan
            assert plan.dead_disk >= 0
            assert plan.second_dead_disk != plan.dead_disk
            assert plan.second_dead_at_s > plan.dead_at_s
            assert plan.expects_data_loss

    def test_requirements_pulled_in(self):
        generator = FaultPlanGenerator(7)
        for case in generator.cases(200):
            dims = case_dimensions(case.plan, case.spec_overrides)
            if "double-fault" in dims:
                assert "disk-death" in dims

    def test_dimensions_in_canonical_order(self):
        generator = FaultPlanGenerator(7)
        for case in generator.cases(100):
            dims = case_dimensions(case.plan, case.spec_overrides)
            assert dims == sorted(dims, key=_ORDER.__getitem__)

    def test_every_dimension_reachable(self):
        generator = FaultPlanGenerator(7)
        hit = set()
        for case in generator.cases(400):
            hit.update(case_dimensions(case.plan, case.spec_overrides))
        assert hit == set(_ORDER)

    def test_overrides_within_whitelist(self):
        from repro.faults.generate import SPEC_OVERRIDE_FIELDS

        generator = FaultPlanGenerator(7)
        for case in generator.cases(120):
            assert set(case.spec_overrides) <= set(SPEC_OVERRIDE_FIELDS)


class TestCoverageLedger:
    def test_counts_reconcile(self):
        generator = FaultPlanGenerator(7, apps=("agrep", "xds"))
        ledger = CoverageLedger()
        cases = generator.cases(50)
        for case in cases:
            ledger.note(case)
        assert ledger.cases == 50
        assert sum(ledger.combo_counts.values()) == 50
        assert sum(ledger.app_counts.values()) == 50
        data = ledger.to_jsonable()
        assert data["cases"] == 50
        assert set(data["dimensions"]) | set(data["dimensions_never_hit"]) \
            == set(_ORDER)
        text = ledger.format_text()
        assert "fault-space coverage over 50 case(s)" in text

    def test_empty_ledger(self):
        ledger = CoverageLedger()
        assert ledger.to_jsonable()["cases"] == 0
        assert set(ledger.to_jsonable()["dimensions_never_hit"]) \
            == set(_ORDER)


class TestTypedErrors:
    def test_budget_below_one_rejected(self):
        with pytest.raises(FuzzError, match="budget"):
            FaultPlanGenerator(7).cases(0)

    def test_no_apps_rejected(self):
        with pytest.raises(FuzzError, match="app"):
            FaultPlanGenerator(7, apps=())

    def test_too_few_disks_rejected(self):
        with pytest.raises(FuzzError, match="disks"):
            FaultPlanGenerator(7, ndisks=1)

    @pytest.mark.parametrize("value", ["8", True, -3, 2.5])
    def test_mistyped_count_override_names_its_key(self, value):
        """A hand-edited reproducer is a typed error, not a speculation bug
        found by the replay: counts are integers >= 0 (no bools, no floats)."""
        data = FaultPlanGenerator(7).case(0).to_jsonable()
        data["spec_overrides"] = {"watchdog_restart_limit": value}
        with pytest.raises(FuzzError, match="'watchdog_restart_limit' must be an integer"):
            FuzzCase.from_jsonable(data)

    @pytest.mark.parametrize("value", [-0.1, 1.5, "0.2", True])
    def test_min_accuracy_override_is_a_number_in_unit_range(self, value):
        data = FaultPlanGenerator(7).case(0).to_jsonable()
        data["spec_overrides"] = {"watchdog_min_accuracy": value}
        with pytest.raises(FuzzError, match="'watchdog_min_accuracy' must be a number"):
            FuzzCase.from_jsonable(data)

    def test_every_generated_override_is_well_typed(self):
        for case in FaultPlanGenerator(7).cases(200):
            again = FuzzCase.from_jsonable(case.to_jsonable())
            assert again.spec_overrides == case.spec_overrides
        for value in (0, 1, 0.5):
            FuzzCase.from_jsonable({"app": "agrep", "plan": {},
                                    "spec_overrides": {"watchdog_min_accuracy": value}})
