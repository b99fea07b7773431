"""FaultPlan JSON round-trips: every generated plan survives the wire.

The fuzz pool ships cases to worker processes as JSON and the corpus
stores shrunk reproducers as JSON, so ``to_jsonable``/``from_jsonable``
must be lossless over the whole generated fault space — and loudly typed
(:class:`~repro.errors.InvalidFaultPlan`) about anything else.
"""

from __future__ import annotations

import dataclasses
import json
import math

import pytest

from repro.errors import FuzzError, InvalidFaultPlan, ReproError
from repro.faults.generate import FaultPlanGenerator, FuzzCase
from repro.faults.plan import PROFILES, FaultPlan, profile


def _generated_plans(count: int = 200):
    plans = []
    for seed in (7, 11, 23, 99):
        generator = FaultPlanGenerator(seed, apps=("agrep", "xds"))
        plans.extend(case.plan for case in generator.cases(count // 4))
    return plans


class TestRoundTrip:
    def test_200_generated_plans_round_trip(self):
        plans = _generated_plans(200)
        assert len(plans) == 200
        for plan in plans:
            data = plan.to_jsonable()
            back = FaultPlan.from_jsonable(data)
            assert back == plan
            # And the round-trip is a fixpoint.
            assert back.to_jsonable() == data

    def test_builtin_profiles_round_trip(self):
        for name in PROFILES:
            plan = profile(name, seed=13)
            assert FaultPlan.from_jsonable(plan.to_jsonable()) == plan

    def test_derived_properties_survive(self):
        generator = FaultPlanGenerator(7, apps=("agrep",))
        for case in generator.cases(60):
            back = FaultPlan.from_jsonable(case.plan.to_jsonable())
            assert back.active == case.plan.active
            assert back.expects_data_loss == case.plan.expects_data_loss
            assert back.permanent_death == case.plan.permanent_death


class TestTypedRejection:
    def test_unknown_key_is_typed_and_named(self):
        data = FaultPlan(name="x", seed=1).to_jsonable()
        data["hind_drop_rate"] = 0.5  # typo for hint_drop_rate
        with pytest.raises(InvalidFaultPlan, match="hind_drop_rate"):
            FaultPlan.from_jsonable(data)

    def test_unknown_key_is_a_repro_error(self):
        data = FaultPlan(name="x", seed=1).to_jsonable()
        data["bogus"] = 1
        with pytest.raises(ReproError):
            FaultPlan.from_jsonable(data)

    def test_non_dict_rejected(self):
        with pytest.raises(InvalidFaultPlan):
            FaultPlan.from_jsonable([1, 2, 3])

    def test_wrong_value_types_rejected(self):
        base = FaultPlan(name="x", seed=1).to_jsonable()
        for key, bad in (
            ("disk_error_rate", "0.5"),
            ("seed", 1.5),
            ("seed", True),
            ("name", 7),
        ):
            data = dict(base)
            data[key] = bad
            with pytest.raises(InvalidFaultPlan):
                FaultPlan.from_jsonable(data)

    def test_int_accepted_for_float_field(self):
        data = FaultPlan(name="x", seed=1).to_jsonable()
        data["slow_factor"] = 2
        plan = FaultPlan.from_jsonable(data)
        assert plan.slow_factor == 2.0


class TestValidate:
    def test_out_of_range_rate_rejected(self):
        with pytest.raises(InvalidFaultPlan):
            FaultPlan(name="x", seed=1, hint_drop_rate=1.5).validate()

    def test_negative_time_rejected(self):
        with pytest.raises(InvalidFaultPlan):
            FaultPlan(name="x", seed=1, dead_at_s=-0.1).validate()

    def test_second_death_requires_first(self):
        with pytest.raises(InvalidFaultPlan):
            FaultPlan(name="x", seed=1, second_dead_disk=1).validate()

    def test_second_death_must_differ(self):
        with pytest.raises(InvalidFaultPlan):
            FaultPlan(
                name="x", seed=1, dead_disk=1, dead_at_s=0.001,
                second_dead_disk=1, second_dead_at_s=0.002,
            ).validate()

    def test_from_jsonable_validates(self):
        data = FaultPlan(name="x", seed=1).to_jsonable()
        data["disk_error_rate"] = 2.0
        with pytest.raises(InvalidFaultPlan):
            FaultPlan.from_jsonable(data)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", [
        "slow_factor", "slow_duration_s", "slow_start_s", "dead_at_s",
        "hedge_after_s", "disk_error_rate",
    ])
    def test_non_finite_values_rejected_by_name(self, field, value):
        """Every comparison with NaN is false, so a range test written as
        "reject below the bound" lets NaN through; ``json.load`` reads
        both ``NaN`` and ``Infinity``."""
        data = FaultPlan(name="x", seed=1).to_jsonable()
        data[field] = value
        with pytest.raises(InvalidFaultPlan, match=field):
            FaultPlan.from_jsonable(json.loads(json.dumps(data)))
        with pytest.raises(InvalidFaultPlan, match=field):
            FaultPlan(name="x", seed=1, **{field: value}).validate()

    def test_non_finite_disk_id_rejected(self):
        with pytest.raises(InvalidFaultPlan, match="dead_disk"):
            FaultPlan(name="x", seed=1, dead_disk=math.nan).validate()


class TestFuzzCaseSerde:
    def test_case_round_trip(self):
        generator = FaultPlanGenerator(7, apps=("agrep",))
        for case in generator.cases(40):
            back = FuzzCase.from_jsonable(case.to_jsonable())
            assert back.index == case.index
            assert back.app == case.app
            assert back.plan == case.plan
            assert back.spec_overrides == case.spec_overrides

    def test_unknown_override_key_rejected(self):
        case = FaultPlanGenerator(7).case(0)
        data = case.to_jsonable()
        data["spec_overrides"] = {"watchdog_retsart_limit": 3}
        with pytest.raises(FuzzError, match="watchdog_retsart_limit"):
            FuzzCase.from_jsonable(data)

    def test_version_mismatch_rejected(self):
        data = FaultPlanGenerator(7).case(0).to_jsonable()
        data["version"] = 999
        with pytest.raises(FuzzError, match="version"):
            FuzzCase.from_jsonable(data)

    def test_missing_plan_rejected(self):
        data = FaultPlanGenerator(7).case(0).to_jsonable()
        del data["plan"]
        with pytest.raises(FuzzError, match="plan"):
            FuzzCase.from_jsonable(data)

    def test_non_integer_index_is_a_fuzz_error(self):
        data = FaultPlanGenerator(7).case(0).to_jsonable()
        data["index"] = "x"
        with pytest.raises(FuzzError, match="index"):
            FuzzCase.from_jsonable(data)

    def test_non_object_overrides_are_a_fuzz_error(self):
        data = FaultPlanGenerator(7).case(0).to_jsonable()
        data["spec_overrides"] = [1, 2]
        with pytest.raises(FuzzError, match="spec_overrides"):
            FuzzCase.from_jsonable(data)

    def test_plans_are_frozen(self):
        plan = FaultPlan(name="x", seed=1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.seed = 2  # type: ignore[misc]
