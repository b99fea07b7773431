"""One fault vocabulary.

Each fault axis and plan field is declared once, in the axis table of
``faults/plan.py``; the plan's ``active``, the generator's
``case_dimensions``, the coverage ledger, the shrinker and both validators
read it.  These tests pin what that must not change (every derived answer
on 600 generated cases, the built-in profiles and the corpus, plus every
validation message), check that the table covers the whole vocabulary,
and that a plan naming a disk its array lacks is refused.
"""

import glob
import hashlib
import json
import math
import os

import pytest

from repro.cli import main
from repro.errors import FuzzError, InvalidFaultPlan
from repro.faults.generate import (
    DIMENSIONS,
    SPEC_OVERRIDE_FIELDS,
    CoverageLedger,
    FaultPlanGenerator,
    FuzzCase,
    case_dimensions,
    validate_spec_overrides,
)
from repro.faults.plan import (
    AXES,
    AXIS_BY_NAME,
    DISK_ID,
    FIELD_KINDS,
    PROFILES,
    FaultPlan,
    profile,
)
from repro.harness.config import ExperimentConfig
from repro.params import ArrayParams, SystemConfig
from repro.faults.shrink import Reproducer, _without, shrink_events

SEEDS = (7, 1999)
CASES_PER_SEED = 300
CORPUS = os.path.join(os.path.dirname(__file__), "corpus")
#: Every shrink event name, plus one the shrinker does not know.
EVENTS = (
    "transient-errors", "slow-window", "offline-window", "second-dead-disk",
    "dead-disk", "rebuild-share", "hedged-reads", "hint-drop",
    "hint-corrupt", "restart-storm", "throttle-params", "watchdog-params",
    "no-such-event",
)
PLAN_NUMBERS = (-2, -1, -0.5, 0, 0.5, 1, 1.5, 7, math.inf)
OVERRIDE_VALUES = (-1, 0, 0.5, 1, 1.5, 3, True, "2", None)
OVERRIDE_KEYS = (
    "throttle_cancel_limit", "throttle_disable_reads",
    "watchdog_restart_limit", "watchdog_fault_limit",
    "watchdog_min_accuracy", "watchdog_accuracy_window", "throttle_bogus",
)
#: sha256 over the dump below, computed before the axis table existed and
#: moved once since, when seconds and factors began to refuse infinities
#: (and their messages to say "finite").
VOCABULARY_DIGEST = "9cb18a01e007f156"


def _cases():
    for seed in SEEDS:
        yield FaultPlanGenerator(seed, apps=("agrep", "gnuld")).cases(
            CASES_PER_SEED)
    yield [FuzzCase(index=0, app="agrep", plan=plan)
           for plan in PROFILES.values()]
    yield [Reproducer.load(path).case
           for path in sorted(glob.glob(os.path.join(CORPUS, "*.json")))]


def _case_dump(case):
    plan = case.plan
    return {
        "flags": [plan.active, plan.permanent_death, plan.expects_data_loss],
        "dimensions": case_dimensions(plan, case.spec_overrides),
        "events": shrink_events(case),
        "without": {
            event: (None if (shrunk := _without(case, event)) is None
                    else shrunk.to_jsonable())
            for event in EVENTS
        },
    }


def _message(check, *args):
    try:
        check(*args)
    except (InvalidFaultPlan, FuzzError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return "ok"


def _validation_dump():
    plans = {
        f"{name}={value!r}": _message(
            FaultPlan(**{name: value}).validate)
        for name in FaultPlan.__dataclass_fields__
        if name not in ("name", "seed")
        for value in PLAN_NUMBERS
    }
    overrides = {
        f"{key}={value!r}": _message(validate_spec_overrides, {key: value})
        for key in OVERRIDE_KEYS
        for value in OVERRIDE_VALUES
    }
    json_types = {
        f"{name}={value!r}": _message(FaultPlan.from_jsonable, {name: value})
        for name in FaultPlan.__dataclass_fields__
        for value in ("0.5", 1.5, 2, True, None)
    }
    return {"plans": plans, "overrides": overrides, "json": json_types}


def test_derived_vocabulary_is_pinned():
    digest = hashlib.sha256()
    for cases in _cases():
        ledger = CoverageLedger()
        for case in cases:
            ledger.note(case)
            digest.update(json.dumps(_case_dump(case), sort_keys=True).encode())
        digest.update(json.dumps(ledger.to_jsonable(), sort_keys=True).encode())
    digest.update(json.dumps(_validation_dump(), sort_keys=True).encode())
    assert digest.hexdigest()[:16] == VOCABULARY_DIGEST


def test_every_name_is_owned_by_exactly_one_axis():
    owned = [name for axis in AXES for name in axis.owns]
    assert len(owned) == len(set(owned))
    plan_fields = set(FaultPlan.__dataclass_fields__) - {"name", "seed"}
    assert set(FIELD_KINDS) == plan_fields
    assert set(owned) == plan_fields | set(SPEC_OVERRIDE_FIELDS)
    for axis in AXES:
        assert not axis.on(FaultPlan(), {}), axis.name
        assert axis.rides_on is None or axis.rides_on in AXIS_BY_NAME


def test_every_dimension_names_an_axis():
    assert len({dim.axis for dim in DIMENSIONS}) == len(DIMENSIONS)
    for dim in DIMENSIONS:
        assert dim.axis in AXIS_BY_NAME, dim.name
        if dim.intensity is not None:
            assert dim.intensity.field in AXIS_BY_NAME[dim.axis].owns


def _reproducer_naming_disk(tmp_path, disk):
    with open(os.path.join(CORPUS, "audit-chain-forged-restart.json")) as f:
        data = json.load(f)
    data["case"]["plan"]["dead_disk"] = disk
    path = tmp_path / "repro.json"
    path.write_text(json.dumps(data))
    return str(path)


class TestPlanMeetsItsArray:
    """A disk-id field must name a disk of the run's array."""

    def test_every_disk_id_field_is_checked(self):
        disk_fields = [n for n, kind in FIELD_KINDS.items() if kind is DISK_ID]
        assert disk_fields == ["offline_disk", "second_dead_disk", "dead_disk"]
        for name in disk_fields:
            plan = FaultPlan(**{"offline_duration_s": 0.01, "dead_disk": 0,
                                name: 4})
            cfg = ExperimentConfig(fault_plan=plan)
            with pytest.raises(InvalidFaultPlan,
                               match=rf"{name}=4 .* 4 disk\(s\)"):
                cfg.resolved_system()
        plan = FaultPlan(offline_disk=3, offline_duration_s=0.01)
        ExperimentConfig(fault_plan=plan).resolved_system()

    def test_second_death_on_the_hot_spare_id_is_refused(self, capsys):
        # Two data disks: id 2 is the hot spare parity mode adds.
        cfg = ExperimentConfig(
            app="gnuld", workload_scale=0.1,
            system=SystemConfig(array=ArrayParams(ndisks=2)),
            fault_plan=profile("double-fault"),
        )
        with pytest.raises(InvalidFaultPlan, match="second_dead_disk=2"):
            cfg.resolved_system()
        assert main(["run", "gnuld", "--chaos", "double-fault", "--disks", "2",
                     "--scale", "0.1"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "repro: error: InvalidFaultPlan: fault plan second_dead_disk=2" in err

    def test_reproducer_naming_a_missing_disk_is_refused(self, tmp_path,
                                                         capsys):
        assert main(["fuzz", "replay", _reproducer_naming_disk(tmp_path, 7)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "InvalidFaultPlan: fault plan dead_disk=7" in err
