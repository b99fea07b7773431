"""The fuzz engine and shrinker, including the planted-bug end-to-end.

The acceptance test for the whole chaos engine is here: plant an
isolation bug (a ``TIPIO_CANCEL_ALL`` that drains the queue but skips
the lifecycle bookkeeping — the runtime's own drain check stays green,
so only the invariant monitors can see it), fuzz until a monitor trips,
shrink the failing schedule to a handful of fault events, and verify the
reproducer replays red with the bug and green without it.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import CheckpointError, FuzzError
from repro.faults.generate import FaultPlanGenerator, FuzzCase
from repro.faults.plan import FaultPlan
from repro.faults.shrink import (
    Reproducer,
    shrink_case,
    shrink_events,
)
from repro.harness.fuzz import (
    FuzzCellResult,
    run_fuzz,
    run_fuzz_case,
)
from repro.harness.invariants import Violation
from repro.trace.lifecycle import HintLifecycle


def _case(**plan_kwargs) -> FuzzCase:
    plan = FaultPlan(name="t", seed=3, **plan_kwargs)
    return FuzzCase(index=0, app="agrep", plan=plan)


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------

#: Campaign digests of seed 7 by budget.  Every interpreter must reproduce
#: them; re-pin only after showing the old and new cells equal but for what
#: a change meant to move (a corpus entry carries its plan verbatim, so no
#: re-pin invalidates it).
CAMPAIGN_DIGESTS = {6: "7faeb1df84ca2f66", 30: "93077575c5c94ab7"}


class TestRunFuzz:
    def test_serial_and_parallel_digests_identical(self):
        for budget, pinned in CAMPAIGN_DIGESTS.items():
            serial = run_fuzz(budget, seed=7, jobs=1)
            parallel = run_fuzz(budget, seed=7, jobs=2)
            assert serial.passed and parallel.passed
            assert serial.digest == parallel.digest == pinned
            assert serial.ledger.to_jsonable() == parallel.ledger.to_jsonable()
            for a, b in zip(serial.cells, parallel.cells):
                assert a.key == b.key
                assert a.digest == b.digest
        # A campaign's cases depend on the seed and their index alone, and
        # a cell's payload on its case, so the budget-25 campaign is the
        # first 25 cells of the budget-30 one checked above.
        assert [cell.case for cell in serial.cells[:25]] == \
            FaultPlanGenerator(7).cases(25)

    def test_report_shape(self):
        report = run_fuzz(3, seed=7)
        assert report.passed
        assert len(report.cells) == 3
        data = report.to_jsonable()
        assert data["digest"] == report.digest
        assert data["coverage"]["cases"] == 3
        assert "PASS" in report.summary()
        for cell in report.cells:
            back = FuzzCellResult.from_jsonable(cell.to_jsonable())
            assert back.digest == cell.digest
            assert back.case.key == cell.case.key

    def test_unknown_app_rejected(self):
        with pytest.raises(FuzzError, match="unknown fuzz app"):
            run_fuzz(2, seed=7, apps=("nonesuch",))

    def test_checkpoint_belongs_to_one_campaign(self, tmp_path):
        """Cell keys (``fuzz/NNNN/app``) repeat across campaigns, so the
        checkpoint identity carries what decides their content: resuming
        under another seed is a typed error, not the first seed's cells;
        a larger budget of the same campaign extends it."""
        path = str(tmp_path / "fuzz.ckpt")
        first = run_fuzz(2, seed=7, workload_scale=0.1, checkpoint_path=path)
        with pytest.raises(CheckpointError, match="belongs to sweep"):
            run_fuzz(2, seed=8, workload_scale=0.1, checkpoint_path=path,
                     resume=True)
        seen = []
        longer = run_fuzz(3, seed=7, workload_scale=0.1, checkpoint_path=path,
                          resume=True,
                          progress=lambda key, resumed: seen.append(resumed))
        assert seen == [True, True, False]
        assert [c.digest for c in longer.cells[:2]] == \
            [c.digest for c in first.cells]


# ---------------------------------------------------------------------------
# Shrinker mechanics (synthetic evaluator: no simulation runs)
# ---------------------------------------------------------------------------

class TestShrinkMechanics:
    def _loaded_case(self) -> FuzzCase:
        plan = FaultPlan(
            name="loaded", seed=3, disk_error_rate=0.08,
            slow_factor=20.0, slow_start_s=0.001, slow_duration_s=0.01,
            offline_disk=1, offline_start_s=0.001, offline_duration_s=0.008,
            hint_drop_rate=0.3, hint_corrupt_rate=0.3,
            spec_divergence_rate=0.5,
        )
        return FuzzCase(index=0, app="agrep", plan=plan,
                        spec_overrides={"throttle_cancel_limit": 2})

    def test_shrinks_to_the_one_guilty_event(self):
        # The "bug" trips iff hints are being dropped at all.
        def evaluate(case):
            if case.plan.hint_drop_rate > 0.0:
                return [Violation("hint-lifecycle", "tripped")]
            return []

        result = shrink_case(self._loaded_case(), "hint-lifecycle", evaluate)
        assert result.events == ["hint-drop"]
        assert "transient-errors" in result.removed
        assert "throttle-params" in result.removed
        # The guilty rate was also reduced toward its floor.
        assert result.case.plan.hint_drop_rate < 0.3

    def test_dead_disk_removal_cascades(self):
        plan = FaultPlan(
            name="cascade", seed=3, dead_disk=0, dead_at_s=0.001,
            second_dead_disk=1, second_dead_at_s=0.002,
            rebuild_share=0.5, hedge_after_s=0.004, hint_drop_rate=0.2,
        )
        case = FuzzCase(index=0, app="agrep", plan=plan)

        def evaluate(c):
            if c.plan.hint_drop_rate > 0.0:
                return [Violation("hint-lifecycle", "tripped")]
            return []

        result = shrink_case(case, "hint-lifecycle", evaluate)
        assert result.events == ["hint-drop"]
        assert result.case.plan.dead_disk == -1
        assert result.case.plan.second_dead_disk == -1
        assert result.case.plan.rebuild_share == 0.0
        assert result.case.plan.hedge_after_s == 0.0

    def test_never_returns_a_passing_case(self):
        # Monitor trips only while BOTH drop and corrupt are active:
        # neither single removal may be accepted.
        def evaluate(case):
            plan = case.plan
            if plan.hint_drop_rate > 0.0 and plan.hint_corrupt_rate > 0.0:
                return [Violation("spec-identity", "tripped")]
            return []

        result = shrink_case(self._loaded_case(), "spec-identity", evaluate)
        assert "hint-drop" in result.events
        assert "hint-corrupt" in result.events
        assert evaluate(result.case)

    def test_windows_narrow_and_the_slow_factor_softens(self):
        # The "bug" needs a slow disk and an offline disk at the same time:
        # neither window can go, so the shrinker can only soften them.
        def evaluate(case):
            plan = case.plan
            if plan.slow_factor > 1.0 and plan.slow_duration_s > 0.0 \
                    and plan.offline_duration_s > 0.0:
                return [Violation("prefetch-progress", "tripped")]
            return []

        result = shrink_case(self._loaded_case(), "prefetch-progress", evaluate,
                             max_evaluations=200)
        assert result.events == ["slow-window", "offline-window"]
        assert {"soften slow_factor", "narrow slow window",
                "narrow offline window"} <= set(result.reduced)
        plan = result.case.plan
        # 20 -> 10.5 -> 5.75 -> 3.375 -> 2.1875 -> 1.5938 (rounded to 4
        # places): a factor of 2 or less is not softened again.
        assert plan.slow_factor == 1.5938
        assert plan.slow_duration_s == 0.000625
        assert plan.offline_duration_s == 0.001
        assert evaluate(result.case)

    def test_passing_start_is_a_caller_bug(self):
        with pytest.raises(FuzzError, match="does not trip"):
            shrink_case(self._loaded_case(), "audit-chain", lambda c: [])

    def test_respects_evaluation_budget(self):
        calls = [0]

        def evaluate(case):
            calls[0] += 1
            return [Violation("typed-errors", "always")]

        shrink_case(self._loaded_case(), "typed-errors", evaluate,
                    max_evaluations=5)
        assert calls[0] <= 5

    def test_shrink_is_deterministic(self):
        def evaluate(case):
            if case.plan.spec_divergence_rate > 0.0:
                return [Violation("cancel-drain", "tripped")]
            return []

        a = shrink_case(self._loaded_case(), "cancel-drain", evaluate)
        b = shrink_case(self._loaded_case(), "cancel-drain", evaluate)
        assert a.case.to_jsonable() == b.case.to_jsonable()
        assert a.removed == b.removed and a.reduced == b.reduced

    def test_shrink_events_vocabulary(self):
        events = shrink_events(self._loaded_case())
        assert events == [
            "transient-errors", "slow-window", "offline-window",
            "hint-drop", "hint-corrupt", "restart-storm", "throttle-params",
        ]


# ---------------------------------------------------------------------------
# Reproducer persistence
# ---------------------------------------------------------------------------

class TestReproducer:
    def test_save_load_round_trip(self, tmp_path):
        case = FaultPlanGenerator(7).case(3)
        path = str(tmp_path / "repro.json")
        Reproducer(case=case, monitor="hint-lifecycle", detail="d",
                   workload_scale=0.25, note="n").save(path)
        back = Reproducer.load(path)
        assert back.case.to_jsonable() == case.to_jsonable()
        assert back.monitor == "hint-lifecycle"
        assert back.workload_scale == 0.25
        assert back.note == "n"

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(FuzzError, match="not valid JSON"):
            Reproducer.load(str(path))

    def test_load_rejects_missing_file(self):
        with pytest.raises(FuzzError, match="cannot read"):
            Reproducer.load("/nonexistent/repro.json")

    def test_load_rejects_missing_case(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text('{"version": 1, "monitor": "x"}')
        with pytest.raises(FuzzError, match="case"):
            Reproducer.load(str(path))

    def test_load_rejects_bad_plan(self, tmp_path):
        case = FaultPlanGenerator(7).case(0)
        data = Reproducer(case=case, monitor="x").to_jsonable()
        data["case"]["plan"]["hint_drop_rate"] = 3.0
        import json

        path = tmp_path / "invalid.json"
        path.write_text(json.dumps(data))
        with pytest.raises(FuzzError):
            Reproducer.load(str(path))


# ---------------------------------------------------------------------------
# Planted isolation bug: the acceptance loop end to end
# ---------------------------------------------------------------------------

def _forget_cancelled(self, record):
    """``HintLifecycle.cancelled`` with its body deleted: ``cancel_all``
    still drains the queue (so the runtime's own drain check passes) but
    cancelled hints never reach a terminal state in the ledger.  Planted
    in the ledger, not by copying ``cancel_all``: a copy goes stale the
    moment the manager's queue bookkeeping changes, and then plants a
    second bug of its own."""


class TestPlantedIsolationBug:
    BUDGET = 10  # the bug is found at cell 8 of seed 7

    def test_fuzz_catches_shrinks_and_replays(self, monkeypatch, tmp_path):
        monkeypatch.setattr(HintLifecycle, "cancelled", _forget_cancelled)

        # 1. A fuzz campaign (in-process: jobs=1 so the patch applies)
        #    catches the planted bug within budget.
        report = run_fuzz(self.BUDGET, seed=7, jobs=1)
        failures = report.failures()
        assert failures, "planted isolation bug survived the fuzz budget"
        cell = failures[0]
        monitors = {v.monitor for v in cell.violations}
        assert {"hint-lifecycle", "cancel-drain"} & monitors

        # 2. The failing schedule shrinks to a tiny reproducer.
        monitor = cell.violations[0].monitor
        shrunk = shrink_case(
            cell.case, monitor,
            lambda c: run_fuzz_case(c).violations,
        )
        assert len(shrunk.events) <= 3
        assert dataclasses.asdict(shrunk.case.plan)  # still a valid plan

        # 3. The reproducer replays red while the bug is in place...
        path = str(tmp_path / "repro.json")
        Reproducer(case=shrunk.case, monitor=monitor,
                   detail=cell.violations[0].detail).save(path)
        replayed = run_fuzz_case(Reproducer.load(path).case)
        assert not replayed.passed
        assert monitor in {v.monitor for v in replayed.violations}

    def test_reproducer_replays_green_without_the_bug(self, monkeypatch,
                                                      tmp_path):
        # Produce the reproducer under the bug, then undo the patch.
        monkeypatch.setattr(HintLifecycle, "cancelled", _forget_cancelled)
        report = run_fuzz(self.BUDGET, seed=7, jobs=1)
        cell = report.failures()[0]
        monitor = cell.violations[0].monitor
        shrunk = shrink_case(
            cell.case, monitor,
            lambda c: run_fuzz_case(c).violations,
        )
        monkeypatch.undo()

        result = run_fuzz_case(shrunk.case)
        assert result.passed, [str(v) for v in result.violations]
