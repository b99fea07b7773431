"""Delta-debugging shrinker for failing fuzz cells.

Given a failing ``(app, plan, seed)`` cell and the name of the monitor
that tripped, :func:`shrink_case` deterministically minimizes the fault
schedule while the *same* invariant still trips:

* **removal passes** drop whole fault events (the transient-error
  process, a slow/offline window, a disk death...) one at a time, with
  composition rules — removing the first disk death also removes the
  second death, the rebuild-share override and hedging, because they
  cannot exist without it;
* **reduction passes** lower rates, shorten windows and soften the
  slowdown factor, halving toward a floor;
* the two alternate to a fixpoint (or an evaluation budget), always in
  a fixed order, so the same failing cell always shrinks to the same
  minimal reproducer.

The result persists as a :class:`Reproducer` JSON file; the committed
ones live in ``tests/corpus/`` and are replayed by tier-1 tests (they
must stay green on main — each documents a schedule that once found a
bug) and by ``repro fuzz replay FILE``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Tuple

from repro.errors import FuzzError, ReproError
from repro.faults.generate import CASE_VERSION, FuzzCase
from repro.faults.plan import AXES, FaultPlan

#: ``evaluate(case) -> violations`` — the shrinker's only window into the
#: world.  Production passes a closure over the fuzz engine; tests can
#: pass a pure predicate, keeping shrink-logic tests instant.
Evaluator = Callable[[FuzzCase], List[object]]


# ---------------------------------------------------------------------------
# Event model
# ---------------------------------------------------------------------------

def shrink_events(case: FuzzCase) -> List[str]:
    """The removable fault events of a case: its axes that are on, in
    shrink order (``faults/plan.py::AXES``).

    Finer-grained than the generator's dimensions: ``rebuild-share`` and
    ``hedged-reads`` ride on a disk death but can be removed on their
    own.  ``len(shrink_events(case))`` is the "fault event count" a
    minimal reproducer is measured by.
    """
    return [axis.name for axis in AXES
            if axis.on(case.plan, case.spec_overrides)]


def _without(case: FuzzCase, event: str) -> FuzzCase:
    """The case with one event of :func:`shrink_events` removed: the axis's
    names, and those of every axis riding on it, go back to their defaults
    (an override key is dropped).  A plan with an axis and its riders at
    their defaults is valid; were it not, ``validate`` raises
    :class:`~repro.errors.InvalidFaultPlan`."""
    owned = {name for axis in AXES if event in (axis.name, axis.rides_on)
             for name in axis.owns}
    defaults: Dict[str, Any] = FaultPlan().to_jsonable()
    plan = replace(case.plan, **{name: defaults[name] for name in owned
                                 if name in defaults})
    plan.validate()
    overrides = {key: value for key, value in case.spec_overrides.items()
                 if key not in owned}
    return FuzzCase(index=case.index, app=case.app, plan=plan,
                    spec_overrides=overrides)


def _reductions(case: FuzzCase) -> List[Tuple[str, FuzzCase]]:
    """Rate/window softening candidates, in a fixed order."""
    plan = case.plan
    candidates: List[Tuple[str, FaultPlan]] = []
    for name, floor in (
        ("disk_error_rate", 0.005),
        ("hint_drop_rate", 0.02),
        ("hint_corrupt_rate", 0.02),
        ("spec_divergence_rate", 0.05),
    ):
        value = float(getattr(plan, name))
        if value > floor:
            candidates.append((
                f"halve {name}",
                replace(plan, **{name: round(value / 2.0, 6)}),
            ))
    if plan.slow_factor > 2.0 and plan.slow_duration_s > 0.0:
        candidates.append((
            "soften slow_factor",
            replace(plan, slow_factor=round(1.0 + (plan.slow_factor - 1.0) / 2.0, 4)),
        ))
    if plan.slow_duration_s > 0.001:
        candidates.append((
            "narrow slow window",
            replace(plan, slow_duration_s=round(plan.slow_duration_s / 2.0, 6)),
        ))
    if plan.offline_disk >= 0 and plan.offline_duration_s > 0.001:
        candidates.append((
            "narrow offline window",
            replace(plan, offline_duration_s=round(plan.offline_duration_s / 2.0, 6)),
        ))
    return [
        (label, FuzzCase(index=case.index, app=case.app, plan=candidate,
                         spec_overrides=dict(case.spec_overrides)))
        for label, candidate in candidates
    ]


# ---------------------------------------------------------------------------
# Shrink loop
# ---------------------------------------------------------------------------

@dataclass
class ShrinkResult:
    """Minimal failing case plus the trail of how it got there."""

    case: FuzzCase
    monitor: str
    evaluations: int
    removed: List[str] = field(default_factory=list)
    reduced: List[str] = field(default_factory=list)

    @property
    def events(self) -> List[str]:
        return shrink_events(self.case)


def shrink_case(
    case: FuzzCase,
    monitor: str,
    evaluate: Evaluator,
    max_evaluations: int = 64,
) -> ShrinkResult:
    """Minimize ``case`` while ``monitor`` still trips under ``evaluate``.

    ``evaluate`` returns the cell's violations (objects with a
    ``monitor`` attribute, e.g. :class:`repro.harness.invariants.Violation`);
    the shrink predicate is "some violation from the target monitor
    survives".  Raises :class:`FuzzError` when the starting case does not
    trip the monitor at all — shrinking a passing cell is a caller bug.
    """
    spent = 0

    def trips(candidate: FuzzCase) -> bool:
        nonlocal spent
        if spent >= max_evaluations:
            return False
        spent += 1
        violations = evaluate(candidate)
        return any(
            getattr(v, "monitor", None) == monitor for v in violations
        )

    if not trips(case):
        raise FuzzError(
            f"cannot shrink {case.key}: monitor {monitor!r} does not trip "
            f"on the starting case"
        )

    current = case
    removed: List[str] = []
    reduced: List[str] = []
    changed = True
    while changed and spent < max_evaluations:
        changed = False
        for event in shrink_events(current):
            candidate = _without(current, event)
            if trips(candidate):
                current = candidate
                removed.append(event)
                changed = True
        for label, candidate in _reductions(current):
            if trips(candidate):
                current = candidate
                reduced.append(label)
                changed = True
    return ShrinkResult(
        case=current, monitor=monitor, evaluations=spent,
        removed=removed, reduced=reduced,
    )


# ---------------------------------------------------------------------------
# Reproducers
# ---------------------------------------------------------------------------

@dataclass
class Reproducer:
    """A minimal shrunk schedule, persisted for replay.

    Corpus semantics: a committed reproducer documents a schedule that
    once tripped ``monitor``; on a healthy tree it must replay *green*
    (tier-1 replays every ``tests/corpus/*.json``), and while the bug is
    live ``repro fuzz replay FILE`` exits red with the violation.
    """

    case: FuzzCase
    monitor: str
    detail: str = ""
    workload_scale: float = 0.25
    note: str = ""

    def to_jsonable(self) -> Dict[str, object]:
        return {
            "version": CASE_VERSION,
            "monitor": self.monitor,
            "detail": self.detail,
            "workload_scale": self.workload_scale,
            "note": self.note,
            "case": self.case.to_jsonable(),
        }

    @classmethod
    def from_jsonable(cls, data: object) -> "Reproducer":
        if not isinstance(data, dict):
            raise FuzzError(
                f"reproducer must be a JSON object, got {type(data).__name__}"
            )
        version = data.get("version", CASE_VERSION)
        if version != CASE_VERSION:
            raise FuzzError(
                f"reproducer version {version!r} not supported "
                f"(this build reads version {CASE_VERSION})"
            )
        if "case" not in data:
            raise FuzzError("reproducer missing its 'case' object")
        return cls(
            case=FuzzCase.from_jsonable(data["case"]),
            monitor=str(data.get("monitor", "")),
            detail=str(data.get("detail", "")),
            workload_scale=float(data.get("workload_scale", 0.25)),  # type: ignore[arg-type]
            note=str(data.get("note", "")),
        )

    def save(self, path: str) -> None:
        from repro.harness.checkpoint import atomic_write_json

        try:
            atomic_write_json(path, self.to_jsonable())
        except OSError as exc:
            raise FuzzError(f"cannot write reproducer {path!r}: {exc}") from exc

    @classmethod
    def load(cls, path: str) -> "Reproducer":
        try:
            with open(path, encoding="utf-8") as handle:
                data = json.load(handle)
        except OSError as exc:
            raise FuzzError(f"cannot read reproducer {path!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise FuzzError(
                f"reproducer {path!r} is not valid JSON: {exc}"
            ) from exc
        try:
            return cls.from_jsonable(data)
        except ReproError as exc:
            raise FuzzError(f"reproducer {path!r}: {exc}") from exc
