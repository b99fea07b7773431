"""Generative chaos: seeded sampling of the whole fault-dimension space.

The built-in :data:`~repro.faults.plan.PROFILES` are eight points (plus
the inactive ``none``) in a fault space — declared axis by axis in
:data:`~repro.faults.plan.AXES` — that spans transient error rates,
stuck/offline windows, hint channel loss and corruption, restart storms,
disk death with rebuilds and hedging, double faults, and the speculation
throttle/watchdog knobs.
:class:`FaultPlanGenerator` samples that space — every case is a valid
:class:`~repro.faults.plan.FaultPlan` (composition rules enforced: a
double fault implies a first death and therefore
``expects_data_loss``) plus an optional set of speculation-parameter
overrides, fully determined by ``(seed, index)`` so any case can be
regenerated, rerun, and shrunk in isolation.

Sampling is *dimension-weighted*: each case activates one to three
dimensions drawn by weight (rare, expensive compositions like the double
fault carry low weight), and every dimension draws from its own forked
RNG stream so the generator inherits the injector's decoupling property —
adding a dimension never perturbs how another one is sampled.

:class:`CoverageLedger` keeps the campaign honest: it counts cases per
dimension, per dimension *combination*, and per intensity bucket, so
``repro fuzz --coverage-report`` shows which corners of the fault space a
budget actually visited.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import FuzzError
from repro.faults.plan import AXIS_BY_NAME, OVERRIDE_KINDS, FaultPlan
from repro.sim.rng import DeterministicRng

#: SpecHintParams fields a fuzz case may override (the speculation-knob
#: axes' keys: throttle and watchdog).
SPEC_OVERRIDE_FIELDS = tuple(OVERRIDE_KINDS)

#: Serialization format version of fuzz cases / reproducers.
CASE_VERSION = 1


def validate_spec_overrides(overrides: Dict[str, object]) -> None:
    """Reject override keys outside the whitelist, and values of the wrong
    type or range (the key's kind), with a typed error that names the
    key."""
    unknown = sorted(set(overrides) - set(SPEC_OVERRIDE_FIELDS))
    if unknown:
        raise FuzzError(
            f"unknown speculation override key(s): {', '.join(unknown)}; "
            f"expected a subset of: {', '.join(SPEC_OVERRIDE_FIELDS)}"
        )
    for key, value in overrides.items():
        kind = OVERRIDE_KINDS[key]
        if isinstance(value, bool) or kind.rejects(value):
            raise FuzzError(f"speculation override {key!r} must be "
                            f"{kind.override_rule}, got {value!r}")


@dataclass
class FuzzCase:
    """One generated fuzz cell: an app under a generated fault plan."""

    index: int
    app: str
    plan: FaultPlan
    spec_overrides: Dict[str, object] = field(default_factory=dict)

    @property
    def key(self) -> str:
        return f"fuzz/{self.index:04d}/{self.app}"

    def to_jsonable(self) -> Dict[str, object]:
        return {
            "version": CASE_VERSION,
            "index": self.index,
            "app": self.app,
            "plan": self.plan.to_jsonable(),
            "spec_overrides": dict(self.spec_overrides),
        }

    @classmethod
    def from_jsonable(cls, data: object) -> "FuzzCase":
        if not isinstance(data, dict):
            raise FuzzError(
                f"fuzz case must be a JSON object, got {type(data).__name__}"
            )
        version = data.get("version", CASE_VERSION)
        if version != CASE_VERSION:
            raise FuzzError(
                f"fuzz case version {version!r} not supported "
                f"(this build reads version {CASE_VERSION})"
            )
        missing = [k for k in ("app", "plan") if k not in data]
        if missing:
            raise FuzzError(
                f"fuzz case missing key(s): {', '.join(missing)}"
            )
        overrides = dict(data.get("spec_overrides", {}))
        validate_spec_overrides(overrides)
        return cls(
            index=int(data.get("index", 0)),
            app=str(data["app"]),
            plan=FaultPlan.from_jsonable(data["plan"]),
            spec_overrides=overrides,
        )


# ---------------------------------------------------------------------------
# Dimensions
# ---------------------------------------------------------------------------

@dataclass
class _Draft:
    """Mutable scratch a case is assembled in before freezing."""

    ndisks: int
    plan: Dict[str, object] = field(default_factory=dict)
    overrides: Dict[str, object] = field(default_factory=dict)


def _sample_slow_window(rng: DeterministicRng, draft: _Draft) -> None:
    # slow_factor was drawn first, as the dimension's intensity.
    draft.plan["slow_start_s"] = round(rng.uniform(0.0, 0.004), 6)
    draft.plan["slow_duration_s"] = round(rng.uniform(0.002, 0.02), 6)


def _sample_offline_window(rng: DeterministicRng, draft: _Draft) -> None:
    draft.plan["offline_disk"] = rng.randint(0, draft.ndisks - 1)
    draft.plan["offline_start_s"] = round(rng.uniform(0.0, 0.004), 6)
    draft.plan["offline_duration_s"] = round(rng.uniform(0.002, 0.012), 6)


def _sample_disk_death(rng: DeterministicRng, draft: _Draft) -> None:
    draft.plan["dead_disk"] = rng.randint(0, draft.ndisks - 1)
    draft.plan["dead_at_s"] = round(rng.uniform(0.0005, 0.006), 6)
    if rng.uniform(0.0, 1.0) < 0.5:
        draft.plan["rebuild_share"] = round(rng.uniform(0.3, 0.9), 2)
    if rng.uniform(0.0, 1.0) < 0.5:
        draft.plan["hedge_after_s"] = round(rng.uniform(0.002, 0.008), 6)


def _sample_double_fault(rng: DeterministicRng, draft: _Draft) -> None:
    # Composition rule: runs after disk-death (its requirement), so the
    # first death is already drawn; the second must hit a different disk
    # and land after the first so expects_data_loss composes correctly.
    dead = int(draft.plan["dead_disk"])  # type: ignore[arg-type]
    second = rng.randint(0, draft.ndisks - 2)
    if second >= dead:
        second += 1
    draft.plan["second_dead_disk"] = second
    dead_at = float(draft.plan["dead_at_s"])  # type: ignore[arg-type]
    draft.plan["second_dead_at_s"] = round(
        dead_at + rng.uniform(0.0005, 0.004), 6
    )


def _sample_throttle_params(rng: DeterministicRng, draft: _Draft) -> None:
    draft.overrides["throttle_cancel_limit"] = rng.randint(1, 8)
    draft.overrides["throttle_disable_reads"] = rng.randint(8, 64)


def _sample_watchdog_params(rng: DeterministicRng, draft: _Draft) -> None:
    draft.overrides["watchdog_restart_limit"] = rng.randint(2, 16)
    draft.overrides["watchdog_fault_limit"] = rng.randint(8, 64)
    draft.overrides["watchdog_min_accuracy"] = round(
        rng.uniform(0.0, 0.3), 3
    )
    draft.overrides["watchdog_accuracy_window"] = rng.randint(16, 128)


@dataclass(frozen=True)
class Intensity:
    """A plan field a dimension draws uniformly from ``[lo, hi]``; the
    coverage ledger buckets the drawn value by thirds of that range."""

    field: str
    lo: float
    hi: float
    digits: int = 4

    def draw(self, rng: DeterministicRng, draft: _Draft) -> None:
        draft.plan[self.field] = round(rng.uniform(self.lo, self.hi),
                                       self.digits)

    def bucket(self, plan: FaultPlan) -> str:
        third = (float(getattr(plan, self.field)) - self.lo) / (self.hi - self.lo)
        if third < 1.0 / 3.0:
            return "low"
        if third < 2.0 / 3.0:
            return "mid"
        return "high"


@dataclass(frozen=True)
class Dimension:
    """A fault axis the generator can activate, and how it is drawn."""

    name: str
    weight: float
    #: The axis of ``faults/plan.py::AXES`` this dimension turns on.
    axis: str
    #: The bucketed field, drawn first.
    intensity: Optional[Intensity] = None
    #: Draws the dimension's other fields.
    sampler: Optional[Callable[[DeterministicRng, _Draft], None]] = None

    @property
    def requires(self) -> Optional[str]:
        """The dimension this one cannot exist without: the one whose
        axis this one's axis rides on (composition rule)."""
        host = AXIS_BY_NAME[self.axis].rides_on
        return None if host is None else _DIMENSION_BY_AXIS[host].name

    def sample(self, rng: DeterministicRng, draft: _Draft) -> None:
        if self.intensity is not None:
            self.intensity.draw(rng, draft)
        if self.sampler is not None:
            self.sampler(rng, draft)


#: The full fault space, in application order (requirements first).
DIMENSIONS: Tuple[Dimension, ...] = (
    Dimension("transient", 1.0, "transient-errors",
              Intensity("disk_error_rate", 0.01, 0.10)),
    Dimension("slow-window", 0.8, "slow-window",
              Intensity("slow_factor", 5.0, 60.0, digits=2),
              _sample_slow_window),
    Dimension("offline-window", 0.8, "offline-window",
              sampler=_sample_offline_window),
    Dimension("hint-drop", 1.0, "hint-drop",
              Intensity("hint_drop_rate", 0.05, 0.5)),
    Dimension("hint-corrupt", 1.0, "hint-corrupt",
              Intensity("hint_corrupt_rate", 0.05, 0.5)),
    Dimension("restart-storm", 0.9, "restart-storm",
              Intensity("spec_divergence_rate", 0.1, 0.99)),
    Dimension("disk-death", 0.7, "dead-disk", sampler=_sample_disk_death),
    Dimension("double-fault", 0.25, "second-dead-disk",
              sampler=_sample_double_fault),
    Dimension("throttle-params", 0.5, "throttle-params",
              sampler=_sample_throttle_params),
    Dimension("watchdog-params", 0.5, "watchdog-params",
              sampler=_sample_watchdog_params),
)

_DIMENSION_BY_NAME: Dict[str, Dimension] = {d.name: d for d in DIMENSIONS}
_DIMENSION_BY_AXIS: Dict[str, Dimension] = {d.axis: d for d in DIMENSIONS}


def case_dimensions(
    plan: FaultPlan, spec_overrides: Optional[Dict[str, object]] = None
) -> List[str]:
    """Which dimensions a (plan, overrides) pair actually activates.

    Each dimension is on when its axis is: the coverage ledger and the
    shrinker (:func:`repro.faults.shrink.shrink_events`) read the same
    axis table.
    """
    overrides = spec_overrides or {}
    return [dim.name for dim in DIMENSIONS
            if AXIS_BY_NAME[dim.axis].on(plan, overrides)]


class CoverageLedger:
    """Counts which corners of the fault space a campaign visited."""

    def __init__(self) -> None:
        self.cases = 0
        self.dimension_counts: Counter[str] = Counter()
        self.combo_counts: Counter[str] = Counter()
        self.bucket_counts: Counter[str] = Counter()
        self.app_counts: Counter[str] = Counter()
        self.data_loss_cases = 0

    def note(self, case: FuzzCase) -> None:
        self.cases += 1
        self.app_counts[case.app] += 1
        dims = case_dimensions(case.plan, case.spec_overrides)
        for dim in dims:
            self.dimension_counts[dim] += 1
            intensity = _DIMENSION_BY_NAME[dim].intensity
            if intensity is not None:
                self.bucket_counts[f"{dim}:{intensity.bucket(case.plan)}"] += 1
        self.combo_counts["+".join(sorted(dims)) or "(none)"] += 1
        if case.plan.expects_data_loss:
            self.data_loss_cases += 1

    def to_jsonable(self) -> Dict[str, object]:
        return {
            "cases": self.cases,
            "apps": dict(sorted(self.app_counts.items())),
            "dimensions": dict(sorted(self.dimension_counts.items())),
            "combos": dict(sorted(self.combo_counts.items())),
            "buckets": dict(sorted(self.bucket_counts.items())),
            "data_loss_cases": self.data_loss_cases,
            "dimensions_never_hit": sorted(
                set(_DIMENSION_BY_NAME) - set(self.dimension_counts)
            ),
        }

    def format_text(self) -> str:
        lines = [f"fault-space coverage over {self.cases} case(s):"]
        for dim in DIMENSIONS:
            lines.append(f"  {dim.name:18s} {self.dimension_counts[dim.name]:4d}")
        never = sorted(set(_DIMENSION_BY_NAME) - set(self.dimension_counts))
        if never:
            lines.append(f"  never hit: {', '.join(never)}")
        lines.append(f"  distinct combos: {len(self.combo_counts)}; "
                     f"data-loss cases: {self.data_loss_cases}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------

class FaultPlanGenerator:
    """Deterministic ``(seed, index) -> FuzzCase`` sampler."""

    def __init__(
        self,
        seed: int,
        apps: Sequence[str] = ("agrep",),
        ndisks: int = 4,
    ) -> None:
        if not apps:
            raise FuzzError("fuzz generator needs at least one app")
        if ndisks < 2:
            raise FuzzError(
                f"fuzz generator needs >= 2 disks for disk-fault "
                f"dimensions, got {ndisks}"
            )
        self.seed = seed
        self.apps = tuple(apps)
        self.ndisks = ndisks

    def _choose_dimensions(self, rng: DeterministicRng) -> List[Dimension]:
        count = 1
        if rng.uniform(0.0, 1.0) < 0.6:
            count += 1
        if rng.uniform(0.0, 1.0) < 0.3:
            count += 1
        chosen: List[str] = []
        pool = list(DIMENSIONS)
        while pool and len(chosen) < count:
            total = sum(d.weight for d in pool)
            pick = rng.uniform(0.0, total)
            acc = 0.0
            selected = pool[-1]
            for dim in pool:
                acc += dim.weight
                if pick <= acc:
                    selected = dim
                    break
            pool.remove(selected)
            chosen.append(selected.name)
        # Composition rules: pull in requirements (may exceed `count` by
        # design — a double fault is meaningless without its first death).
        for name in list(chosen):
            required = _DIMENSION_BY_NAME[name].requires
            if required is not None and required not in chosen:
                chosen.append(required)
        return [dim for dim in DIMENSIONS if dim.name in chosen]

    def case(self, index: int) -> FuzzCase:
        """The ``index``-th case of this seed (stable under any budget)."""
        root = DeterministicRng(self.seed, f"fuzz/case{index}")
        app = root.fork("app").choice(self.apps)
        draft = _Draft(ndisks=self.ndisks)
        for dim in self._choose_dimensions(root.fork("dims")):
            dim.sample(root.fork(f"dim/{dim.name}"), draft)
        plan = FaultPlan(
            name=f"fuzz-{self.seed}-{index}",
            seed=root.fork("fault-seed").randint(0, 2**31 - 1),
            **draft.plan,  # type: ignore[arg-type]
        )
        plan.validate()
        return FuzzCase(
            index=index, app=app, plan=plan,
            spec_overrides=dict(draft.overrides),
        )

    def cases(self, budget: int) -> List[FuzzCase]:
        """The first ``budget`` cases of this seed."""
        if budget < 1:
            raise FuzzError(f"fuzz budget must be >= 1, got {budget}")
        return [self.case(index) for index in range(budget)]
