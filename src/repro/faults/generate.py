"""Generative chaos: seeded sampling of the whole fault-dimension space.

The hand-written :data:`~repro.faults.plan.PROFILES` are five points in a
fault space that spans transient error rates, stuck/offline windows, hint
channel loss and corruption, restart storms, disk death with rebuilds and
hedging, double faults, and the speculation throttle/watchdog knobs.
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

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import FuzzError
from repro.faults.plan import FaultPlan
from repro.sim.rng import DeterministicRng

#: SpecHintParams fields a fuzz case may override (the speculation-policy
#: dimensions: throttle and watchdog knobs).
SPEC_OVERRIDE_FIELDS = (
    "throttle_cancel_limit",
    "throttle_disable_reads",
    "watchdog_restart_limit",
    "watchdog_fault_limit",
    "watchdog_min_accuracy",
    "watchdog_accuracy_window",
)

#: Serialization format version of fuzz cases / reproducers.
CASE_VERSION = 1


def validate_spec_overrides(overrides: Dict[str, object]) -> None:
    """Reject override keys outside the whitelist, and values of the wrong
    type or range, with a typed error that names the key: the rate is a
    number in [0, 1], every other override a count (an integer >= 0)."""
    unknown = sorted(set(overrides) - set(SPEC_OVERRIDE_FIELDS))
    if unknown:
        raise FuzzError(
            f"unknown speculation override key(s): {', '.join(unknown)}; "
            f"expected a subset of: {', '.join(SPEC_OVERRIDE_FIELDS)}"
        )
    for key, value in overrides.items():
        if key == "watchdog_min_accuracy":
            expected = "a number in [0, 1]"
            valid = isinstance(value, (int, float)) and 0.0 <= value <= 1.0
        else:
            expected = "an integer >= 0"
            valid = isinstance(value, int) and value >= 0
        if isinstance(value, bool) or not valid:
            raise FuzzError(f"speculation override {key!r} must be {expected}, "
                            f"got {value!r}")


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


def _sample_transient(rng: DeterministicRng, draft: _Draft) -> None:
    draft.plan["disk_error_rate"] = round(rng.uniform(0.01, 0.10), 4)


def _sample_slow_window(rng: DeterministicRng, draft: _Draft) -> None:
    draft.plan["slow_factor"] = round(rng.uniform(5.0, 60.0), 2)
    draft.plan["slow_start_s"] = round(rng.uniform(0.0, 0.004), 6)
    draft.plan["slow_duration_s"] = round(rng.uniform(0.002, 0.02), 6)


def _sample_offline_window(rng: DeterministicRng, draft: _Draft) -> None:
    draft.plan["offline_disk"] = rng.randint(0, draft.ndisks - 1)
    draft.plan["offline_start_s"] = round(rng.uniform(0.0, 0.004), 6)
    draft.plan["offline_duration_s"] = round(rng.uniform(0.002, 0.012), 6)


def _sample_hint_drop(rng: DeterministicRng, draft: _Draft) -> None:
    draft.plan["hint_drop_rate"] = round(rng.uniform(0.05, 0.5), 4)


def _sample_hint_corrupt(rng: DeterministicRng, draft: _Draft) -> None:
    draft.plan["hint_corrupt_rate"] = round(rng.uniform(0.05, 0.5), 4)


def _sample_restart_storm(rng: DeterministicRng, draft: _Draft) -> None:
    draft.plan["spec_divergence_rate"] = round(rng.uniform(0.1, 0.99), 4)


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
class Dimension:
    """One axis of the fault space the generator can activate."""

    name: str
    weight: float
    sampler: Callable[[DeterministicRng, _Draft], None]
    #: Dimension this one cannot exist without (composition rule).
    requires: Optional[str] = None


#: The full fault space, in application order (requirements first).
DIMENSIONS: Tuple[Dimension, ...] = (
    Dimension("transient", 1.0, _sample_transient),
    Dimension("slow-window", 0.8, _sample_slow_window),
    Dimension("offline-window", 0.8, _sample_offline_window),
    Dimension("hint-drop", 1.0, _sample_hint_drop),
    Dimension("hint-corrupt", 1.0, _sample_hint_corrupt),
    Dimension("restart-storm", 0.9, _sample_restart_storm),
    Dimension("disk-death", 0.7, _sample_disk_death),
    Dimension("double-fault", 0.25, _sample_double_fault,
              requires="disk-death"),
    Dimension("throttle-params", 0.5, _sample_throttle_params),
    Dimension("watchdog-params", 0.5, _sample_watchdog_params),
)

_DIMENSION_BY_NAME: Dict[str, Dimension] = {d.name: d for d in DIMENSIONS}
_DIMENSION_ORDER: Dict[str, int] = {
    d.name: i for i, d in enumerate(DIMENSIONS)
}


def case_dimensions(
    plan: FaultPlan, spec_overrides: Optional[Dict[str, object]] = None
) -> List[str]:
    """Which dimensions a (plan, overrides) pair actually activates.

    Shared vocabulary of the coverage ledger and the shrinker: the same
    function that tells the ledger "this case exercised hint-drop +
    disk-death" tells the shrinker which axes it may try to remove.
    """
    overrides = spec_overrides or {}
    dims: List[str] = []
    if plan.disk_error_rate > 0.0:
        dims.append("transient")
    if plan.slow_factor != 1.0 and plan.slow_duration_s > 0.0:
        dims.append("slow-window")
    if plan.offline_disk >= 0 and plan.offline_duration_s > 0.0:
        dims.append("offline-window")
    if plan.hint_drop_rate > 0.0:
        dims.append("hint-drop")
    if plan.hint_corrupt_rate > 0.0:
        dims.append("hint-corrupt")
    if plan.spec_divergence_rate > 0.0:
        dims.append("restart-storm")
    if plan.dead_disk >= 0:
        dims.append("disk-death")
    if plan.second_dead_disk >= 0:
        dims.append("double-fault")
    if any(k.startswith("throttle_") for k in overrides):
        dims.append("throttle-params")
    if any(k.startswith("watchdog_") for k in overrides):
        dims.append("watchdog-params")
    return dims


#: Intensity buckets: (plan field, lo, hi) per bucketed dimension.
_BUCKETED: Dict[str, Tuple[str, float, float]] = {
    "transient": ("disk_error_rate", 0.01, 0.10),
    "hint-drop": ("hint_drop_rate", 0.05, 0.5),
    "hint-corrupt": ("hint_corrupt_rate", 0.05, 0.5),
    "restart-storm": ("spec_divergence_rate", 0.1, 0.99),
    "slow-window": ("slow_factor", 5.0, 60.0),
}


def _bucket(value: float, lo: float, hi: float) -> str:
    span = (hi - lo) or 1.0
    third = (value - lo) / span
    if third < 1.0 / 3.0:
        return "low"
    if third < 2.0 / 3.0:
        return "mid"
    return "high"


class CoverageLedger:
    """Counts which corners of the fault space a campaign visited."""

    def __init__(self) -> None:
        self.cases = 0
        self.dimension_counts: Dict[str, int] = {}
        self.combo_counts: Dict[str, int] = {}
        self.bucket_counts: Dict[str, int] = {}
        self.app_counts: Dict[str, int] = {}
        self.data_loss_cases = 0

    def note(self, case: FuzzCase) -> None:
        self.cases += 1
        self.app_counts[case.app] = self.app_counts.get(case.app, 0) + 1
        dims = case_dimensions(case.plan, case.spec_overrides)
        for dim in dims:
            self.dimension_counts[dim] = self.dimension_counts.get(dim, 0) + 1
            bucketed = _BUCKETED.get(dim)
            if bucketed is not None:
                name, lo, hi = bucketed
                key = f"{dim}:{_bucket(float(getattr(case.plan, name)), lo, hi)}"
                self.bucket_counts[key] = self.bucket_counts.get(key, 0) + 1
        combo = "+".join(sorted(dims)) or "(none)"
        self.combo_counts[combo] = self.combo_counts.get(combo, 0) + 1
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
            count = self.dimension_counts.get(dim.name, 0)
            lines.append(f"  {dim.name:18s} {count:4d}")
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
        chosen.sort(key=_DIMENSION_ORDER.__getitem__)
        return [_DIMENSION_BY_NAME[name] for name in chosen]

    def case(self, index: int) -> FuzzCase:
        """The ``index``-th case of this seed (stable under any budget)."""
        root = DeterministicRng(self.seed, f"fuzz/case{index}")
        app = root.fork("app").choice(self.apps)
        draft = _Draft(ndisks=self.ndisks)
        for dim in self._choose_dimensions(root.fork("dims")):
            dim.sampler(root.fork(f"dim/{dim.name}"), draft)
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
