"""Performance-regression detection over the run registry.

Each candidate run is compared against its *matched baseline
population*: past records sharing the same identity keys (by default
app, variant, kind, chaos profile and parameter digest — any seed).
Three headline metrics are checked, each only in its harmful direction:

* ``elapsed_cycles`` — up is bad;
* ``hint_lead_median`` — down is bad (hints arriving later);
* ``wasted_prefetch_fraction`` — up is bad (prefetching garbage).

The tolerance model is relative drift against the baseline mean with a
noise-aware width: ``tol = max(floor, z * cv)`` where ``cv`` is the
population's coefficient of variation.  Seeds jitter file layout, so a
population spread across seeds widens its own tolerance — a quiet
workload gets a tight gate, a noisy one does not cry wolf.

Identical-seed reruns deduplicate to the same content-addressed record,
so drift is exactly zero and the detector stays silent by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import RegistryError
from repro.registry.record import RunRecord
from repro.registry.store import RunRegistry

#: Identity columns a baseline may be matched on.
MATCH_KEYS = ("app", "variant", "kind", "chaos", "params")
_KEY_ATTR = {
    "app": "app",
    "variant": "variant",
    "kind": "kind",
    "chaos": "chaos_profile",
    "params": "params_digest",
}

#: (harmful direction, relative floor) per metric.  Direction +1 flags
#: increases, -1 flags decreases.
METRIC_RULES: Dict[str, Tuple[int, float]] = {
    "elapsed_cycles": (+1, 0.05),
    "hint_lead_median": (-1, 0.30),
    "wasted_prefetch_fraction": (+1, 0.30),
}

#: Z-width of the noise-aware tolerance term.
Z_SCORE = 3.0

#: Smallest population the detector will judge against.
DEFAULT_MIN_BASELINE = 3


@dataclass
class RegressionFinding:
    """One flagged metric on one candidate run."""

    run_id: str
    metric: str
    value: float
    baseline_mean: float
    baseline_count: int
    drift_pct: float
    tolerance_pct: float

    def describe(self) -> str:
        direction = "rose" if self.drift_pct > 0 else "fell"
        return (
            f"{self.run_id[:12]} {self.metric} {direction} "
            f"{abs(self.drift_pct):.1f}% vs {self.baseline_count}-run "
            f"baseline mean {self.baseline_mean:.1f} "
            f"(tolerance {self.tolerance_pct:.1f}%)"
        )


@dataclass
class RegressionReport:
    """Outcome of checking one or many candidates."""

    findings: List[RegressionFinding] = field(default_factory=list)
    checked: int = 0
    skipped_no_baseline: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings


def parse_match_keys(spec: Optional[str]) -> Tuple[str, ...]:
    """Parse a ``--match app,variant`` style key list."""
    if not spec:
        return MATCH_KEYS
    keys = tuple(part.strip() for part in spec.split(",") if part.strip())
    unknown = [k for k in keys if k not in MATCH_KEYS]
    if unknown:
        raise RegistryError(
            f"unknown match key(s) {', '.join(unknown)}; "
            f"expected a subset of: {', '.join(MATCH_KEYS)}"
        )
    return keys


def _require_min_baseline(min_baseline: int) -> None:
    # A baseline mean needs at least one sample to divide by.
    if min_baseline < 1:
        raise RegistryError(
            f"min_baseline must be at least 1, got {min_baseline}"
        )


def _matches(candidate: RunRecord, other: RunRecord, keys: Sequence[str]) -> bool:
    return all(
        getattr(candidate, _KEY_ATTR[key]) == getattr(other, _KEY_ATTR[key])
        for key in keys
    )


def baseline_population(
    registry: RunRegistry,
    candidate: RunRecord,
    match_keys: Sequence[str] = MATCH_KEYS,
    records: Optional[Sequence[RunRecord]] = None,
) -> List[RunRecord]:
    """Past runs the candidate is fairly compared against.

    ``records`` lets a caller checking many candidates deserialize the
    registry once instead of once per candidate.
    """
    if records is None:
        records = registry.records()
    return [
        record
        for record in records
        if record.run_id != candidate.run_id
        and record.metric_values() is not None
        and _matches(candidate, record, match_keys)
    ]


def check_run(
    registry: RunRegistry,
    candidate: RunRecord,
    match_keys: Sequence[str] = MATCH_KEYS,
    min_baseline: int = DEFAULT_MIN_BASELINE,
    records: Optional[Sequence[RunRecord]] = None,
) -> RegressionReport:
    """Judge one run against its matched baseline population."""
    _require_min_baseline(min_baseline)
    report = RegressionReport()
    values = candidate.metric_values()
    if values is None:
        return report
    report.checked = 1
    population = baseline_population(registry, candidate, match_keys, records)
    if len(population) < min_baseline:
        report.skipped_no_baseline = 1
        return report
    for metric, (direction, floor) in METRIC_RULES.items():
        samples = [
            p.metric_values()[metric]  # type: ignore[index]
            for p in population
        ]
        mean = sum(samples) / len(samples)
        if mean == 0.0:
            # A metric the whole population sits at zero on (e.g. hint
            # lead for the original variant) carries no signal.
            continue
        variance = sum((s - mean) ** 2 for s in samples) / len(samples)
        cv = math.sqrt(variance) / abs(mean)
        tolerance = max(floor, Z_SCORE * cv)
        drift = (values[metric] - mean) / abs(mean)
        if direction * drift > tolerance:
            report.findings.append(RegressionFinding(
                run_id=candidate.run_id,
                metric=metric,
                value=values[metric],
                baseline_mean=mean,
                baseline_count=len(samples),
                drift_pct=100.0 * drift,
                tolerance_pct=100.0 * tolerance,
            ))
    return report


def check_all(
    registry: RunRegistry,
    match_keys: Sequence[str] = MATCH_KEYS,
    min_baseline: int = DEFAULT_MIN_BASELINE,
) -> RegressionReport:
    """Judge every run in the registry against its own baseline.

    Differential records (fuzz and oracle cells) carry no scalar metrics
    and are neither judged nor pooled.
    """
    _require_min_baseline(min_baseline)
    report = RegressionReport()
    records = registry.records()
    for record in records:
        if record.metric_values() is None:
            continue
        single = check_run(registry, record, match_keys, min_baseline,
                           records=records)
        report.checked += single.checked
        report.skipped_no_baseline += single.skipped_no_baseline
        report.findings.extend(single.findings)
    report.findings.sort(key=lambda f: (f.run_id, f.metric))
    return report
