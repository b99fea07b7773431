"""Nearest-past-runs similarity over the registry.

Scores past runs against a target by configuration identity (app,
variant, chaos profile, parameter digest) plus the distance between
stall-breakdown feature vectors — "which previous runs behaved like this
one", not merely "which were configured like it".  ``repro runs similar``
sits on this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.registry.fingerprint import feature_vector
from repro.registry.record import LEAF_KINDS, RunRecord
from repro.registry.store import RunRegistry

#: Score weights; identity dominates but behavior breaks ties.
_W_APP = 0.30
_W_VARIANT = 0.15
_W_CHAOS = 0.15
_W_PARAMS = 0.10
_W_FEATURES = 0.30


@dataclass
class SimilarRun:
    """One scored neighbor: the record, its score in [0, 1], and why."""

    record: RunRecord
    score: float
    why: Tuple[str, ...]

    def to_jsonable(self) -> dict:
        return {
            "run_id": self.record.run_id,
            "score": round(self.score, 4),
            "why": list(self.why),
        }


def score_pair(target: RunRecord, candidate: RunRecord) -> SimilarRun:
    """Score one candidate against the target."""
    score = 0.0
    why: List[str] = []
    if candidate.app == target.app:
        score += _W_APP
        why.append(f"same app ({target.app})")
    if candidate.variant == target.variant:
        score += _W_VARIANT
        why.append(f"same variant ({target.variant})")
    if candidate.chaos_profile == target.chaos_profile:
        score += _W_CHAOS
        why.append(f"same chaos profile ({target.chaos_profile})")
    if candidate.params_digest and candidate.params_digest == target.params_digest:
        score += _W_PARAMS
        why.append("same parameter digest")
    target_features = feature_vector(target.result or {})
    candidate_features = feature_vector(candidate.result or {})
    distance = sum(
        abs(a - b) for a, b in zip(target_features, candidate_features)
    ) / max(1, len(target_features))
    closeness = max(0.0, 1.0 - distance)
    score += _W_FEATURES * closeness
    why.append(f"stall-profile distance {distance:.3f}")
    return SimilarRun(record=candidate, score=score, why=tuple(why))


def similar_runs(
    registry: RunRegistry, target: RunRecord, limit: int = 5
) -> List[SimilarRun]:
    """The ``limit`` most similar leaf runs to ``target`` (excluded)."""
    scored = [
        score_pair(target, candidate)
        for candidate in registry.records()
        if candidate.run_id != target.run_id
        and candidate.kind in LEAF_KINDS
        and candidate.result is not None
    ]
    scored.sort(key=lambda s: (-s.score, s.record.run_id))
    return scored[:limit]
