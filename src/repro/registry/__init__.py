"""Persistent run registry: ledger, lineage, regression gate, tuner.

A local, crash-safe ledger of every harness run — results, trace
summaries, invariant verdicts — keyed by ``(app, params_digest, seed,
chaos_profile, code_version)`` with parent/child lineage links for sweep
cells, oracle variants and fuzz cases.  On top of it sit a similarity
layer (:mod:`repro.registry.similarity`), a regression detector
(:mod:`repro.registry.regression`) and a closed-loop speculation tuner
(:mod:`repro.registry.tuner`).

This package never imports from :mod:`repro.harness` at module level:
the harness runner imports :mod:`repro.registry.fingerprint` while the
harness package is still initializing, so the registry must remain a
dependency leaf.
"""

from repro.registry.fingerprint import (
    TUNABLE_SPEC_PARAMS,
    chaos_key,
    code_version,
    params_digest,
    spec_tunables,
)
from repro.registry.record import REGISTRY_SCHEMA_VERSION, RunRecord
from repro.registry.store import RunRegistry

__all__ = [
    "TUNABLE_SPEC_PARAMS",
    "chaos_key",
    "code_version",
    "params_digest",
    "spec_tunables",
    "REGISTRY_SCHEMA_VERSION",
    "RunRecord",
    "RunRegistry",
]
