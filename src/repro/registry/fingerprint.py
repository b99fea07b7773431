"""Deterministic identity keys for registry records.

Every run the registry stores is keyed by a small tuple —
``(app, params_digest, seed, chaos_profile, code_version)`` — and all of
those keys must be *derivable from the run alone*, stable across worker
processes, and free of wall-clock or hostname noise so that a serial
sweep and a ``--jobs 4`` sweep produce byte-identical registries.

This module must not import anything from :mod:`repro.harness` at module
level: the harness runner imports it while the ``repro.harness`` package
is still initializing, so a back-edge here would be a circular import.
Configs are therefore duck-typed (anything with ``resolved_system()`` /
``workload_scale`` works).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from typing import Dict, Mapping, Optional

#: Bump when registry key derivation (not record schema) changes meaning.
#: Folded into ``code_version`` so ledgers written by incompatible key
#: schemes never silently pool into one baseline population.
FINGERPRINT_REVISION = 1

def canonical_json(value: object) -> str:
    """The one JSON encoding used for every digest in the registry."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def digest_of(value: object, length: int = 16) -> str:
    """Truncated SHA-256 of the canonical JSON encoding of ``value``."""
    payload = canonical_json(value).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[:length]


def code_version() -> str:
    """Identity of the code that produced a record.

    Deterministic and identical across worker processes of one sweep (a
    requirement for byte-identical parallel registries), so it cannot be
    a git hash probed at runtime.  ``REPRO_CODE_VERSION`` overrides it
    for CI jobs that want the real commit id in the ledger.
    """
    env = os.environ.get("REPRO_CODE_VERSION")
    if env:
        return env
    return f"repro-fp{FINGERPRINT_REVISION}"


def params_fingerprint(cfg: object) -> Dict[str, object]:
    """The jsonable structure ``params_digest`` hashes.

    Covers everything that shapes a run's behavior *except* the axes the
    registry keys separately: the app and variant (their own columns),
    the chaos plan (the ``chaos_profile`` column) and the system seed
    (its own column).  Excluding the seed is what lets five runs at
    seeds 1999..2003 share one ``params_digest`` and form a matched
    baseline population for the regression detector.
    """
    system = cfg.resolved_system()  # type: ignore[attr-defined]
    system_dict = dataclasses.asdict(system)
    system_dict.pop("seed", None)
    return {
        "system": system_dict,
        "workload_scale": cfg.workload_scale,  # type: ignore[attr-defined]
        "map_all_addresses": cfg.map_all_addresses,  # type: ignore[attr-defined]
    }


def params_digest(cfg: object) -> str:
    """Content digest of a config's behavior-shaping parameters."""
    return digest_of(params_fingerprint(cfg))


def plan_key(plan_jsonable: Mapping[str, object]) -> str:
    """Chaos key for a literal fault plan (no profile name to lean on).

    Generated plans (the chaos fuzzer) exist in no profile table, so the
    key is the plan's own name plus a digest of its full content — two
    fuzz cases with distinct plans never pool into one population.
    """
    name = str(plan_jsonable.get("name") or "plan")
    return f"{name}:{digest_of(dict(plan_jsonable), length=12)}"


def chaos_key(fault_profile: Optional[str]) -> str:
    """Chaos-profile registry key for a run under a built-in profile.

    Built-in profiles key by name (runs differing only in their fault
    seed deliberately pool — the spread across fault seeds is exactly the
    population variance the regression tolerance model should see);
    fault-free runs key "none".  Generated plans key by :func:`plan_key`.
    """
    if fault_profile is None or fault_profile == "none":
        return "none"
    return fault_profile
