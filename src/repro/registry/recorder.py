"""Turns harness cell payloads into registry records.

The harness ships cell outcomes between processes as plain jsonable
payloads (``RunResult.to_jsonable()`` dicts, differential-cell dicts).
This module is the one place that knows how to map each payload
shape onto :class:`~repro.registry.record.RunRecord` values, and the one
place that writes them: the cell engine feeds it the finished outcome
(:func:`record_results`) whether the cells ran in-process or on
``--jobs N`` workers, which is what makes a serial registry and a
parallel registry byte-identical.  The caller's record context names
the kind of record a cell becomes (``{"kind": "sweep-cell"}``); records
are flat, with no parent or group record above them.

Classification is structural, mirroring how the checkpoints store the
same payloads without a type tag:

* ``{"case": ..., "violations": ...}`` — a differential cell (a fuzz
  case, or an oracle cell whose variants' RunResult sub-payloads under
  ``results`` become ``oracle-variant`` records of their own);
* ``{"app": ..., "cycles": ...}`` — a plain RunResult.
"""

from __future__ import annotations

from typing import List, Mapping, Optional

from repro.errors import RegistryError
from repro.registry.fingerprint import chaos_key, code_version, plan_key
from repro.registry.record import RunRecord
from repro.registry.store import RunRegistry

Payload = Mapping[str, object]

#: Variant label for records that compare variants rather than being one.
DIFFERENTIAL = "differential"


def _ctx_value(ctx: Optional[Mapping[str, object]], key: str, default: object):
    if ctx is None:
        return default
    return ctx.get(key, default)


def _code_version(ctx: Optional[Mapping[str, object]]) -> str:
    return str(_ctx_value(ctx, "code_version", None) or code_version())


def _run_record(
    key: Optional[str], payload: Payload, ctx: Optional[Mapping[str, object]]
) -> RunRecord:
    return RunRecord(
        app=str(payload.get("app", "")),
        variant=str(payload.get("variant", "")),
        kind=str(_ctx_value(ctx, "kind", "run")),
        params_digest=str(payload.get("params_digest", "")),
        seed=int(payload.get("seed", 0)),  # type: ignore[arg-type]
        chaos_profile=chaos_key(payload.get("fault_profile")),  # type: ignore[arg-type]
        cell_key=key,
        code_version=_code_version(ctx),
        result=dict(payload),
    )


def _differential_records(
    key: Optional[str], payload: Payload, ctx: Optional[Mapping[str, object]]
) -> List[RunRecord]:
    case = payload.get("case")
    if not isinstance(case, dict):
        raise RegistryError(
            f"differential payload for cell {key!r} has no case object"
        )
    plan = case.get("plan")
    kind = str(_ctx_value(ctx, "kind", "fuzz-case"))
    if not isinstance(plan, dict):
        chaos = "none"
    elif kind == "fuzz-case":
        chaos = plan_key(plan)
    else:
        # An oracle cell's plan is a built-in profile: it keys by name,
        # like the records of its variant runs.
        chaos = chaos_key(plan.get("name"))  # type: ignore[arg-type]
    variants = payload.get("results") or {}
    cell = RunRecord(
        app=str(case.get("app", "")),
        variant=DIFFERENTIAL,
        kind=kind,
        params_digest=str(payload.get("params_digest", "")),
        seed=int(payload.get("seed", 0)),  # type: ignore[arg-type]
        chaos_profile=chaos,
        cell_key=key,
        # Variant sub-payloads live in their own oracle-variant records.
        result={
            name: value for name, value in payload.items()
            if name != "results"
        },
        code_version=_code_version(ctx),
        verdicts=list(payload.get("violations") or []),  # type: ignore[arg-type]
    )
    variant_ctx = {"kind": "oracle-variant", "code_version": cell.code_version}
    return [cell] + [
        _run_record(f"{key}/{name}" if key else name, sub, variant_ctx)
        for name, sub in sorted(variants.items())  # type: ignore[union-attr]
    ]


def records_for_payload(
    key: Optional[str],
    payload: Payload,
    ctx: Optional[Mapping[str, object]] = None,
) -> List[RunRecord]:
    """Map one harness cell payload onto its registry records."""
    if "case" in payload and "violations" in payload:
        return _differential_records(key, payload, ctx)
    if "app" in payload and "cycles" in payload:
        return [_run_record(key, payload, ctx)]
    raise RegistryError(
        f"cell {key!r} payload matches no known shape (keys: "
        f"{sorted(payload)[:8]}); cannot derive registry records"
    )


def record_payload(
    registry: RunRegistry,
    key: Optional[str],
    payload: Payload,
    ctx: Optional[Mapping[str, object]] = None,
    durable: bool = True,
) -> List[str]:
    """Record one payload's records in an open registry; returns ids.

    ``durable=False`` is the bulk path: callers recording a whole sweep
    must compact afterwards, which persists the batch atomically.
    """
    return [
        registry.record(r, durable=durable)
        for r in records_for_payload(key, payload, ctx)
    ]


def record_results(
    registry_path: str,
    results: Mapping[Optional[str], Payload],
    ctx: Optional[Mapping[str, object]] = None,
) -> List[str]:
    """Fold a cell-result set into the registry at ``registry_path``.

    Every payload is recorded in key order — idempotent, because records
    are content-addressed — and the store is compacted to its canonical
    byte form, which persists the batch atomically.  Returns the run ids.
    """
    registry = RunRegistry.open(registry_path)
    ids: List[str] = []
    for key in sorted(results):
        ids += record_payload(registry, key, results[key], ctx, durable=False)
    registry.compact()
    return ids
