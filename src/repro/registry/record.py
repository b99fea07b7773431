"""Registry record schema: one ledger line per recorded run.

A :class:`RunRecord` is the unit the registry stores.  Its identity — the
``run_id`` — is the truncated SHA-256 of its canonical JSON content, so:

* the id carries no wall-clock, hostname, pid or ordering noise, which is
  what makes a serial sweep and a ``--jobs 4`` sweep write byte-identical
  registries;
* re-running the exact same experiment (same seed, same code) produces
  the *same* record and deduplicates to one ledger line, which is why the
  regression detector stays silent across two identical-seed runs;
* a hand-edited ledger line fails loudly on load (the stored id no longer
  matches the recomputed one).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List, Mapping, Optional

from repro.errors import RegistryError
from repro.registry.fingerprint import digest_of
from repro.sim import metrics

#: Version of the *record* envelope (independent of the RunResult payload
#: schema, which carries its own ``schema_version``).  Any change to the
#: record's fields bumps it: the run id hashes every field, so a line
#: written under another field set would otherwise fail its content check
#: and read as tampered.  Version 2 dropped the ``tuning`` field;
#: version 3 dropped ``parent_id``, ``trace_summary`` and ``meta``.
REGISTRY_SCHEMA_VERSION = 3

#: Record kinds.  Every record carries a result payload: a RunResult
#: (``run``, ``sweep-cell``, ``oracle-variant``) or a differential cell
#: (``oracle-cell``, ``fuzz-case``).
KINDS = ("run", "sweep-cell", "oracle-cell", "oracle-variant", "fuzz-case")

#: Length of a full run id (hex chars of truncated SHA-256).
RUN_ID_LENGTH = 24


@dataclass
class RunRecord:
    """One registry entry.

    ``result`` holds a full ``RunResult.to_jsonable()`` payload for plain
    runs and sweep cells, and the differential-cell payload for
    ``fuzz-case`` and ``oracle-cell`` records.  ``verdicts`` holds their
    invariant-monitor violations (jsonable ``Violation`` records).
    """

    app: str = ""
    variant: str = ""
    kind: str = "run"
    params_digest: str = ""
    seed: int = 0
    chaos_profile: str = "none"
    code_version: str = ""
    #: Harness cell key (checkpoint key) for cells; None for plain runs.
    cell_key: Optional[str] = None
    result: Optional[Dict[str, object]] = None
    verdicts: List[Dict[str, object]] = field(default_factory=list)
    run_id: str = ""

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise RegistryError(
                f"unknown record kind {self.kind!r}; expected one of {KINDS}"
            )
        if not self.run_id:
            self.run_id = self.compute_run_id()

    # -- identity ----------------------------------------------------------

    def content(self) -> Dict[str, object]:
        """Everything the run id hashes (all fields except the id)."""
        return {
            spec.name: getattr(self, spec.name)
            for spec in fields(self) if spec.name != "run_id"
        }

    def compute_run_id(self) -> str:
        return digest_of(self.content(), length=RUN_ID_LENGTH)

    # -- serialization -----------------------------------------------------

    def to_jsonable(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "schema_version": REGISTRY_SCHEMA_VERSION,
            "run_id": self.run_id,
        }
        data.update(self.content())
        return data

    @classmethod
    def from_jsonable(cls, data: Mapping[str, object]) -> "RunRecord":
        version = data.get("schema_version", None)
        if version != REGISTRY_SCHEMA_VERSION:
            raise RegistryError(
                f"registry record has schema_version {version!r}; this code "
                f"reads version {REGISTRY_SCHEMA_VERSION} — refusing to "
                "guess at an unknown record layout"
            )
        # An absent (or null) entry takes the field's default; the content
        # check below is what catches a damaged one.
        record = cls(**{
            spec.name: data[spec.name] for spec in fields(cls)
            if spec.name != "run_id" and data.get(spec.name) is not None
        })
        stored = data.get("run_id")
        if stored is not None and stored != record.run_id:
            raise RegistryError(
                f"registry record {stored!r} fails its content check "
                f"(recomputed {record.run_id}); the ledger line was "
                "corrupted or hand-edited"
            )
        return record

    # -- derived metrics ---------------------------------------------------

    def metric_values(self) -> Optional[Dict[str, float]]:
        """The regression-detector metrics, or None for differential cells.

        ``elapsed_cycles`` uses the workload-completion mark when a
        rebuild drain outlived the workload (so chaos runs compare
        demand-path slowdown, not drain tails), falling back to total
        cycles.  ``wasted_prefetch_fraction`` is wasted/disclosed from
        the hint-lifecycle ledger; ``hint_lead_median`` is in cycles.
        """
        payload = self.result
        if payload is None:
            return None
        # Fuzz cells store per-variant cycles as a mapping; only a plain
        # RunResult payload (scalar cycles) carries comparable metrics.
        if not isinstance(payload.get("cycles"), (int, float)):
            return None
        counters = payload.get("counters") or {}
        cycles = float(
            counters.get(  # type: ignore[union-attr]
                metrics.WORKLOAD_COMPLETED_CYCLE, payload["cycles"]
            )
        )
        lifecycle = payload.get("hint_lifecycle") or {}
        disclosed = float(lifecycle.get("disclosed", 0) or 0)  # type: ignore[union-attr]
        wasted = float(lifecycle.get("wasted", 0) or 0)  # type: ignore[union-attr]
        return {
            "elapsed_cycles": cycles,
            "hint_lead_median": float(payload.get("hint_lead_median", 0.0) or 0.0),
            "wasted_prefetch_fraction": wasted / disclosed if disclosed > 0 else 0.0,
        }
