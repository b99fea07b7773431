"""Run results and derived metrics for the paper's tables."""

from __future__ import annotations

import base64
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import RegistryError
from repro.sim import metrics

#: Serialization format version of :meth:`RunResult.to_jsonable`, the one
#: version :meth:`RunResult.from_jsonable` reads.  Version 2 added the
#: registry key fields (``params_digest``, ``seed``).  Adding or dropping a
#: field is compatible both ways and needs no bump: :func:`decode_fields`
#: ignores a stored key the class lacks, and a field the payload lacks
#: takes its default.  Bump on any incompatible layout change.
RESULT_SCHEMA_VERSION = 2


@dataclass
class RunResult:
    """Everything one benchmark run produced."""

    app: str
    variant: str
    cycles: int
    cpu_hz: int
    counters: Dict[str, int] = field(default_factory=dict)
    output: bytes = b""

    #: Median cycles between consecutive read calls / hint calls (the
    #: paper's Section 4.4 dilation analysis).
    median_read_interval: float = 0.0
    median_hint_interval: float = 0.0

    transform_report: Optional[object] = None

    #: Table 6 memory accounting.
    footprint_bytes: int = 0
    page_reclaims: int = 0
    page_faults: int = 0

    #: Chaos-mode provenance: the fault profile the run executed under
    #: (None = fault-free).
    fault_profile: Optional[str] = None

    #: Demand-read trace: (ino, offset, length) per original-thread read
    #: call, in program order.  The differential oracle compares this
    #: sequence across spec-on/off runs.
    read_trace: Tuple[Tuple[int, int, int], ...] = ()

    #: Isolation-audit outcome (speculating variant only).
    audit_records: int = 0
    audit_head_digest: str = ""

    #: Wall-time phase attribution (repro.trace.phases.StallBreakdown as a
    #: jsonable dict): compute / checks / demand_stall / speculation / other.
    stall_breakdown: Dict[str, int] = field(default_factory=dict)
    #: Hint-lifecycle ledger: disclosed / consumed / cancelled / wasted / open.
    hint_lifecycle: Dict[str, int] = field(default_factory=dict)
    #: Median disclosure-to-consumption lead time (cycles).
    hint_lead_median: float = 0.0
    #: % of consumed hints whose prefetch had landed before the demand read.
    pct_prefetches_before_demand: float = 0.0

    #: Run-registry key fields (see :mod:`repro.registry`): a digest of
    #: the resolved configuration (excluding the system seed, the chaos
    #: plan, and the variant — those are separate registry keys) and the
    #: system seed the run executed under.
    params_digest: str = ""
    seed: int = 0

    # -- elapsed time ---------------------------------------------------------

    @property
    def elapsed_s(self) -> float:
        """Simulated elapsed time in seconds."""
        return self.cycles / self.cpu_hz

    def improvement_over(self, baseline: "RunResult") -> float:
        """Percent reduction in execution time relative to ``baseline``."""
        if baseline.cycles <= 0:
            return 0.0
        return 100.0 * (baseline.cycles - self.cycles) / baseline.cycles

    # -- counter accessors -------------------------------------------------------

    def c(self, name: str, default: int = 0) -> int:
        return self.counters.get(name, default)

    # Table 4 -----------------------------------------------------------------

    @property
    def read_calls(self) -> int:
        return self.c(metrics.APP_READ_CALLS)

    @property
    def read_blocks(self) -> int:
        return self.c(metrics.APP_READ_BLOCKS)

    @property
    def read_bytes(self) -> int:
        return self.c(metrics.APP_READ_BYTES)

    @property
    def write_calls(self) -> int:
        return self.c(metrics.APP_WRITE_CALLS)

    @property
    def write_blocks(self) -> int:
        return self.c(metrics.APP_WRITE_BLOCKS)

    @property
    def write_bytes(self) -> int:
        return self.c(metrics.APP_WRITE_BYTES)

    @property
    def hinted_read_calls(self) -> int:
        return self.c(metrics.TIP_HINTED_READ_CALLS)

    @property
    def hinted_read_bytes(self) -> int:
        return self.c(metrics.TIP_HINTED_READ_BYTES)

    @property
    def hinted_blocks_consumed(self) -> int:
        return self.c(metrics.TIP_HINTS_CONSUMED)

    @property
    def pct_calls_hinted(self) -> float:
        return 100.0 * self.hinted_read_calls / self.read_calls if self.read_calls else 0.0

    @property
    def pct_blocks_hinted(self) -> float:
        if not self.read_blocks:
            return 0.0
        return min(100.0, 100.0 * self.hinted_blocks_consumed / self.read_blocks)

    @property
    def pct_bytes_hinted(self) -> float:
        return 100.0 * self.hinted_read_bytes / self.read_bytes if self.read_bytes else 0.0

    @property
    def inaccurate_hints(self) -> int:
        """Hints issued that never matched a read (cancelled + stale +
        unconsumed at the end of the run)."""
        return (
            self.c(metrics.TIP_HINTS_CANCELLED)
            + self.c(metrics.TIP_HINTS_STALE_DROPPED)
            + self.c(metrics.TIP_HINTS_UNCONSUMED_AT_END)
        )

    # Table 5 -------------------------------------------------------------------

    @property
    def cache_block_reads(self) -> int:
        return self.c(metrics.CACHE_BLOCK_READS)

    @property
    def prefetched_blocks(self) -> int:
        return self.c(metrics.CACHE_PREFETCHED_BLOCKS)

    @property
    def prefetched_fully(self) -> int:
        return self.c(metrics.CACHE_PREFETCHED_FULLY)

    @property
    def prefetched_partially(self) -> int:
        return self.c(metrics.CACHE_PREFETCHED_PARTIAL)

    @property
    def prefetched_unused(self) -> int:
        return self.c(metrics.CACHE_PREFETCHED_UNUSED)

    @property
    def cache_block_reuses(self) -> int:
        return self.c(metrics.CACHE_BLOCK_REUSES)

    # SpecHint runtime (speculating variant only) -------------------------------

    @property
    def spec_restarts(self) -> int:
        return self.c(metrics.SPEC_RESTARTS)

    @property
    def spec_signals(self) -> int:
        return self.c(metrics.SPEC_SIGNALS)

    @property
    def spec_cancel_calls(self) -> int:
        return self.c(metrics.SPEC_CANCEL_CALLS)

    @property
    def spec_hints_issued(self) -> int:
        return self.c(metrics.SPEC_HINTS_ISSUED)

    # Speculation gate ----------------------------------------------------------

    def _by_reason(self, prefix: str) -> Dict[str, int]:
        """Nonzero ``<prefix><reason>`` counters by reason, in first-bump order."""
        return {name[len(prefix):]: value for name, value in self.counters.items()
                if name.startswith(prefix) and value}

    @property
    def spec_parks(self) -> Dict[str, int]:
        return self._by_reason(metrics.SPEC_PARK_PREFIX)

    @property
    def watchdog_tripped(self) -> Optional[str]:
        """Why the speculation watchdog tripped (None: it did not)."""
        return next(iter(self._by_reason(metrics.SPEC_WATCHDOG_TRIP_PREFIX)), None)

    @property
    def isolation_violations(self) -> int:
        return self.c(metrics.SPEC_ISOLATION_VIOLATIONS)

    @property
    def quarantines(self) -> int:
        return self.c(metrics.SPEC_QUARANTINES)

    # Fault injection / degraded mode ------------------------------------------

    #: Counter prefixes that constitute the fault-event record of a run.
    FAULT_PREFIXES = ("faults.", "array.retries", "array.timeouts",
                      "array.faulted_attempts", "array.demand_failures",
                      "array.prefetches_dropped", "cache.prefetches_dropped",
                      "cache.fetch_failures", "tip.prefetches_dropped",
                      "spec.watchdog", "spec.isolation", "spec.quarantine",
                      "array.disk_deaths", "array.degraded_reads",
                      "array.reconstructed_blocks", "array.hedges",
                      "rebuild.", "tip.prefetches_shed_degraded",
                      "cache.shed_degraded.", "spec.degraded")

    def fault_events(self) -> Dict[str, int]:
        """Every fault / retry / degradation counter the run recorded.

        Two runs with the same workload, system seed, and fault seed must
        produce identical dicts — ``tests/test_chaos_integration.py`` pins
        them.
        """
        return {
            name: value
            for name, value in sorted(self.counters.items())
            if name.startswith(self.FAULT_PREFIXES) and value
        }

    @property
    def disk_faults(self) -> int:
        return (
            self.c("faults.disk_transient_errors")
            + self.c("faults.disk_offline_rejects")
        )

    @property
    def io_retries(self) -> int:
        return self.c(metrics.ARRAY_RETRIES)

    @property
    def io_timeouts(self) -> int:
        return self.c(metrics.ARRAY_TIMEOUTS)

    @property
    def prefetches_dropped(self) -> int:
        return self.c(metrics.CACHE_PREFETCHES_DROPPED)

    # Degraded mode / redundancy ------------------------------------------------

    @property
    def disk_deaths(self) -> int:
        return self.c(metrics.ARRAY_DISK_DEATHS)

    @property
    def degraded_reads(self) -> int:
        return self.c(metrics.ARRAY_DEGRADED_READS)

    @property
    def reconstructed_blocks(self) -> int:
        return self.c(metrics.ARRAY_RECONSTRUCTED_BLOCKS)

    @property
    def hedges_issued(self) -> int:
        return self.c(metrics.ARRAY_HEDGES_ISSUED)

    @property
    def hedges_won(self) -> int:
        return self.c(metrics.ARRAY_HEDGES_WON)

    @property
    def rebuild_completed(self) -> bool:
        return self.c(metrics.REBUILD_COMPLETED) > 0

    @property
    def rebuild_completed_cycle(self) -> int:
        """Sim-clock cycle at which the (last) rebuild finished resilvering
        (0 when no rebuild ran to completion)."""
        return self.c(metrics.REBUILD_COMPLETED_CYCLE)

    @property
    def rebuild_blocks(self) -> int:
        return self.c(metrics.REBUILD_BLOCKS)

    @property
    def workload_cycles(self) -> int:
        """Cycles until the workload itself finished.  Equal to ``cycles``
        unless a rebuild outlived the workload, in which case ``cycles``
        additionally covers the rebuild drain tail."""
        return self.c(metrics.WORKLOAD_COMPLETED_CYCLE) or self.cycles

    @property
    def workload_elapsed_s(self) -> float:
        """Simulated seconds until the workload finished (see
        :attr:`workload_cycles`)."""
        return self.workload_cycles / self.cpu_hz

    @property
    def data_loss_events(self) -> int:
        return self.c(metrics.FAULTS_DATA_LOSS)

    @property
    def prefetches_shed_degraded(self) -> int:
        """Speculative load shed while degraded (TIP + readahead origins)."""
        shed = self.c(metrics.TIP_PREFETCHES_SHED_DEGRADED)
        for name, value in self.counters.items():
            if name.startswith(metrics.CACHE_SHED_DEGRADED_PREFIX):
                shed += value
        return shed

    def rebuild_status(self) -> str:
        """``done @T s (N blocks)`` once a rebuild finished, ``INCOMPLETE``
        after a disk death whose rebuild did not, ``-`` with no death."""
        if self.rebuild_completed:
            return (f"done @{self.rebuild_completed_cycle / self.cpu_hz:.3f}s "
                    f"({self.rebuild_blocks:,} blocks)")
        return "INCOMPLETE" if self.disk_deaths else "-"

    def degraded_report(self) -> List[str]:
        """The degraded-mode block ``repro run --chaos`` and ``repro trace
        --summary`` print; empty when no disk died."""
        if not self.disk_deaths:
            return []
        return [
            f"degraded mode:    {self.disk_deaths} disk death(s), "
            f"{self.degraded_reads:,} degraded reads, "
            f"{self.reconstructed_blocks:,} blocks reconstructed",
            f"hedging:          {self.hedges_issued:,} issued, {self.hedges_won:,} won",
            f"rebuild:          {self.rebuild_status()}",
            f"load shedding:    {self.prefetches_shed_degraded:,} prefetches shed "
            f"while degraded",
        ]

    def per_disk_io_counters(self) -> Dict[int, Dict[str, int]]:
        """Per-disk I/O health: retries / timeouts / hedges (issued and
        won) by disk id.

        Parsed back out of the ``disk<N>.<suffix>`` counters; disks with
        no recorded events are absent.
        """
        suffixes = (metrics.DISK_RETRIES_SUFFIX, metrics.DISK_TIMEOUTS_SUFFIX,
                    metrics.DISK_HEDGES_SUFFIX, metrics.DISK_HEDGES_WON_SUFFIX)
        table: Dict[int, Dict[str, int]] = {}
        for name, value in self.counters.items():
            if not name.startswith(metrics.DISK_PREFIX) or not value:
                continue
            head, _, suffix = name.partition(".")
            if suffix not in suffixes:
                continue
            digits = head[len(metrics.DISK_PREFIX):]
            if not digits.isdigit():
                continue
            table.setdefault(int(digits), {})[suffix] = value
        return table

    # Section 4.4 dilation ------------------------------------------------------

    @property
    def dilation_factor(self) -> float:
        """Median hint interval / median read interval (> 1 mainly due to
        COW checks during speculative execution)."""
        if self.median_read_interval <= 0 or self.median_hint_interval <= 0:
            return 0.0
        return self.median_hint_interval / self.median_read_interval

    def summary(self) -> str:
        """One-line human summary."""
        return (
            f"{self.app}/{self.variant}: {self.elapsed_s:.2f}s simulated, "
            f"{self.read_calls} reads ({self.pct_calls_hinted:.1f}% hinted), "
            f"{self.prefetched_blocks} prefetched blocks"
        )

    # -- checkpoint serialization -------------------------------------------

    def to_jsonable(self) -> Dict[str, object]:
        """JSON-safe dict for harness checkpoints: every field, in order.

        Two fields are not stored as they are: ``output`` travels as
        base64 under ``output_b64`` and the transform report is
        deliberately excluded (it is derivable by re-running the
        transform and is not needed to resume a sweep).
        """
        data: Dict[str, object] = {"schema_version": RESULT_SCHEMA_VERSION}
        for name, value in encode_fields(self, "transform_report").items():
            if name == "output":
                name = "output_b64"
                value = base64.b64encode(self.output).decode("ascii")
            data[name] = value
        return data

    @classmethod
    def from_jsonable(cls, data: Dict[str, object]) -> "RunResult":
        """Rebuild a result from :meth:`to_jsonable` output.

        A payload with a missing or other ``schema_version`` raises a typed
        :class:`~repro.errors.RegistryError`: a payload written by another
        format must never deserialize silently.
        """
        version = data.get("schema_version")
        if version != RESULT_SCHEMA_VERSION:
            raise RegistryError(
                f"RunResult payload has schema_version {version!r}; this "
                f"code reads version {RESULT_SCHEMA_VERSION} — the "
                f"payload was written by an incompatible code version"
            )
        values = decode_fields(cls, data, FIELD_DECODERS)
        values["output"] = base64.b64decode(str(data["output_b64"]))
        return cls(**values)


def encode_fields(record: Any, *skip: str) -> Dict[str, object]:
    """The dataclass fields of ``record`` (but ``skip``), in declaration
    order, JSON-safe: containers are copied (tuples as lists) and nested
    records go through their own ``to_jsonable``."""
    return {
        spec.name: _encode(getattr(record, spec.name))
        for spec in fields(record) if spec.name not in skip
    }


def _encode(value: Any) -> object:
    if isinstance(value, dict):
        return {key: _encode(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(item) for item in value]
    return value.to_jsonable() if hasattr(value, "to_jsonable") else value


#: Rebuilds one field's value from what :func:`encode_fields` stored.
Decoder = Callable[[Any], object]


def decode_fields(
    cls: Any, data: Dict[str, object], decoders: Dict[str, Decoder]
) -> Dict[str, Any]:
    """Constructor arguments for dataclass ``cls`` out of a stored payload:
    each field the payload carries, decoded by its declared type; a field
    it lacks is left to its default."""
    return {
        spec.name: decoders[spec.type](data[spec.name])
        for spec in fields(cls) if spec.name in data
    }


def _optional(decode: Decoder) -> Decoder:
    return lambda value: None if value is None else decode(value)


#: Decoder of a stored value, by the declared type of its field.
FIELD_DECODERS: Dict[str, Decoder] = {
    "str": str,
    "int": int,
    "float": float,
    "Dict[str, int]": lambda value: {
        str(k): int(v) for k, v in dict(value).items()
    },
    "Dict[str, object]": dict,
    "Optional[str]": _optional(str),
    "Tuple[Tuple[int, int, int], ...]": lambda value: tuple(
        tuple(int(x) for x in entry) for entry in value
    ),
}


def median_interval(times: List[float]) -> float:
    """Median gap between consecutive observations of an event-time list."""
    if len(times) < 2:
        return 0.0
    gaps = sorted(b - a for a, b in zip(times, times[1:]))
    return gaps[len(gaps) // 2]
