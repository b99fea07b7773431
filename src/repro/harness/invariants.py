"""Composable invariant monitors evaluated inside every differential cell.

Neither the chaos fuzzer (``repro fuzz``) nor the oracle (``repro run
--oracle``) asserts "the run finished"; they assert that the paper's
safety contract held *while* the run was being tortured.  Each monitor
below checks one clause of that contract against the live simulated
system (and its result record) after a differential spec-on / spec-off
pair:

* ``audit-chain`` — every speculating process's hash-chained audit table
  still verifies (a tampered record is detected, per DESIGN.md §8);
* ``hint-lifecycle`` — every disclosed hint ended in exactly one terminal
  state, aggregates reconcile with the detailed records, and no terminal
  predates its disclosure;
* ``cancel-drain`` — ``TIPIO_CANCEL_ALL`` drained the hint queue at every
  restart boundary and nothing is left outstanding at end of run;
* ``spec-identity`` — spec-on output and demand-read trace are
  byte-identical to spec-off, with symmetric typed-error
  handling for plans designed to lose data;
* ``typed-errors`` — only :class:`~repro.errors.ReproError` subclasses may
  escape a run, and :class:`~repro.errors.DataLossError` only from a plan
  that composes a double fault;
* ``clock-monotonic`` — the simulation clock never runs backwards and the
  result's cycle count matches the clock the system actually ended on;
* ``prefetch-progress`` — no hint's prefetch is dropped over and over
  while nothing changes what the array can serve (a livelock passes
  every safety check above).

A failed check is never an exception: it is a :class:`Violation` carrying
a structured witness dict, so a campaign can collect, deduplicate, shrink
and persist every finding.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import DataLossError, IsolationViolation, ReproError
from repro.faults.plan import FaultPlan
from repro.harness.results import (
    FIELD_DECODERS,
    RunResult,
    decode_fields,
    encode_fields,
)
from repro.sim import metrics
from repro.trace.lifecycle import CANCELLED


@dataclass
class Violation:
    """One invariant breach, with enough witness to reproduce and debug."""

    monitor: str = "?"
    detail: str = ""
    witness: Dict[str, object] = field(default_factory=dict)

    def to_jsonable(self) -> Dict[str, object]:
        return encode_fields(self)

    @classmethod
    def from_jsonable(cls, data: Dict[str, object]) -> "Violation":
        return cls(**decode_fields(cls, data, FIELD_DECODERS))

    def __str__(self) -> str:
        return f"[{self.monitor}] {self.detail}"


@dataclass
class VariantObservation:
    """Everything one variant's run left behind for the monitors.

    ``system`` is the live :class:`~repro.harness.runner.System` (captured
    through the runner's system-observer hook, so it is available even
    when the run escaped with an exception); ``error`` is whatever escaped
    ``kernel.run()``, or None for a clean completion; ``clock_samples``
    are (label, cycle) pairs taken at observation points in program order.
    """

    variant: str
    result: Optional[RunResult] = None
    system: Optional[object] = None
    error: Optional[BaseException] = None
    clock_samples: List[Tuple[str, int]] = field(default_factory=list)

    @property
    def processes(self) -> List[object]:
        kernel = getattr(self.system, "kernel", None)
        return list(getattr(kernel, "processes", ()) or ())


@dataclass
class CellObservation:
    """One differential cell: both variants of one app under one plan."""

    app: str
    plan: FaultPlan
    spec_overrides: Dict[str, object] = field(default_factory=dict)
    variants: Dict[str, VariantObservation] = field(default_factory=dict)

    @property
    def expects_data_loss(self) -> bool:
        return self.plan.expects_data_loss


class InvariantMonitor:
    """Base class: one named clause of the safety contract."""

    name = "invariant"

    def check(self, obs: CellObservation) -> List[Violation]:
        raise NotImplementedError

    def _violation(self, detail: str, **witness: object) -> Violation:
        return Violation(self.name, detail, dict(witness))


class AuditChainMonitor(InvariantMonitor):
    """The tamper-evident audit table must still verify end to end."""

    name = "audit-chain"

    def check(self, obs: CellObservation) -> List[Violation]:
        violations: List[Violation] = []
        for vobs in obs.variants.values():
            for process in vobs.processes:
                spec = getattr(process, "spec", None)
                if spec is None:
                    continue
                table = spec.auditor.table
                try:
                    table.verify()
                except IsolationViolation as exc:
                    violations.append(self._violation(
                        f"{vobs.variant}: audit chain broken: {exc}",
                        variant=vobs.variant,
                        pid=getattr(process, "pid", -1),
                        records_total=table.records_total,
                        head_digest=table.head_digest,
                    ))
        return violations


class HintLifecycleMonitor(InvariantMonitor):
    """Exactly one terminal state per disclosed hint, books balanced."""

    name = "hint-lifecycle"

    def check(self, obs: CellObservation) -> List[Violation]:
        violations: List[Violation] = []
        for vobs in obs.variants.values():
            lifecycle = getattr(
                getattr(vobs.system, "manager", None), "lifecycle", None
            )
            if lifecycle is None:
                continue
            counts = lifecycle.summary_counts()
            if vobs.error is None and lifecycle.open_total != 0:
                violations.append(self._violation(
                    f"{vobs.variant}: {lifecycle.open_total} hint(s) still "
                    f"open after finalize (no terminal state)",
                    variant=vobs.variant, counts=counts,
                ))
            if lifecycle.open_total < 0:
                violations.append(self._violation(
                    f"{vobs.variant}: negative open-hint count "
                    f"{lifecycle.open_total} — some hint reached more than "
                    f"one terminal state",
                    variant=vobs.variant, counts=counts,
                ))
            if lifecycle.disclosed_total > lifecycle.capacity:
                continue  # detailed records are capped; aggregates only
            records = lifecycle.records()
            detailed = Counter(
                record.terminal for record in records
                if record.terminal is not None
            )
            for terminal, total in lifecycle.terminal_counts.items():
                if detailed.get(terminal, 0) != total:
                    violations.append(self._violation(
                        f"{vobs.variant}: {terminal} aggregate {total} != "
                        f"{detailed.get(terminal, 0)} detailed record(s) — "
                        f"ledger books do not balance",
                        variant=vobs.variant, terminal=terminal,
                        aggregate=total, detailed=detailed.get(terminal, 0),
                    ))
            for record in records:
                if (record.terminal is not None
                        and record.terminal_ts < record.disclosed_ts):
                    violations.append(self._violation(
                        f"{vobs.variant}: hint seq {record.seq} reached "
                        f"{record.terminal} at cycle {record.terminal_ts}, "
                        f"before its disclosure at {record.disclosed_ts}",
                        variant=vobs.variant, seq=record.seq,
                        terminal=record.terminal,
                        terminal_ts=record.terminal_ts,
                        disclosed_ts=record.disclosed_ts,
                    ))
        return violations


class CancelDrainMonitor(InvariantMonitor):
    """``TIPIO_CANCEL_ALL`` drains the queue at every restart boundary."""

    name = "cancel-drain"

    def check(self, obs: CellObservation) -> List[Violation]:
        violations: List[Violation] = []
        for vobs in obs.variants.values():
            manager = getattr(vobs.system, "manager", None)
            if manager is None:
                continue
            lifecycle = getattr(manager, "lifecycle", None)
            for process in vobs.processes:
                pid = getattr(process, "pid", -1)
                if vobs.error is None:
                    outstanding = manager.outstanding_hints(pid)
                    if outstanding:
                        violations.append(self._violation(
                            f"{vobs.variant}: pid {pid} ended the run with "
                            f"{outstanding} hint(s) still queued in TIP",
                            variant=vobs.variant, pid=pid,
                            outstanding=outstanding,
                        ))
                    if lifecycle is not None and lifecycle.open_for(pid):
                        violations.append(self._violation(
                            f"{vobs.variant}: pid {pid} ended the run with "
                            f"{lifecycle.open_for(pid)} open hint(s) in the "
                            f"lifecycle ledger",
                            variant=vobs.variant, pid=pid,
                            open=lifecycle.open_for(pid),
                        ))
                spec = getattr(process, "spec", None)
                if spec is None:
                    continue
                table = spec.auditor.table
                restart_records = [
                    record for record in table.records()
                    if record.kind == "restart"
                ]
                # Every restart must have logged its drained cancel.  The
                # table folds old records past capacity, so the count is
                # exact only while nothing has folded out.  A run has one
                # speculating process, so the system's count is its own.
                restarts = vobs.system.stats.get(metrics.SPEC_RESTARTS)
                if (table.records_total <= table.capacity
                        and len(restart_records) != restarts):
                    violations.append(self._violation(
                        f"{vobs.variant}: pid {pid} restarted "
                        f"{restarts} time(s) but the audit table holds "
                        f"{len(restart_records)} restart record(s) — a "
                        f"restart skipped its cancel-drain audit",
                        variant=vobs.variant, pid=pid,
                        restarts=restarts,
                        restart_records=len(restart_records),
                    ))
            if lifecycle is not None and vobs.error is None:
                cancelled = lifecycle.terminal_counts.get(CANCELLED, 0)
                if manager.cancelled_total != cancelled:
                    violations.append(self._violation(
                        f"{vobs.variant}: TIP cancelled "
                        f"{manager.cancelled_total} hint(s) but the ledger "
                        f"recorded {cancelled} cancellation(s)",
                        variant=vobs.variant,
                        manager_cancelled=manager.cancelled_total,
                        ledger_cancelled=cancelled,
                    ))
        return violations


def _first_output_diff(a: bytes, b: bytes) -> str:
    """Human description of the first differing output byte."""
    limit = min(len(a), len(b))
    for i in range(limit):
        if a[i] != b[i]:
            return (f"output byte {i}: original {a[i]:#04x} vs "
                    f"speculating {b[i]:#04x}")
    return f"output length: original {len(a)} vs speculating {len(b)} bytes"


def _first_trace_diff(
    a: Sequence[Tuple[int, int, int]], b: Sequence[Tuple[int, int, int]]
) -> str:
    """Human description of the first differing demand read."""
    limit = min(len(a), len(b))
    for i in range(limit):
        if a[i] != b[i]:
            return (f"demand read #{i}: original {a[i]} vs "
                    f"speculating {b[i]}")
    return (f"demand-read count: original {len(a)} vs "
            f"speculating {len(b)} calls")


class SpecIdentityMonitor(InvariantMonitor):
    """Spec-on must be byte-identical to spec-off (the oracle's clause)."""

    name = "spec-identity"

    def check(self, obs: CellObservation) -> List[Violation]:
        original = obs.variants.get("original")
        speculating = obs.variants.get("speculating")
        if original is None or speculating is None:
            return []
        o_err, s_err = original.error, speculating.error
        if obs.expects_data_loss:
            if not (isinstance(o_err, DataLossError)
                    and isinstance(s_err, DataLossError)):
                return [self._violation(
                    "double-fault plan expected symmetric DataLossError; "
                    f"original raised {type(o_err).__name__ if o_err else 'nothing'}, "
                    f"speculating raised {type(s_err).__name__ if s_err else 'nothing'}",
                    original_error=repr(o_err), speculating_error=repr(s_err),
                )]
            return []
        if o_err is None and s_err is None:
            assert original.result is not None
            assert speculating.result is not None
            if speculating.result.output != original.result.output:
                return [self._violation(
                    "output divergence: " + _first_output_diff(
                        original.result.output, speculating.result.output
                    ),
                    original_bytes=len(original.result.output),
                    speculating_bytes=len(speculating.result.output),
                )]
            if speculating.result.read_trace != original.result.read_trace:
                return [self._violation(
                    "demand-read divergence: " + _first_trace_diff(
                        original.result.read_trace,
                        speculating.result.read_trace,
                    ),
                    original_reads=len(original.result.read_trace),
                    speculating_reads=len(speculating.result.read_trace),
                )]
            return []
        if type(o_err) is not type(s_err):
            return [self._violation(
                f"asymmetric escape: original "
                f"{type(o_err).__name__ if o_err else 'completed'}, "
                f"speculating "
                f"{type(s_err).__name__ if s_err else 'completed'}",
                original_error=repr(o_err), speculating_error=repr(s_err),
            )]
        # Same typed error on both sides of a plan not designed to lose
        # data: symmetric, so not an *identity* problem (typed-errors
        # judges whether the escape itself was legitimate).
        return []


class TypedErrorMonitor(InvariantMonitor):
    """Only typed ``ReproError``\\ s may escape, and data loss only when
    the plan composed a double fault."""

    name = "typed-errors"

    def check(self, obs: CellObservation) -> List[Violation]:
        violations: List[Violation] = []
        for vobs in obs.variants.values():
            error = vobs.error
            if error is None:
                continue
            if not isinstance(error, ReproError):
                violations.append(self._violation(
                    f"{vobs.variant}: untyped {type(error).__name__} escaped "
                    f"the run: {error}",
                    variant=vobs.variant,
                    error_type=type(error).__name__, error=str(error),
                ))
            elif (isinstance(error, DataLossError)
                    and not obs.expects_data_loss):
                violations.append(self._violation(
                    f"{vobs.variant}: DataLossError without a double-fault "
                    f"plan — redundancy failed to mask a survivable fault: "
                    f"{error}",
                    variant=vobs.variant, error=str(error),
                    dead_disk=obs.plan.dead_disk,
                    second_dead_disk=obs.plan.second_dead_disk,
                ))
        return violations


class ClockMonotonicityMonitor(InvariantMonitor):
    """The simulation clock only moves forward."""

    name = "clock-monotonic"

    def check(self, obs: CellObservation) -> List[Violation]:
        violations: List[Violation] = []
        for vobs in obs.variants.values():
            samples = vobs.clock_samples
            for (label_a, a), (label_b, b) in zip(samples, samples[1:]):
                if b < a:
                    violations.append(self._violation(
                        f"{vobs.variant}: clock ran backwards: "
                        f"{label_a}={a} then {label_b}={b}",
                        variant=vobs.variant, samples=list(samples),
                    ))
            if vobs.result is not None:
                if vobs.result.cycles < 0:
                    violations.append(self._violation(
                        f"{vobs.variant}: negative cycle count "
                        f"{vobs.result.cycles}",
                        variant=vobs.variant, cycles=vobs.result.cycles,
                    ))
                if samples and vobs.result.cycles != samples[-1][1]:
                    violations.append(self._violation(
                        f"{vobs.variant}: result reports "
                        f"{vobs.result.cycles} cycles but the clock ended "
                        f"at {samples[-1][1]}",
                        variant=vobs.variant, cycles=vobs.result.cycles,
                        clock=samples[-1][1],
                    ))
        return violations


class PrefetchProgressMonitor(InvariantMonitor):
    """No hint's prefetch is dropped more than ``MAX_DROPS`` times with no
    disk death or rebuild end in between.

    Only those two events change what the array can serve, and TIP never
    submits a block it cannot serve; between them a drop needs a prefetch
    whose every attempt faulted.  The ledger keeps a count per hint, not
    when each drop fell, so the check is the pigeonhole bound: more than
    ``MAX_DROPS`` x (changes + 1) drops put more than ``MAX_DROPS`` between
    two changes."""

    name = "prefetch-progress"

    #: Each faulted-attempt drop waits out at least one retry backoff
    #: (50 k cycles), so the fuzzer's longest outage (a 12 ms offline
    #: window, 2.8 M cycles) fits at most 56; a livelock drops thousands.
    MAX_DROPS = 64

    def check(self, obs: CellObservation) -> List[Violation]:
        violations: List[Violation] = []
        for vobs in obs.variants.values():
            system = vobs.system
            lifecycle = getattr(getattr(system, "manager", None), "lifecycle", None)
            if lifecycle is None:
                continue
            stats = system.stats
            changes = (stats.get(metrics.ARRAY_DISK_DEATHS)
                       + stats.get(metrics.REBUILD_COMPLETED))
            bound = self.MAX_DROPS * (changes + 1)
            worst = max(lifecycle.records(), key=lambda r: r.drops, default=None)
            if worst is not None and worst.drops > bound:
                violations.append(self._violation(
                    f"{vobs.variant}: hint seq {worst.seq}'s prefetch was "
                    f"dropped {worst.drops} times across {changes} disk "
                    f"death(s) and rebuild end(s) (bound {bound})",
                    variant=vobs.variant, seq=worst.seq, drops=worst.drops,
                    changes=changes, bound=bound,
                ))
        return violations


#: The full contract, in evaluation order.
DEFAULT_MONITORS: Tuple[InvariantMonitor, ...] = (
    AuditChainMonitor(),
    HintLifecycleMonitor(),
    CancelDrainMonitor(),
    SpecIdentityMonitor(),
    TypedErrorMonitor(),
    ClockMonotonicityMonitor(),
    PrefetchProgressMonitor(),
)


def check_all(
    obs: CellObservation,
    monitors: Tuple[InvariantMonitor, ...] = DEFAULT_MONITORS,
) -> List[Violation]:
    """Evaluate every monitor; concatenated violations, monitor order."""
    violations: List[Violation] = []
    for monitor in monitors:
        violations.extend(monitor.check(obs))
    return violations
