"""The differential cell, and the chaos-fuzzing engine built on it.

A *cell* is the differential pair — spec-off and spec-on runs of one app
on one seed under one :class:`~repro.faults.plan.FaultPlan` — judged by
the full invariant-monitor suite (:mod:`repro.harness.invariants`).  The
fuzzer runs it under *generated* plans; the oracle
(:mod:`repro.harness.oracle`) runs the same cell over the built-in
profiles.  Every cell:

1. reconstructs its :class:`~repro.faults.generate.FuzzCase` from JSON
   (cells cross the worker pool's pipes as plain payloads);
2. runs both variants, capturing the live system through the runner's
   observer hook so monitors can inspect audit tables, the hint-lifecycle
   ledger and the TIP queue even when the run escaped with an exception;
3. evaluates every monitor and returns the violations plus a canonical
   *cell digest* over outputs, demand-read traces, cycle counts and
   escapes — two campaigns with the same seed must produce identical
   digests whether they ran serially or on ``--jobs N`` workers, and the
   benchmark guard (``benchmarks/bench_fuzz_throughput.py``) pins that;
4. with a ``trace_dir``, runs both variants under a tracer and, when a
   monitor tripped, dumps both event streams there — the one place
   divergence trace dumps are written.

A campaign (:func:`run_fuzz`) fans cells over the cell engine
(:func:`~repro.harness.parallel.run_cells`), so checkpoint/resume,
``--jobs N`` and graceful serial degradation all apply.  A failing cell
is data, never an exception: :func:`run_fuzz_case` returns its
violations, so a campaign reports every failing cell.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import FuzzError
from repro.faults.generate import (
    CoverageLedger,
    FaultPlanGenerator,
    FuzzCase,
    validate_spec_overrides,
)
from repro.harness.config import ALL_APPS, ExperimentConfig, Variant
from repro.harness.invariants import (
    CellObservation,
    VariantObservation,
    Violation,
    check_all,
)
from repro.harness.parallel import run_cells
from repro.harness.results import (
    FIELD_DECODERS,
    Decoder,
    RunResult,
    decode_fields,
    encode_fields,
)
from repro.harness.runner import (
    add_system_observer,
    remove_system_observer,
    run_experiment_with_system,
)
from repro.params import SystemConfig
from repro.registry.fingerprint import params_digest
from repro.sim.clock import SimClock
from repro.trace.export import export_to_path
from repro.trace.tracer import NULL_TRACER, Tracer

#: Default workload scale for fuzz cells (small enough that a 50-cell
#: budget stays interactive, large enough that speculation engages).
DEFAULT_FUZZ_SCALE = 0.25


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def case_config(
    case: FuzzCase,
    variant: Variant,
    workload_scale: float,
    system: Optional[SystemConfig] = None,
) -> ExperimentConfig:
    """The experiment configuration one cell variant runs under.

    ``system`` is the base machine (default: the stock one); the case's
    ``spec_overrides`` are applied on top of it.
    """
    if case.app not in ALL_APPS:
        raise FuzzError(
            f"fuzz case app {case.app!r} unknown; expected one of {ALL_APPS}"
        )
    validate_spec_overrides(case.spec_overrides)
    system = system or SystemConfig()
    if case.spec_overrides:
        system = system.replace(spechint=dataclasses.replace(
            system.spechint, **case.spec_overrides
        ))
    return ExperimentConfig(
        app=case.app,
        variant=variant,
        system=system,
        workload_scale=workload_scale,
        fault_plan=case.plan,
    )


def observe_variant(
    cfg: ExperimentConfig, tracer: Tracer = NULL_TRACER
) -> VariantObservation:
    """Run one variant, capturing the live system and any escape.

    The system is grabbed through the runner's observer hook *before* the
    kernel starts, so monitors see post-mortem state (audit tables, the
    lifecycle ledger) even when the run raised.  Typed and untyped
    escapes are both captured as data — the typed-errors monitor judges
    them; only exits (KeyboardInterrupt, SystemExit) propagate.
    """
    vobs = VariantObservation(variant=cfg.variant.value)

    def _observer(system: object) -> None:
        vobs.system = system
        vobs.clock_samples.append(("built", system.clock.now))  # type: ignore[attr-defined]

    add_system_observer(_observer)
    try:
        result, system = run_experiment_with_system(cfg, tracer=tracer)
        vobs.result = result
        vobs.system = system
    except Exception as exc:
        vobs.error = exc
    finally:
        remove_system_observer(_observer)
    if vobs.system is not None:
        vobs.clock_samples.append(
            ("end", vobs.system.clock.now)  # type: ignore[attr-defined]
        )
    return vobs


@dataclass
class FuzzCellResult:
    """Outcome of one differential cell, JSON-round-trippable for the pool."""

    case: FuzzCase
    violations: List[Violation] = field(default_factory=list)
    digest: str = ""
    cycles: Dict[str, int] = field(default_factory=dict)
    escapes: Dict[str, Optional[str]] = field(default_factory=dict)
    #: Registry identity keys (see :mod:`repro.registry.fingerprint`),
    #: stamped by :func:`run_fuzz_case` from the cell's resolved config.
    params_digest: str = ""
    seed: int = 0
    #: The result record of each variant that completed.  Serialized only
    #: on request: the oracle's report rows and ``oracle-variant`` registry
    #: records consume them; a fuzz campaign keeps its payload small.
    results: Dict[str, RunResult] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.violations

    @property
    def key(self) -> str:
        return self.case.key

    def to_jsonable(self, with_results: bool = False) -> Dict[str, object]:
        if with_results:
            return encode_fields(self)
        return encode_fields(self, "results")

    @classmethod
    def from_jsonable(cls, data: Dict[str, object]) -> "FuzzCellResult":
        return cls(**decode_fields(cls, data, _CELL_DECODERS))


#: The shared field decoders plus the declared types only a cell carries.
_CELL_DECODERS: Dict[str, Decoder] = {
    **FIELD_DECODERS,
    "FuzzCase": FuzzCase.from_jsonable,
    "List[Violation]": lambda value: [
        Violation.from_jsonable(v) for v in value
    ],
    "Dict[str, Optional[str]]": lambda value: {
        str(k): None if v is None else str(v) for k, v in dict(value).items()
    },
    "Dict[str, RunResult]": lambda value: {
        str(k): RunResult.from_jsonable(v) for k, v in dict(value).items()
    },
}


def _cell_digest(
    case: FuzzCase,
    observations: Dict[str, VariantObservation],
    violations: List[Violation],
) -> str:
    """Canonical digest of everything deterministic about this cell."""
    variants: Dict[str, object] = {}
    for name, vobs in sorted(observations.items()):
        entry: Dict[str, object] = {
            "escape": type(vobs.error).__name__ if vobs.error else None,
        }
        if vobs.result is not None:
            entry["output_sha"] = _sha(vobs.result.output.hex())
            entry["trace_sha"] = _sha(repr(vobs.result.read_trace))
            entry["cycles"] = vobs.result.cycles
            entry["fault_events"] = vobs.result.fault_events()
        variants[name] = entry
    payload = {
        "key": case.key,
        "plan": case.plan.to_jsonable(),
        "spec_overrides": dict(sorted(case.spec_overrides.items())),
        "variants": variants,
        "violations": sorted(v.monitor for v in violations),
    }
    return _sha(json.dumps(payload, sort_keys=True))


def run_fuzz_case(
    case: FuzzCase,
    workload_scale: float = DEFAULT_FUZZ_SCALE,
    system: Optional[SystemConfig] = None,
    trace_dir: Optional[str] = None,
) -> FuzzCellResult:
    """Run one cell (both variants) and judge it with every monitor.

    Both runs share the system seed and the plan's fault seed; the only
    difference is whether the binary was transformed.  Never raises on a
    failing cell — whatever escaped a variant is data for the monitors.

    With ``trace_dir`` set, both variants run under a tracer and a
    *failing* cell dumps both event streams as JSONL to
    ``trace_dir/<app>-<plan>-<variant>.jsonl`` — the first question about
    any divergence is "what did the two runs actually do", and the traces
    answer it without a re-run.  Tracing cannot mask the bug being hunted:
    the tracer only reads the clock, so traced runs are cycle-identical
    to untraced ones.
    """
    observations: Dict[str, VariantObservation] = {}
    tracers: Dict[str, Tracer] = {}
    identity_digest = ""
    identity_seed = 0
    for variant in (Variant.ORIGINAL, Variant.SPECULATING):
        cfg = case_config(case, variant, workload_scale, system)
        # params_digest excludes the variant axis, so either variant's
        # config yields the same cell identity.
        identity_digest = params_digest(cfg)
        identity_seed = cfg.system.seed
        tracer = NULL_TRACER
        if trace_dir is not None:
            tracer = tracers[variant.value] = Tracer(SimClock())
        observations[variant.value] = observe_variant(cfg, tracer)
    obs = CellObservation(
        app=case.app,
        plan=case.plan,
        spec_overrides=dict(case.spec_overrides),
        variants=observations,
    )
    violations = check_all(obs)
    if violations and trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)
        plan_name = case.plan.name if case.plan.active else "fault-free"
        stem = os.path.join(trace_dir, f"{case.app}-{plan_name}")
        for name, tracer in tracers.items():
            export_to_path(tracer, f"{stem}-{name}.jsonl", "jsonl")
        violations[-1].detail += f" [traces in {stem}-*.jsonl]"
    completed = {
        name: vobs.result for name, vobs in sorted(observations.items())
        if vobs.result is not None
    }
    return FuzzCellResult(
        case=case,
        violations=violations,
        digest=_cell_digest(case, observations, violations),
        cycles={name: result.cycles for name, result in completed.items()},
        escapes={
            name: (type(vobs.error).__name__ if vobs.error else None)
            for name, vobs in sorted(observations.items())
        },
        params_digest=identity_digest,
        seed=identity_seed,
        results=completed,
    )


def run_fuzz_cell_payload(
    case_json: Dict[str, object],
    workload_scale: float,
    system: Optional[SystemConfig] = None,
    trace_dir: Optional[str] = None,
    with_results: bool = False,
) -> Dict[str, object]:
    """Module-level cell runner (pickled by reference into workers).

    ``system`` is a plain frozen dataclass, so it ships to the worker by
    value.
    """
    case = FuzzCase.from_jsonable(case_json)
    return run_fuzz_case(
        case, workload_scale=workload_scale, system=system,
        trace_dir=trace_dir,
    ).to_jsonable(with_results=with_results)


@dataclass
class FuzzReport:
    """Everything one campaign produced."""

    seed: int
    budget: int
    ledger: CoverageLedger
    cells: List[FuzzCellResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures()

    def failures(self) -> List[FuzzCellResult]:
        return [cell for cell in self.cells if not cell.passed]

    @property
    def digest(self) -> str:
        """Campaign digest: identical for serial and parallel runs."""
        lines = sorted(f"{cell.key}:{cell.digest}" for cell in self.cells)
        return _sha("\n".join(lines))

    def to_jsonable(self) -> Dict[str, object]:
        """The ``--coverage-report`` file: verdict, digest, fault-space ledger."""
        return {
            "seed": self.seed,
            "budget": self.budget,
            "passed": self.passed,
            "digest": self.digest,
            "coverage": self.ledger.to_jsonable(),
        }

    def summary(self) -> str:
        failures = self.failures()
        verdict = "PASS" if self.passed else "FAIL"
        return (f"fuzz: {verdict} ({len(self.cells) - len(failures)}/"
                f"{len(self.cells)} cells clean; "
                f"digest {self.digest})")


def run_fuzz(
    budget: int,
    seed: int = 7,
    apps: Sequence[str] = ("agrep",),
    jobs: int = 1,
    workload_scale: float = DEFAULT_FUZZ_SCALE,
    checkpoint_path: Optional[str] = None,
    resume: bool = False,
    progress: Optional[Callable[[str, bool], None]] = None,
    on_event: Optional[Callable[[str], None]] = None,
    registry_path: Optional[str] = None,
) -> FuzzReport:
    """One fuzz campaign: ``budget`` generated cells over the pool.

    Deterministic in ``(budget, seed, apps, workload_scale)``: the
    coverage ledger, every cell digest, and the campaign digest are
    identical whether cells ran serially or sharded across workers.

    With ``registry_path`` set, a ``fuzz-case`` record per cell (carrying
    its invariant-monitor verdicts) lands in the persistent run registry.
    """
    for app in apps:
        if app not in ALL_APPS:
            raise FuzzError(
                f"unknown fuzz app {app!r}; expected one of {ALL_APPS}"
            )
    generator = FaultPlanGenerator(seed, apps=apps)
    cases = generator.cases(budget)
    ledger = CoverageLedger()
    for case in cases:
        ledger.note(case)

    cells = [
        (case.key, run_fuzz_cell_payload,
         (case.to_jsonable(), workload_scale))
        for case in cases
    ]
    # What fixes a cell's content given its key; not the budget, so a
    # larger budget extends a checkpointed campaign.
    identity = (f"fuzz:seed={seed}:apps={','.join(apps)}"
                f":scale={workload_scale:g}")
    outcome = run_cells(
        cells, jobs=jobs, checkpoint_path=checkpoint_path,
        identity=identity, resume=resume, progress=progress,
        on_event=on_event,
        registry_path=registry_path, registry_meta={"kind": "fuzz-case"},
    )

    return FuzzReport(
        seed=seed, budget=budget, ledger=ledger,
        cells=[FuzzCellResult.from_jsonable(outcome.results[case.key])
               for case in cases],
    )


__all__ = [
    "DEFAULT_FUZZ_SCALE",
    "FuzzCellResult",
    "FuzzReport",
    "case_config",
    "observe_variant",
    "run_fuzz",
    "run_fuzz_case",
    "run_fuzz_cell_payload",
]
