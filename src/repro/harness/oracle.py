"""The differential correctness oracle.

The paper's promise is that speculative pre-execution is *transparent*:
a transformed application produces exactly the output of the original, and
demands exactly the same data in the same order — hinting changes timing,
never semantics.  The executable form of that promise is the differential
cell (:func:`repro.harness.fuzz.run_fuzz_case`): both variants of one app
on one seed under one fault plan, judged by the invariant monitors
(:mod:`repro.harness.invariants`).  The oracle is that cell run over a
grid — every app under the fault-free baseline and every built-in chaos
profile — so the guarantee is checked while disks fail, hints are
corrupted, and restart storms rage.

A failing cell is recorded in the report with its violations (or, in
strict mode, raised as a typed :class:`~repro.errors.OracleMismatch`).
The CLI exposes this as ``run APP --oracle``; CI runs a smoke subset on
every push.  This module holds only the grid and the report-row views;
the pair runner, the verdict and the payload are the cell's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import OracleMismatch
from repro.faults.generate import FuzzCase
from repro.faults.plan import PROFILES, profile
from repro.harness.fuzz import (
    FuzzCellResult,
    run_fuzz_case,
    run_fuzz_cell_payload,
)
from repro.harness.parallel import run_cells
from repro.harness.results import RunResult
from repro.params import SystemConfig

#: Chaos profiles the full oracle sweeps (None = fault-free baseline).
ORACLE_PROFILES: Tuple[Optional[str], ...] = (None,) + tuple(
    name for name in sorted(PROFILES) if name != "none"
)


def oracle_case(
    app: str, profile_name: Optional[str] = None, fault_seed: int = 7
) -> FuzzCase:
    """The differential cell of one app under one built-in profile.

    Fault-free is the inactive ``none`` plan; nothing overrides the
    speculation parameters.
    """
    return FuzzCase(0, app, profile(profile_name or "none", seed=fault_seed))


@dataclass
class OracleCell:
    """Report row of one (app, profile) differential cell."""

    app: str
    profile: Optional[str]
    passed: bool
    detail: str = ""
    original: Optional[RunResult] = None
    speculating: Optional[RunResult] = None

    @classmethod
    def of(cls, cell: FuzzCellResult) -> "OracleCell":
        """The report row of a finished cell."""
        plan = cell.case.plan
        escapes = set(cell.escapes.values())
        if cell.violations:
            detail = "; ".join(str(v) for v in cell.violations)
        elif len(escapes) == 1 and None not in escapes:
            detail = (f"both variants raised {escapes.pop()} "
                      f"(expected for this profile)")
        else:
            detail = ""
        return cls(
            app=cell.case.app, profile=plan.name if plan.active else None,
            passed=cell.passed, detail=detail,
            original=cell.results.get("original"),
            speculating=cell.results.get("speculating"),
        )

    @property
    def profile_name(self) -> str:
        return self.profile or "fault-free"

    def to_jsonable(self) -> Dict[str, object]:
        entry: Dict[str, object] = {
            "app": self.app,
            "profile": self.profile_name,
            "passed": self.passed,
            "detail": self.detail,
        }
        if self.speculating is not None:
            entry["spec_restarts"] = self.speculating.spec_restarts
            entry["spec_hints_issued"] = self.speculating.spec_hints_issued
            entry["isolation_violations"] = self.speculating.isolation_violations
            entry["watchdog_tripped"] = self.speculating.watchdog_tripped
        return entry


@dataclass
class OracleReport:
    """Every cell of one oracle invocation."""

    cells: List[OracleCell] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(cell.passed for cell in self.cells)

    def failures(self) -> List[OracleCell]:
        return [cell for cell in self.cells if not cell.passed]

    def to_jsonable(self) -> Dict[str, object]:
        return {
            "passed": self.passed,
            "cells": [cell.to_jsonable() for cell in self.cells],
        }

    def summary(self) -> str:
        ok = sum(1 for cell in self.cells if cell.passed)
        verdict = "PASS" if self.passed else "FAIL"
        return f"oracle: {verdict} ({ok}/{len(self.cells)} cells identical)"


def run_oracle_cell(
    app: str,
    profile: Optional[str] = None,
    workload_scale: float = 1.0,
    fault_seed: int = 7,
    system: Optional[SystemConfig] = None,
    trace_dir: Optional[str] = None,
) -> OracleCell:
    """One oracle cell, in-process: the report row of its differential cell."""
    return OracleCell.of(run_fuzz_case(
        oracle_case(app, profile, fault_seed),
        workload_scale=workload_scale, system=system, trace_dir=trace_dir,
    ))


def run_oracle(
    apps: Sequence[str],
    profiles: Sequence[Optional[str]] = ORACLE_PROFILES,
    workload_scale: float = 1.0,
    fault_seed: int = 7,
    system: Optional[SystemConfig] = None,
    strict: bool = False,
    trace_dir: Optional[str] = None,
    jobs: int = 1,
    registry_path: Optional[str] = None,
) -> OracleReport:
    """Differential oracle over an app x chaos-profile grid.

    With ``strict`` set, the first failing cell (in grid order) raises
    :class:`OracleMismatch` once every cell has run; otherwise every
    cell is collected into the report for the caller to inspect.
    ``trace_dir`` enables per-cell divergence trace dumps (see
    :func:`~repro.harness.fuzz.run_fuzz_case`).

    The (app, profile) cells go through the cell engine
    (:func:`repro.harness.parallel.run_cells`): in-process by default,
    on the worker pool with ``jobs > 1``.  Each cell is the same two
    same-seed runs either way, so the reports are identical.

    With ``registry_path`` set, one ``oracle-cell`` record per cell plus
    one ``oracle-variant`` record per variant run land in the persistent
    run registry, identically for serial and parallel runs.
    """
    grid = [(f"oracle/{app}/{name or 'fault-free'}",
             oracle_case(app, name, fault_seed))
            for app in apps for name in profiles]
    outcome = run_cells(
        [(key, run_fuzz_cell_payload,
          # True: the payload carries both RunResults.
          (case.to_jsonable(), workload_scale, system, trace_dir, True))
         for key, case in grid],
        jobs=jobs, identity="oracle",
        registry_path=registry_path, registry_meta={"kind": "oracle-cell"},
    )

    report = OracleReport()
    for key, _ in grid:
        cell = OracleCell.of(FuzzCellResult.from_jsonable(outcome.results[key]))
        report.cells.append(cell)
        if strict and not cell.passed:
            raise OracleMismatch(
                f"{cell.app} under {cell.profile_name}: {cell.detail}"
            )
    return report
