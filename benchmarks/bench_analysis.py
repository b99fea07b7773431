"""Static-analysis optimization suite: instrumentation-cost deltas and
the safety argument for eliding COW checks.

Not a paper figure — this quantifies what the PR's analysis pipeline
buys on each example application (COW store wrappers elided, check
cycles removed, transformed-size delta, computed transfers statically
redirected) and then proves the optimization is invisible: for every
application and every chaos profile the differential oracle must find
the analysis-optimized speculating run byte-identical to the original,
with zero isolation violations.
"""

from __future__ import annotations

import functools
from typing import Dict, Optional, Tuple

from conftest import banner, once

from repro.faults.plan import PROFILES
from repro.harness.oracle import OracleCell, run_oracle_cell
from repro.harness.runner import program
from repro.spechint.report import TransformReport
from repro.spechint.tool import SpecHintTool

APPS = ("agrep", "gnuld", "xds", "postgres20")
ORACLE_PROFILES = (None,) + tuple(sorted(n for n in PROFILES if n != "none"))
SCALE = 0.3


def _report(app: str, optimize: bool) -> TransformReport:
    binary = program(app, SCALE)
    tool = SpecHintTool(optimize=optimize)
    return tool.transform(binary).spec_meta.report


@functools.lru_cache(maxsize=1)
def transform_reports() -> Dict[str, Tuple[TransformReport, TransformReport]]:
    """(mechanical, analysis-optimized) transform report per app."""
    return {app: (_report(app, False), _report(app, True)) for app in APPS}


@functools.lru_cache(maxsize=1)
def oracle_grid() -> Dict[Tuple[str, str], OracleCell]:
    """Differential oracle, analysis optimization on, every profile."""
    grid: Dict[Tuple[str, str], OracleCell] = {}
    for app in APPS:
        for profile in ORACLE_PROFILES:
            grid[(app, profile or "none")] = run_oracle_cell(
                app, profile, workload_scale=SCALE, analysis_optimize=True
            )
    return grid


def test_analysis_transformation_costs(benchmark):
    reports = once(benchmark, transform_reports)
    print(banner(f"Static analysis - instrumentation deltas (scale {SCALE})"))
    print(f"{'app':12s}{'stores':>8s}{'elided':>8s}{'pct':>6s}"
          f"{'chk cycles':>12s}{'emitted':>9s}{'saved':>7s}"
          f"{'size delta':>12s}{'resolved':>9s}")
    for app in APPS:
        plain, optimized = reports[app]
        wrapped_total = optimized.stores_wrapped + optimized.stores_elided
        size_delta = (optimized.transformed_size_bytes
                      - plain.transformed_size_bytes)
        print(f"{app:12s}{wrapped_total:>8d}{optimized.stores_elided:>8d}"
              f"{optimized.store_elision_pct:>5.0f}%"
              f"{optimized.check_cycles_baseline:>12,d}"
              f"{optimized.check_cycles_emitted:>9,d}"
              f"{optimized.check_cycles_saved_pct:>6.0f}%"
              f"{size_delta:>+12,d}"
              f"{optimized.transfers_statically_resolved:>9d}")

    for app in APPS:
        plain, optimized = reports[app]
        # The optimization only removes instrumentation: never adds it.
        assert optimized.check_cycles_emitted <= \
            optimized.check_cycles_baseline, app
        assert optimized.transformed_size_bytes <= \
            plain.transformed_size_bytes, app
        # Both halves report the same mechanical transformation.
        assert optimized.stores_wrapped + optimized.stores_elided == \
            plain.stores_wrapped, app

    # Acceptance floor: >=20% of COW store wrappers elided on at least
    # two apps, and at least one computed transfer statically resolved.
    winners = sum(
        1 for app in APPS if reports[app][1].store_elision_pct >= 20.0
    )
    resolved = sum(
        reports[app][1].transfers_statically_resolved for app in APPS
    )
    assert winners >= 2
    assert resolved >= 1


def test_analysis_security_lint(benchmark):
    """The speculation-security taint lint: every app provably clean,
    every crafted leak caught with a witness, the sanitized probe not
    flagged — the no-false-negative / no-false-positive matrix."""
    from repro.analysis.fixtures import FIXTURES, LEAKY_FIXTURES
    from repro.analysis.taint import analyze_security

    def security_matrix():
        plans = {}
        for app in APPS:
            binary = program(app, SCALE)
            plans[app] = analyze_security(binary)
        for name, builder in FIXTURES.items():
            if name.startswith("taint-"):
                plans[name] = analyze_security(builder())
        return plans

    plans = once(benchmark, security_matrix)
    print(banner(f"Static analysis - speculation-security lint "
                 f"(scale {SCALE})"))
    print(f"{'binary':24s}{'secrets':>8s}{'sites':>6s}{'leaks':>6s}"
          f"  channels")
    for name, plan in sorted(plans.items()):
        channels = sorted({
            ch for leak in plan.leaks for ch in leak.channels
        })
        print(f"{name:24s}{len(plan.secret_labels):>8d}"
              f"{len(plan.disclosure_sites):>6d}{len(plan.leaks):>6d}"
              f"  {', '.join(channels) or '-'}")

    for app in APPS:
        assert plans[app].clean, app
    for name in LEAKY_FIXTURES:
        assert not plans[name].clean, name
        assert all(leak.witness for leak in plans[name].leaks), name
    assert plans["taint-safe-fixture"].clean
    assert plans["taint-sanitized-fixture"].clean


def test_analysis_oracle_identity(benchmark):
    grid = once(benchmark, oracle_grid)
    print(banner(
        f"Static analysis - oracle identity under chaos (scale {SCALE})"
    ))
    print(f"{'app':12s}{'profile':18s}{'verdict':>8s}{'restarts':>9s}"
          f"{'violations':>11s}")
    failures = []
    for (app, profile), cell in sorted(grid.items()):
        spec = cell.speculating
        verdict = "ok" if cell.passed else "DIVERGED"
        if not cell.passed:
            failures.append((app, profile, cell.detail))
        if spec is None:
            # double-fault: both variants end in DataLossError, by design.
            print(f"{app:12s}{profile:18s}{verdict:>8s}{'-':>9s}{'-':>11s}")
            continue
        print(f"{app:12s}{profile:18s}{verdict:>8s}"
              f"{spec.spec_restarts:>9d}{spec.isolation_violations:>11d}")
        # The write guard is the soundness oracle for every elision: it
        # must never have fired.
        assert spec.isolation_violations == 0, (app, profile)
    assert not failures, failures
