"""Static-analysis suite: the speculation-security taint lint over every
example application and every taint fixture.

Not a paper figure — this prints the per-binary secrets / disclosure
sites / leaks matrix and asserts the lint's no-false-negative /
no-false-positive verdicts: every app clean, every crafted leak caught
with a witness, the safe and sanitized probes not flagged.
"""

from __future__ import annotations

from conftest import banner, once

from repro.harness.runner import program

APPS = ("agrep", "gnuld", "xds", "postgres20")
SCALE = 0.3


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
