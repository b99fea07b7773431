"""Chaos suite: graceful degradation under every built-in fault profile.

Not a paper figure — this is the safety argument of Section 2 made
empirical.  Speculation and hints are pure optimization, so for every
benchmark application and every fault profile (flaky disks, a stuck disk,
a disk offline mid-run, a lossy/corrupting hint channel, a forced restart
storm) the application output must be byte-identical to the fault-free
run.  And because every fault decision is drawn from seeded streams, a
given fault seed must reproduce the exact same fault-event counts.
"""

from __future__ import annotations

import functools
from typing import Dict, Tuple

from conftest import banner, once

from repro.faults.plan import PROFILES, profile
from repro.harness.config import ExperimentConfig, Variant
from repro.harness.results import RunResult
from repro.harness.runner import run_experiment

APPS = ("agrep", "gnuld", "xds", "postgres20")
# Every survivable profile; data-loss profiles (double faults) raise a
# typed DataLossError by design and are exercised by bench_degraded.py.
CHAOS_PROFILES = tuple(sorted(
    name for name in PROFILES
    if name != "none" and not PROFILES[name].expects_data_loss
))
SCALE = 0.3


def _config(app: str, profile_name: str = None) -> ExperimentConfig:
    return ExperimentConfig(
        app=app,
        variant=Variant.SPECULATING,
        workload_scale=SCALE,
        fault_plan=profile(profile_name) if profile_name else None,
    )


@functools.lru_cache(maxsize=1)
def chaos_grid() -> Dict[Tuple[str, str], RunResult]:
    """Every app fault-free plus under every chaos profile."""
    grid: Dict[Tuple[str, str], RunResult] = {}
    for app in APPS:
        grid[(app, "none")] = run_experiment(_config(app))
        for name in CHAOS_PROFILES:
            grid[(app, name)] = run_experiment(_config(app, name))
    return grid


def test_chaos_output_identity(benchmark):
    grid = once(benchmark, chaos_grid)
    print(banner(f"Chaos suite - output identity (scale {SCALE})"))
    header = f"{'app':12s}{'profile':18s}{'elapsed':>9s}{'faults':>8s}" \
             f"{'retries':>9s}{'dropped':>9s}  watchdog"
    print(header)
    for app in APPS:
        clean = grid[(app, "none")]
        print(f"{app:12s}{'(fault-free)':18s}{clean.elapsed_s:8.3f}s"
              f"{'-':>8s}{'-':>9s}{'-':>9s}  -")
        for name in CHAOS_PROFILES:
            result = grid[(app, name)]
            print(f"{'':12s}{name:18s}{result.elapsed_s:8.3f}s"
                  f"{result.disk_faults:8d}{result.io_retries:9d}"
                  f"{result.prefetches_dropped:9d}"
                  f"  {result.watchdog_tripped or '-'}")

            # The invariant: no fault profile may change what the
            # application computed.
            assert result.output == clean.output, \
                f"{app}/{name}: output diverged from fault-free run"
            assert result.read_bytes == clean.read_bytes
            # Demand reads always recovered (no profile is fatal).
            assert result.c("array.demand_failures") == 0, f"{app}/{name}"
            # The profile actually injected something.
            assert result.fault_events(), f"{app}/{name}: no faults injected"


def test_chaos_fault_determinism(benchmark):
    grid = chaos_grid()

    def rerun():
        return {
            (app, name): run_experiment(_config(app, name))
            for app in APPS
            for name in CHAOS_PROFILES
        }

    second = once(benchmark, rerun)
    print(banner("Chaos suite - seeded fault determinism"))
    total = 0
    for key, result in second.items():
        first = grid[key]
        assert result.fault_events() == first.fault_events(), \
            f"{key}: fault events differ between identical runs"
        assert result.cycles == first.cycles
        assert result.counters == first.counters
        assert result.output == first.output
        total += sum(result.fault_events().values())
    print(f"{len(second)} app x profile replays bit-identical "
          f"({total} fault events reproduced)")


def test_chaos_watchdog_restores_baseline(benchmark):
    """Under a full-length restart storm the watchdog trips and the run
    completes vanilla — never worse than simply losing speculation."""

    def run():
        storm = run_experiment(ExperimentConfig(
            app="agrep", variant=Variant.SPECULATING,
            fault_plan=profile("restart-storm"),
        ))
        clean = run_experiment(ExperimentConfig(
            app="agrep", variant=Variant.SPECULATING,
        ))
        original = run_experiment(ExperimentConfig(
            app="agrep", variant=Variant.ORIGINAL,
        ))
        return storm, clean, original

    storm, clean, original = once(benchmark, run)
    print(banner("Chaos suite - restart storm watchdog"))
    print(f"clean speculating: {clean.elapsed_s:.3f}s, "
          f"storm: {storm.elapsed_s:.3f}s, original: {original.elapsed_s:.3f}s")
    print(f"watchdog: {storm.watchdog_tripped}, "
          f"divergences forced: {storm.c('faults.spec_divergence')}")
    assert storm.watchdog_tripped == "restart_storm"
    assert storm.c("spec.watchdog_disabled") == 1
    assert storm.output == clean.output == original.output
    # Degraded, but bounded: between the clean speculating run and a
    # small overhead past the unhinted original.
    assert storm.cycles >= clean.cycles
    assert storm.cycles < original.cycles * 1.5
