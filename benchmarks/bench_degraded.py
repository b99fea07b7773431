#!/usr/bin/env python
"""Degraded-mode guard: rebuild completion, slowdown ceiling, determinism.

The degraded-mode contract has three halves, and this guard turns each
into a CI failure instead of a slow drift:

1. **Survival.**  Under every survivable permanent-death profile the run
   must produce byte-identical output to the healthy run, serve demand
   reads through parity reconstruction, and finish the background rebuild
   on the simulation clock.  The double-fault profile must fail loudly
   with a typed :class:`DataLossError` in *both* variants — silent
   corruption (or asymmetric survival) is the one unforgivable outcome.
2. **Bounded slowdown.**  A degraded array is slower — reconstruction
   fans one read into ``ndisks - 1`` peer reads, speculation is
   suspended, and the rebuild steals bandwidth — but the
   workload-completion slowdown versus the healthy array must stay under
   the per-profile ceiling in :data:`SLOWDOWN_CEILINGS` (rebuild-storm's
   is far higher because the profile hands the rebuild 90% of the
   bandwidth by design).  The rebuild drain tail after workload exit is
   excluded: it scales with array capacity, not workload size.
3. **Determinism.**  The simulation is seeded, so the canonical digest
   (sha256 over the sorted JSON of every cell's result) is
   machine-independent and compared against the committed baseline in
   ``BENCH_degraded.json``; any drift means degraded-mode results moved.

``--quick`` runs the one-app disk-death leg only (CI smoke);
``--update-baseline`` records the current digests after an intentional
simulation change.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from _baseline import (  # noqa: E402
    add_baseline_arguments,
    check_baseline,
    digest_of,
    update_baseline,
)

from repro.errors import DataLossError  # noqa: E402
from repro.faults.plan import profile  # noqa: E402
from repro.harness.config import ExperimentConfig, Variant  # noqa: E402
from repro.harness.runner import run_experiment  # noqa: E402

SCALE = 0.3
#: Degraded workload-completion time may not exceed this multiple of the
#: healthy run.  Observed today: disk-death ~3.2-3.6x (reconstruction
#: fan-out plus suspended speculation), rebuild-storm ~5-11x (the profile
#: gives the rebuild a 0.9 bandwidth share on top of transient errors).
SLOWDOWN_CEILINGS = {"disk-death": 5.0, "rebuild-storm": 15.0}
FULL_APPS = ("agrep", "gnuld")
QUICK_APPS = ("agrep",)
DEATH_PROFILES = ("disk-death", "rebuild-storm")


def run_cell(app: str, name: str | None):
    return run_experiment(ExperimentConfig(
        app=app, variant=Variant.SPECULATING, workload_scale=SCALE,
        fault_plan=profile(name) if name else None,
    ))


def check_survival(apps, profiles) -> "tuple[dict, int]":
    """Healthy + degraded cells; returns (results, failure count)."""
    failures = 0
    results = {}
    for app in apps:
        healthy = run_cell(app, None)
        results[f"{app}/none"] = healthy
        for name in profiles:
            degraded = run_cell(app, name)
            results[f"{app}/{name}"] = degraded
            # Slowdown is judged on workload completion, not total elapsed:
            # total elapsed includes the rebuild drain tail, which scales
            # with array capacity rather than workload size.
            slowdown = degraded.workload_elapsed_s / healthy.elapsed_s
            rebuild = (
                f"rebuild @{degraded.rebuild_completed_cycle / degraded.cpu_hz:.3f}s"
                if degraded.rebuild_completed else "rebuild INCOMPLETE"
            )
            print(f"  {app:8s} {name:14s} healthy {healthy.elapsed_s:6.3f}s "
                  f"degraded {degraded.workload_elapsed_s:6.3f}s "
                  f"({slowdown:4.2f}x)  "
                  f"recon {degraded.reconstructed_blocks:4d}  {rebuild}")
            if degraded.output != healthy.output:
                print(f"FAIL: {app}/{name}: output diverged from the "
                      f"healthy run", file=sys.stderr)
                failures += 1
            if not degraded.rebuild_completed:
                print(f"FAIL: {app}/{name}: rebuild did not complete",
                      file=sys.stderr)
                failures += 1
            if degraded.degraded_reads <= 0:
                print(f"FAIL: {app}/{name}: no degraded reads recorded — "
                      f"the profile injected nothing", file=sys.stderr)
                failures += 1
            ceiling = SLOWDOWN_CEILINGS[name]
            if slowdown > ceiling:
                print(f"FAIL: {app}/{name}: degraded slowdown "
                      f"{slowdown:.2f}x exceeds the {ceiling:.1f}x "
                      f"ceiling", file=sys.stderr)
                failures += 1
    return results, failures


def check_double_fault() -> int:
    """Both variants must fail loudly with the typed error."""
    failures = 0
    for variant in (Variant.ORIGINAL, Variant.SPECULATING):
        try:
            run_experiment(ExperimentConfig(
                app="agrep", variant=variant, workload_scale=SCALE,
                fault_plan=profile("double-fault"),
            ))
        except DataLossError as exc:
            print(f"  double-fault {variant.value:12s} DataLossError: "
                  f"{str(exc)[:60]}…")
        else:
            print(f"FAIL: double-fault {variant.value} completed instead of "
                  f"raising DataLossError", file=sys.stderr)
            failures += 1
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="one app, disk-death only (CI smoke)")
    add_baseline_arguments(parser, "BENCH_degraded.json",
                           "record the current digest as the baseline")
    args = parser.parse_args(argv)

    label = "quick" if args.quick else "full"
    apps = QUICK_APPS if args.quick else FULL_APPS
    profiles = DEATH_PROFILES[:1] if args.quick else DEATH_PROFILES
    ceilings = ", ".join(f"{name} {SLOWDOWN_CEILINGS[name]:.0f}x"
                         for name in profiles)
    print(f"{label} degraded-mode guard (scale {SCALE:g}, "
          f"slowdown ceilings: {ceilings})")

    results, failures = check_survival(apps, profiles)
    failures += check_double_fault()

    digest = digest_of({key: result.to_jsonable()
                        for key, result in results.items()})
    digest_key = f"digest_{label}"
    print(f"digest {digest[:16]}… over {len(results)} cells")

    if args.update_baseline:
        update_baseline(args.baseline, digest_key, digest, {
            "workload": f"healthy vs permanent-death profiles, scale={SCALE:g}",
            "slowdown_ceilings": SLOWDOWN_CEILINGS,
        })
        return 1 if failures else 0
    if check_baseline(args.baseline, digest_key, digest, "result digest",
                      "degraded-mode results changed") is None:
        failures += 1

    if failures:
        print(f"FAIL: {failures} degraded-mode check(s) failed",
              file=sys.stderr)
        return 1
    print("degraded-mode guard: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
