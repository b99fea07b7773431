#!/usr/bin/env python
"""Parallel sweep guard: determinism first, speedup second.

The supervised parallel engine (``repro sweep --jobs N``) shards sealed
simulation cells across worker processes.  Its contract has two halves,
and this guard makes both a CI failure instead of a slow drift:

1. **Determinism.**  The parallel result set must be *byte-identical* to
   the serial one — same cells, same payloads, same checkpoint contents —
   for a plain sweep grid and for a chaos grid spanning every built-in
   fault profile.  The canonical digest (sha256 over the sorted JSON of
   every cell payload) is also compared against the committed baseline in
   ``BENCH_parallel_sweep.json``: the simulation is seeded, so the digest
   is machine-independent and any change means results moved.
2. **Speedup.**  On a multi-core runner, ``--jobs 4`` must beat serial by
   the core-aware floor ``min(3.0, 0.75 * effective_cores)`` (the full
   3x on a 4-core CI runner).  On a single-core machine the floor is not
   enforceable — process-level parallelism cannot beat serial there — so
   the guard reports the ratio and enforces determinism only.

``--quick`` runs a 4-cell grid at ``--jobs 2`` and checks determinism
only (for fast CI smoke); ``--update-baseline`` records the current
digests after an intentional simulation change.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from _baseline import (  # noqa: E402
    add_baseline_arguments,
    check_baseline,
    digest_of,
    update_baseline,
)

from repro.faults.plan import PROFILES  # noqa: E402
from repro.harness.experiments import sweep_parallel_cells  # noqa: E402
from repro.harness.parallel import run_cells  # noqa: E402

SCALE = 0.2
# Permanent-death profiles are excluded to keep the committed digest
# baseline stable across the degraded-mode work; they are covered (with
# their own baseline) by bench_degraded.py.
CHAOS_PROFILES = tuple(sorted(
    name for name in PROFILES
    if name != "none" and not PROFILES[name].permanent_death
))


def full_grid():
    """The guard's workload: a cache sweep plus an all-profile chaos grid."""
    cells = sweep_parallel_cells("cache", workload_scale=SCALE)
    cells += sweep_parallel_cells(
        "degraded", workload_scale=SCALE,
        points=("none",) + CHAOS_PROFILES, apps=("agrep",),
    )
    return cells


def quick_grid():
    return sweep_parallel_cells("cache", workload_scale=SCALE)[:4]


def timed_run(cells, jobs: int):
    """One run of the grid; returns (results, quarantined, wall seconds)."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        outcome = run_cells(
            cells, jobs=jobs,
            checkpoint_path=os.path.join(tmp, "bench.ckpt"),
            identity="bench-parallel-sweep",
            on_event=lambda message: print(f"  [supervisor] {message}",
                                           file=sys.stderr),
        )
    elapsed = time.perf_counter() - start
    return outcome, elapsed


def effective_cores(jobs: int) -> int:
    return min(jobs, os.cpu_count() or 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=4,
                        help="worker count of the parallel leg (default 4)")
    parser.add_argument("--quick", action="store_true",
                        help="4-cell grid at --jobs 2, determinism only")
    add_baseline_arguments(parser, "BENCH_parallel_sweep.json",
                           "record the current digests as the baseline")
    args = parser.parse_args(argv)

    jobs = 2 if args.quick else args.jobs
    cells = quick_grid() if args.quick else full_grid()
    label = "quick" if args.quick else "full"
    print(f"{label} grid: {len(cells)} cells, serial vs --jobs {jobs}")

    serial, serial_s = timed_run(cells, jobs=1)
    parallel, parallel_s = timed_run(cells, jobs=jobs)

    for name, outcome in (("serial", serial), ("parallel", parallel)):
        if outcome.quarantined:
            print(f"FAIL: {name} run quarantined cells: "
                  f"{sorted(outcome.quarantined)}", file=sys.stderr)
            return 1
    if len(serial.results) != len(cells):
        print(f"FAIL: serial run completed {len(serial.results)} of "
              f"{len(cells)} cells", file=sys.stderr)
        return 1

    # -- determinism ---------------------------------------------------------
    serial_digest = digest_of(serial.results)
    parallel_digest = digest_of(parallel.results)
    print(f"serial:   {serial_s:7.2f} s  digest {serial_digest[:16]}…")
    print(f"parallel: {parallel_s:7.2f} s  digest {parallel_digest[:16]}…  "
          f"(workers spawned: {parallel.stats.workers_spawned}, "
          f"crashes: {parallel.stats.worker_crashes}, "
          f"timeouts: {parallel.stats.cell_timeouts})")
    if parallel_digest != serial_digest:
        diverging = sorted(
            key for key in serial.results
            if json.dumps(serial.results[key], sort_keys=True)
            != json.dumps(parallel.results.get(key), sort_keys=True)
        )
        print(f"FAIL: parallel run diverged from serial in "
              f"{len(diverging)} cell(s): {diverging[:5]}", file=sys.stderr)
        return 1
    print("determinism: ok (parallel byte-identical to serial)")

    # -- baseline digest -----------------------------------------------------
    digest_key = f"digest_{label}"
    if args.update_baseline:
        update_baseline(args.baseline, digest_key, serial_digest, {
            "workload": f"cache sweep + chaos grid, scale={SCALE:g}",
            "cells_full": len(full_grid()),
            "cells_quick": len(quick_grid()),
        })
        return 0
    if check_baseline(args.baseline, digest_key, serial_digest,
                      "result digest", "simulation results changed") is None:
        return 1

    # -- speedup (core-aware) ------------------------------------------------
    if args.quick:
        print("speedup: skipped (--quick checks determinism only)")
        return 0
    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    cores = effective_cores(jobs)
    if cores < 2:
        print(f"speedup: {speedup:.2f}x at --jobs {jobs} on {cores} core(s) "
              f"— floor not enforceable on a single-core machine")
        return 0
    floor = min(3.0, 0.75 * cores)
    verdict = "ok" if speedup >= floor else "REGRESSION"
    print(f"speedup: {speedup:.2f}x at --jobs {jobs} on {cores} cores "
          f"(floor {floor:.2f}x) -> {verdict}")
    if speedup < floor:
        print(f"FAIL: parallel speedup {speedup:.2f}x is below the "
              f"{floor:.2f}x floor", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
