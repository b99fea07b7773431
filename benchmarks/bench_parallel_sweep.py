#!/usr/bin/env python
"""Parallel sweep guard: the parallel result set is the serial one.

The cell engine (``repro sweep --jobs N``) shards sealed simulation cells
across worker processes.  Its contract is that parallelism is invisible
in the results, and this guard makes a breach a CI failure: the parallel
result set must be *byte-identical* to the serial one — same cells, same
payloads, same checkpoint contents — for a plain sweep grid and for a
chaos grid spanning every built-in fault profile.  The canonical digest
(sha256 over the sorted JSON of every cell payload) is also compared
against the committed baseline in ``BENCH_parallel_sweep.json``: the
simulation is seeded, so the digest is machine-independent and any
change means results moved.

The guard prints the wall-clock speedup and gates nothing on it: on a
shared runner it is noise, and speed is tracked by the end-to-end
ledger's ``harness.jobs2_speedup`` (``benchmarks/e2e``).

``--quick`` runs a 4-cell grid at ``--jobs 2`` (for fast CI smoke);
``--update-baseline`` records the current digests after an intentional
simulation change.
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
from repro.harness.experiments import (  # noqa: E402
    SWEEP_POINTS,
    sweep_parallel_cells,
)
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
    """The first sweep point's agrep cells and its gnuld original."""
    first = SWEEP_POINTS["cache"][:1]
    return sweep_parallel_cells("cache", workload_scale=SCALE, points=first)[:4]


def timed_run(cells, jobs: int):
    """One run of the grid; returns (outcome, wall seconds)."""
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=4,
                        help="worker count of the parallel leg (default 4)")
    parser.add_argument("--quick", action="store_true",
                        help="4-cell grid at --jobs 2")
    add_baseline_arguments(parser, "BENCH_parallel_sweep.json",
                           "record the current digests as the baseline")
    args = parser.parse_args(argv)

    jobs = 2 if args.quick else args.jobs
    cells = quick_grid() if args.quick else full_grid()
    label = "quick" if args.quick else "full"
    print(f"{label} grid: {len(cells)} cells, serial vs --jobs {jobs}")

    serial, serial_s = timed_run(cells, jobs=1)
    parallel, parallel_s = timed_run(cells, jobs=jobs)

    # -- determinism ---------------------------------------------------------
    serial_digest = digest_of(serial.results)
    parallel_digest = digest_of(parallel.results)
    print(f"serial:   {serial_s:7.2f} s  digest {serial_digest[:16]}…")
    print(f"parallel: {parallel_s:7.2f} s  digest {parallel_digest[:16]}…  "
          f"(workers spawned: {parallel.stats.workers_spawned}, "
          f"crashes: {parallel.stats.worker_crashes})")
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

    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    print(f"speedup: {speedup:.2f}x at --jobs {jobs} on "
          f"{os.cpu_count() or 1} cores")
    return 0


if __name__ == "__main__":
    sys.exit(main())
