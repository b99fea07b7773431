#!/usr/bin/env python
"""Fuzz throughput guard: campaign determinism first, cells/minute second.

The chaos engine (``repro fuzz``) is only useful if a budget buys real
coverage, so this guard tracks two things:

1. **Determinism.**  The same ``(budget, seed)`` campaign must produce an
   identical campaign digest — every cell digest, the coverage ledger —
   whether it runs serially or across ``--jobs N`` workers, and that
   digest is compared against the committed baseline in
   ``BENCH_fuzz.json``.  The simulation is seeded end to end, so a digest
   change means generated schedules or cell behavior moved: update the
   baseline only for an intentional change (it also invalidates nothing
   else — corpus entries carry their own plans verbatim).
2. **Throughput.**  Cells/minute at ``--jobs 4`` is recorded in the
   baseline and a serial run must stay within a generous regression
   window (0.5x) of its recorded serial throughput — fuzzing that gets
   twice as slow halves what every CI budget actually covers.

``--quick`` runs a smaller budget and checks determinism only;
``--update-baseline`` records current digests and throughput.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from _baseline import (  # noqa: E402
    add_baseline_arguments,
    check_baseline,
    update_baseline,
)

from repro.harness.fuzz import run_fuzz  # noqa: E402

SEED = 7
BUDGET_FULL = 30
BUDGET_QUICK = 6


def timed_campaign(budget: int, jobs: int):
    start = time.perf_counter()
    report = run_fuzz(budget, seed=SEED, jobs=jobs)
    return report, time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=4,
                        help="worker count of the parallel leg (default 4)")
    parser.add_argument("--quick", action="store_true",
                        help="small budget at --jobs 2, determinism only")
    add_baseline_arguments(parser, "BENCH_fuzz.json",
                           "record current digest and throughput")
    args = parser.parse_args(argv)

    jobs = 2 if args.quick else args.jobs
    budget = BUDGET_QUICK if args.quick else BUDGET_FULL
    label = "quick" if args.quick else "full"
    print(f"{label} campaign: --budget {budget} --seed {SEED}, "
          f"serial vs --jobs {jobs}")

    serial, serial_s = timed_campaign(budget, jobs=1)
    parallel, parallel_s = timed_campaign(budget, jobs=jobs)

    for name, report in (("serial", serial), ("parallel", parallel)):
        if not report.passed:
            print(f"FAIL: {name} campaign found violations on a healthy "
                  f"tree: {[c.key for c in report.failures()]}",
                  file=sys.stderr)
            return 1

    # -- determinism ---------------------------------------------------------
    serial_rate = 60.0 * budget / serial_s if serial_s > 0 else 0.0
    parallel_rate = 60.0 * budget / parallel_s if parallel_s > 0 else 0.0
    print(f"serial:   {serial_s:7.2f} s ({serial_rate:6.1f} cells/min)  "
          f"digest {serial.digest}")
    print(f"parallel: {parallel_s:7.2f} s ({parallel_rate:6.1f} cells/min)  "
          f"digest {parallel.digest}")
    if serial.digest != parallel.digest:
        diverging = [
            (a.key, a.digest, b.digest)
            for a, b in zip(serial.cells, parallel.cells)
            if a.digest != b.digest
        ]
        print(f"FAIL: parallel campaign diverged from serial in "
              f"{len(diverging)} cell(s): {diverging[:5]}", file=sys.stderr)
        return 1
    if serial.ledger.to_jsonable() != parallel.ledger.to_jsonable():
        print("FAIL: coverage ledgers diverged between serial and parallel",
              file=sys.stderr)
        return 1
    print("determinism: ok (parallel campaign byte-identical to serial)")

    # -- baseline ------------------------------------------------------------
    digest_key = f"digest_{label}"
    if args.update_baseline:
        update_baseline(args.baseline, digest_key, serial.digest, {
            "seed": SEED,
            "budget_full": BUDGET_FULL,
            "budget_quick": BUDGET_QUICK,
            f"serial_cells_per_min_{label}": round(serial_rate, 1),
            f"parallel_cells_per_min_{label}": round(parallel_rate, 1),
            f"parallel_jobs_{label}": jobs,
        })
        return 0
    baseline = check_baseline(
        args.baseline, digest_key, serial.digest, "campaign digest",
        "generated schedules or cell behavior changed",
    )
    if baseline is None:
        return 1

    # -- throughput (wall-clock: advisory window, not a hard gate) -----------
    if args.quick:
        print("throughput: skipped (--quick checks determinism only)")
        return 0
    recorded = baseline.get(f"serial_cells_per_min_{label}")
    if recorded:
        ratio = serial_rate / float(recorded)
        verdict = "ok" if ratio >= 0.5 else "REGRESSION"
        print(f"throughput: {serial_rate:.1f} cells/min serial vs "
              f"{recorded} recorded ({ratio:.2f}x) -> {verdict}")
        if ratio < 0.5:
            print(f"FAIL: fuzz throughput fell below half the recorded "
                  f"baseline ({serial_rate:.1f} vs {recorded} cells/min)",
                  file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
