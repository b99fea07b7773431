#!/usr/bin/env python
"""Fuzz throughput guard: serial cells/minute against the recorded rate.

The chaos engine (``repro fuzz``) is only useful if a budget buys real
coverage: fuzzing that gets twice as slow halves what every CI budget
covers.  This guard runs the campaign recorded in ``BENCH_fuzz.json``
(budget 30, seed 7) serially and fails when its cells/minute fall below
``FLOOR`` (0.5x) of the recorded serial rate.  The campaign's digests,
serial and parallel, are pinned in ``tests/test_fuzz_engine.py``.

Run it as ``python benchmarks/bench_fuzz_throughput.py``; the recorded
rate changes only by an edit of ``BENCH_fuzz.json``.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "src"))

from repro.harness.fuzz import run_fuzz  # noqa: E402

BASELINE = os.path.join(HERE, "BENCH_fuzz.json")
#: A serial campaign fails below this share of the recorded rate.
FLOOR = 0.5


def main() -> int:
    with open(BASELINE) as handle:
        baseline = json.load(handle)
    budget = baseline["budget"]
    recorded = baseline["serial_cells_per_min"]
    start = time.perf_counter()
    run_fuzz(budget, seed=baseline["seed"], jobs=1)
    rate = 60.0 * budget / (time.perf_counter() - start)
    ratio = rate / recorded
    print(f"throughput: {rate:.1f} cells/min serial vs {recorded} recorded "
          f"({ratio:.2f}x, floor {FLOOR:g}x)")
    if ratio < FLOOR:
        print(f"FAIL: fuzz throughput fell below {FLOOR:g}x the recorded "
              f"rate", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
