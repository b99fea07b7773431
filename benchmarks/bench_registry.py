#!/usr/bin/env python
"""Run-registry guard: recording and querying a sweep must be (nearly) free.

The persistent run registry (``--registry``) rides along on every sweep:
once the cells are done, the cell engine records every payload and
compacts the ledger.  Recording the cache sweep at scale 0.2 must cost
less than ``TOLERANCE_PCT`` (2%) of the uninstrumented sweep's wall time
— the ledger is bookkeeping, not a second workload — and the query side
(loading the fresh ledger and running the regression check over it) is
held to the same bound.  The ledger's bytes are pinned in
``tests/test_parallel_supervisor.py``.

``--iterations N`` keeps the minimum of N timed runs per leg (default 2).
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.harness.experiments import sweep_parallel_cells  # noqa: E402
from repro.harness.parallel import run_cells  # noqa: E402
from repro.registry.regression import check_all  # noqa: E402
from repro.registry.store import RunRegistry  # noqa: E402

SCALE = 0.2
TOLERANCE_PCT = 2.0
META = {"kind": "sweep-cell", "code_version": "bench-registry"}


def timed_sweep(cells, registry_path=None) -> float:
    start = time.perf_counter()
    run_cells(
        cells, jobs=1,
        registry_path=registry_path,
        registry_meta=META if registry_path else None,
    )
    return time.perf_counter() - start


def timed_queries(registry_path: str) -> float:
    start = time.perf_counter()
    check_all(RunRegistry.open(registry_path), min_baseline=1)
    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--iterations", type=int, default=2,
                        help="timing iterations per leg (min is kept)")
    args = parser.parse_args(argv)

    cells = sweep_parallel_cells("cache", workload_scale=SCALE)
    iterations = max(1, args.iterations)
    print(f"{len(cells)} cells at scale {SCALE:g}, "
          f"min of {iterations} iteration(s) per leg")

    plain_s = min(timed_sweep(cells) for _ in range(iterations))
    recorded_s = float("inf")
    query_s = float("inf")
    for _ in range(iterations):
        with tempfile.TemporaryDirectory() as tmp:
            registry_path = os.path.join(tmp, "registry.jsonl")
            recorded_s = min(recorded_s, timed_sweep(cells, registry_path))
            query_s = min(query_s, timed_queries(registry_path))

    write_pct = 100.0 * (recorded_s - plain_s) / plain_s
    query_pct = 100.0 * query_s / plain_s
    print(f"uninstrumented: {plain_s:7.2f} s")
    print(f"with registry:  {recorded_s:7.2f} s  "
          f"(write overhead {write_pct:+.2f}%)")
    print(f"queries:        {query_s:7.3f} s  ({query_pct:.2f}% of a sweep)")
    for what, pct in (("write", write_pct), ("query", query_pct)):
        if pct >= TOLERANCE_PCT:
            print(f"FAIL: registry {what} overhead {pct:.2f}% exceeds "
                  f"the {TOLERANCE_PCT:g}% bound", file=sys.stderr)
            return 1
    print(f"overhead guard: ok (write and query both <{TOLERANCE_PCT:g}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
