#!/usr/bin/env python
"""Run-registry guard: recording must be (nearly) free, and byte-stable.

The persistent run registry (``--registry``) rides along on every sweep:
workers append sidecar records, the parent merges and compacts.  Its
contract has two halves, and this guard makes both a CI failure instead
of a slow drift:

1. **Overhead.**  Recording a sweep into the registry must cost less
   than ``TOLERANCE_PCT`` (2%) of the uninstrumented sweep's wall time —
   the ledger is bookkeeping, not a second workload.  The query side
   (regression check + similarity search + listing over the freshly
   written ledger) is held to the same bound.
2. **Determinism.**  The compacted registry file is content-addressed
   and sorted, so its bytes are machine-independent; the committed
   sha256 in ``BENCH_registry.json`` pins them.  Any change means run
   identity (fingerprints, record schema) moved — update the baseline
   only for an intentional schema/identity change.

``--quick`` runs a 3-cell grid once and checks determinism only (the
overhead ratio is reported but not enforced — too noisy at that size);
``--update-baseline`` records the current digest.
"""

from __future__ import annotations

import argparse
import hashlib
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
    update_baseline,
)

from repro.harness.experiments import sweep_parallel_cells  # noqa: E402
from repro.harness.parallel import run_cells  # noqa: E402

SCALE = 0.2
TOLERANCE_PCT = 2.0
META = {"kind": "sweep-cell", "code_version": "bench-registry"}


def grid(quick: bool):
    cells = sweep_parallel_cells("cache", workload_scale=SCALE)
    return cells[:3] if quick else cells


def timed_sweep(cells, registry_path=None) -> float:
    start = time.perf_counter()
    run_cells(
        cells, jobs=1,
        registry_path=registry_path,
        registry_meta=META if registry_path else None,
    )
    return time.perf_counter() - start


def timed_queries(registry_path: str) -> float:
    from repro.registry.regression import check_all
    from repro.registry.similarity import similar_runs
    from repro.registry.store import RunRegistry

    start = time.perf_counter()
    registry = RunRegistry.open(registry_path)
    records = registry.records()
    check_all(registry, min_baseline=1)
    similar_runs(registry, records[0])
    return time.perf_counter() - start


def file_digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="3-cell grid, one iteration, determinism only")
    parser.add_argument("--iterations", type=int, default=2,
                        help="timing iterations per leg (min is kept)")
    add_baseline_arguments(parser, "BENCH_registry.json",
                           "record the current registry digest")
    args = parser.parse_args(argv)

    cells = grid(args.quick)
    label = "quick" if args.quick else "full"
    iterations = 1 if args.quick else max(1, args.iterations)
    print(f"{label} grid: {len(cells)} cells at scale {SCALE:g}, "
          f"min of {iterations} iteration(s) per leg")

    plain_s = min(timed_sweep(cells) for _ in range(iterations))

    recorded_s = float("inf")
    query_s = float("inf")
    digest = None
    for _ in range(iterations):
        with tempfile.TemporaryDirectory() as tmp:
            registry_path = os.path.join(tmp, "registry.jsonl")
            recorded_s = min(recorded_s, timed_sweep(cells, registry_path))
            query_s = min(query_s, timed_queries(registry_path))
            current = file_digest(registry_path)
        if digest is not None and current != digest:
            print("FAIL: registry bytes differ between identical sweeps",
                  file=sys.stderr)
            return 1
        digest = current

    write_pct = 100.0 * (recorded_s - plain_s) / plain_s
    query_pct = 100.0 * query_s / plain_s
    print(f"uninstrumented: {plain_s:7.2f} s")
    print(f"with registry:  {recorded_s:7.2f} s  "
          f"(write overhead {write_pct:+.2f}%)")
    print(f"queries:        {query_s:7.3f} s  ({query_pct:.2f}% of a sweep)")
    print(f"registry digest {digest[:16]}…")

    if args.quick:
        print(f"overhead guard: skipped (--quick; bound is "
              f"<{TOLERANCE_PCT:g}% in the full run)")
    else:
        for what, pct in (("write", write_pct), ("query", query_pct)):
            if pct >= TOLERANCE_PCT:
                print(f"FAIL: registry {what} overhead {pct:.2f}% exceeds "
                      f"the {TOLERANCE_PCT:g}% bound", file=sys.stderr)
                return 1
        print(f"overhead guard: ok (write and query both "
              f"<{TOLERANCE_PCT:g}%)")

    digest_key = f"registry_digest_{label}"
    if args.update_baseline:
        update_baseline(args.baseline, digest_key, digest, {
            "workload": f"cache sweep cells, scale={SCALE:g}, serial",
            "cells_full": len(grid(False)),
            "cells_quick": len(grid(True)),
            "tolerance_pct": TOLERANCE_PCT,
        })
        return 0
    if check_baseline(args.baseline, digest_key, digest, "registry digest",
                      "record identity or schema changed") is None:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
