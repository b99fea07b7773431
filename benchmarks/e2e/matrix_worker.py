"""Fresh-process worker for the ``spec_matrix`` / ``plain_matrix`` workloads.

One invocation is one pass: it runs every ``app x variant`` cell once, in
this process, through ``repro.harness.runner.run_experiment_with_system``,
times only the cell loop, and prints one JSON line.  Passes are separate
processes because repeated in-process passes drift (0.40 s -> 2.18 s for
the four original cells, from sys-time page faults), so their timings are
not comparable.

The simulated configuration is the repository's default ``SystemConfig``.
The worker calls nothing in ``repro`` but ``run_experiment_with_system`` and
the ``ExperimentConfig`` / ``Variant`` constructors; the rest is attribute
reads.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import os
import resource
import sys
import time
from typing import Dict, List, Optional


def dig(obj: object, path: str) -> object:
    """``obj.a.b.c`` for ``path="a.b.c"``, or None once an attribute is gone."""
    for name in path.split("."):
        obj = getattr(obj, name, None)
        if obj is None:
            return None
    return obj


def spec_totals(system: object) -> Dict[str, int]:
    """COW regions copied and audit records, summed over the processes."""
    cow = audit = 0
    for process in dig(system, "kernel.processes") or ():
        cow += dig(process, "spec.cow.regions_copied_total") or 0
        audit += dig(process, "spec.auditor.table.records_total") or 0
    return {"cow_regions": cow, "audit_records": audit}


def _sha(data: bytes) -> str:
    # Not layers.sha256_hex: the measured process imports as little as it can.
    return hashlib.sha256(data).hexdigest()


def run_cells(cells: List["tuple[str, str]"]) -> List[Dict[str, object]]:
    from repro.harness.config import ExperimentConfig, Variant
    from repro.harness.runner import run_experiment_with_system

    records = []
    for app, variant in cells:
        start = time.perf_counter()
        result, system = run_experiment_with_system(
            ExperimentConfig(app=app, variant=Variant(variant)))
        seconds = time.perf_counter() - start
        records.append({
            "app": app,
            "variant": variant,
            "seconds": seconds,
            "cycles": result.cycles,
            "instructions": dig(system, "kernel.machine.instructions"),
            "events": dig(system, "engine.dispatched"),
            "output_sha": _sha(result.output),
            "read_trace_sha": _sha(repr(result.read_trace).encode()),
            "counters": result.counters,
            "hint_lifecycle": result.hint_lifecycle,
            "stall": result.stall_breakdown,
            **spec_totals(system),
        })
    return records


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--apps", required=True, help="comma-separated apps")
    parser.add_argument("--variants", required=True, help="comma-separated variants")
    parser.add_argument("--profile", metavar="PATH",
                        help="run the cell loop under cProfile and dump the stats")
    parser.add_argument("--setup-only", action="store_true",
                        help="exit once the imports are done (the set-up probe)")
    args = parser.parse_args(argv)

    import_start = time.perf_counter()
    import repro
    import repro.harness.runner  # noqa: F401 - the import block being timed
    from repro.harness import paper
    import_s = time.perf_counter() - import_start
    if args.setup_only:
        return 0

    cells = [(app, variant) for variant in args.variants.split(",")
             for app in args.apps.split(",")]

    profiler = cProfile.Profile() if args.profile else None
    loop_start = time.perf_counter()
    if profiler is not None:
        records = profiler.runcall(run_cells, cells)
    else:
        records = run_cells(cells)
    wall_s = time.perf_counter() - loop_start
    if profiler is not None:
        profiler.dump_stats(args.profile)

    json.dump({
        "wall_s": wall_s,
        "import_s": import_s,
        "ru_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "package_dir": os.path.dirname(os.path.abspath(repro.__file__)),
        "fig3_paper": getattr(paper, "FIG3_IMPROVEMENT", None),
        "cells": records,
    }, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
