"""Fresh-process launcher for the cold and traced passes of a CLI workload.

The timed passes of ``sweep_cli`` / ``fuzz_cli`` are plain
``python -m repro ...`` processes.  This launcher runs the same
``repro.cli.main(argv)`` with one of two things around it, and leaves the
CLI's stdout untouched so its digest can be compared with the timed passes:

``--counts PATH``
    registers a system observer (``repro.harness.runner.add_system_observer``,
    the hook the parallel supervisor uses) and, once a cell is over, reads the
    model-side counts off its ``System``: cycles, SpecVM instructions, events,
    counters.  Used for the cold pass, which is not timed.
``--profile PATH``
    runs the import and ``main`` under ``cProfile`` and dumps the stats.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import sys
from typing import Dict, List, Optional

from matrix_worker import dig, spec_totals


class CellCounts:
    """Collects one record per simulated system, holding one system at a time.

    The observer sees a system just before its kernel runs, so the counts of
    a cell are read when the next cell's system arrives (and, for the last,
    at :meth:`finish`).
    """

    def __init__(self) -> None:
        self.records: List[Dict[str, object]] = []
        self._pending: Optional[object] = None

    def observe(self, system: object) -> None:
        self.finish()
        self._pending = system

    def finish(self) -> None:
        system, self._pending = self._pending, None
        if system is None:
            return
        from repro.trace.phases import stall_breakdown

        lifecycle = dig(system, "manager.lifecycle")
        self.records.append({
            "cycles": dig(system, "clock.now"),
            "instructions": dig(system, "kernel.machine.instructions"),
            "events": dig(system, "engine.dispatched"),
            "counters": system.stats.snapshot(),
            "hint_lifecycle": lifecycle.summary_counts() if lifecycle else None,
            "stall": stall_breakdown(system.kernel).to_jsonable(),
            **spec_totals(system),
        })


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--counts", metavar="PATH")
    mode.add_argument("--profile", metavar="PATH")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER,
                        help="-- followed by the repro command line")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    def run() -> int:
        from repro.cli import main as repro_main

        return repro_main(cli_args)

    if args.profile:
        profiler = cProfile.Profile()
        try:
            return profiler.runcall(run)
        finally:
            profiler.dump_stats(args.profile)

    import repro
    from repro.harness.runner import add_system_observer

    counts = CellCounts()
    add_system_observer(counts.observe)
    code = run()
    counts.finish()
    with open(args.counts, "w", encoding="utf-8") as handle:
        json.dump({
            "package_dir": os.path.dirname(os.path.abspath(repro.__file__)),
            "cells": counts.records,
        }, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
