#!/usr/bin/env python
"""Trace-overhead guard: instrumentation must stay (nearly) free.

The observability layer's contract is that a simulation built with
tracing support but *disabled* (the ``NULL_TRACER`` path — what every
benchmark and test runs) pays only one boolean test per instrumentation
site.  This guard makes that contract a CI failure instead of a slow
drift:

1. **Calibration.**  Machines differ, so raw wall time is meaningless
   across CI runners.  A fixed pure-Python spin loop is timed first and
   the workload's wall time is expressed as a multiple of it.  The
   normalized figure is stable across hardware to within a few percent.
2. **Workload.**  One deterministic benchmark run (agrep, speculating,
   full scale) with tracing disabled, best-of-N to shed scheduler noise.
3. **Verdict.**  The normalized time is compared against the recorded
   baseline in ``trace_overhead_baseline.json``; a regression beyond the
   tolerance (default 5%) exits non-zero.

The guard also smoke-tests the Chrome exporter: a traced run must produce
a ``trace_event`` JSON file Perfetto can load (every non-metadata event
carries name/ph/ts/pid/tid), and the traced run must be cycle-identical
to the untraced one.

Run ``--update-baseline`` after intentional changes to the simulator's
workload cost (new features legitimately make the simulation do more
work; the baseline records the new normal).
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

from repro.harness.config import ExperimentConfig, Variant  # noqa: E402
from repro.harness.runner import run_experiment  # noqa: E402
from repro.sim.clock import SimClock  # noqa: E402
from repro.trace.export import export_to_path  # noqa: E402
from repro.trace.tracer import Tracer  # noqa: E402

BASELINE_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "trace_overhead_baseline.json"
)

#: Iterations of the calibration spin loop (~0.5 s of pure Python).
CALIBRATION_ITERS = 4_000_000


def _workload_config() -> ExperimentConfig:
    return ExperimentConfig(
        app="agrep", workload_scale=1.0, variant=Variant.SPECULATING
    )


def calibrate(rounds: int = 5) -> float:
    """Best-of-``rounds`` wall time of the fixed spin loop, in seconds."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        acc = 0
        for i in range(CALIBRATION_ITERS):
            acc += i & 7
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    assert acc >= 0  # keep the loop un-elidable
    return best


def time_workload(rounds: int = 5) -> "tuple[float, int]":
    """Best-of-``rounds`` wall time of the untraced run; returns
    (seconds, simulated cycles)."""
    best = float("inf")
    cycles = 0
    for _ in range(rounds):
        start = time.perf_counter()
        result = run_experiment(_workload_config())
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
        cycles = result.cycles
    return best, cycles


def chrome_export_smoke(expected_cycles: int) -> None:
    """Traced run: cycle-identical to untraced, valid Chrome export."""
    tracer = Tracer(SimClock())
    result = run_experiment(_workload_config(), tracer=tracer)
    if result.cycles != expected_cycles:
        raise SystemExit(
            f"FAIL: traced run took {result.cycles} cycles, untraced "
            f"{expected_cycles} — tracing perturbed the simulation"
        )
    if len(tracer) == 0:
        raise SystemExit("FAIL: traced run recorded no events")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.json")
        export_to_path(tracer, path, "chrome")
        with open(path) as handle:
            data = json.load(handle)
    events = data.get("traceEvents")
    if not events:
        raise SystemExit("FAIL: Chrome export has no traceEvents")
    required = {"name", "ph", "ts", "pid", "tid"}
    for event in events:
        keys = required if event["ph"] != "M" else {"name", "ph", "pid", "tid"}
        missing = keys - set(event)
        if missing:
            raise SystemExit(f"FAIL: event {event} missing {sorted(missing)}")
    print(f"chrome export smoke: ok ({len(events)} events, "
          f"cycle-identical at {expected_cycles:,} cycles)")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update-baseline", action="store_true",
                        help="record the current machine-normalized time "
                             "as the new baseline")
    parser.add_argument("--tolerance", type=float, default=0.05,
                        help="allowed fractional regression (default 0.05)")
    parser.add_argument("--baseline", default=BASELINE_PATH,
                        help="baseline JSON path")
    args = parser.parse_args(argv)

    calibration = calibrate()
    wall, cycles = time_workload()
    normalized = wall / calibration
    print(f"calibration loop:  {calibration:.3f} s")
    print(f"untraced workload: {wall:.3f} s wall, {cycles:,} simulated cycles")
    print(f"normalized time:   {normalized:.3f} (workload / calibration)")

    chrome_export_smoke(cycles)

    if args.update_baseline:
        with open(args.baseline, "w") as handle:
            json.dump(
                {
                    "workload": "agrep speculating scale=1.0",
                    "normalized_time": round(normalized, 4),
                    "simulated_cycles": cycles,
                    "calibration_iters": CALIBRATION_ITERS,
                },
                handle, indent=2, sort_keys=True,
            )
            handle.write("\n")
        print(f"baseline updated: {args.baseline}")
        return 0

    try:
        with open(args.baseline) as handle:
            baseline = json.load(handle)
    except FileNotFoundError:
        print(f"FAIL: no baseline at {args.baseline}; run with "
              f"--update-baseline first", file=sys.stderr)
        return 1

    if cycles != baseline["simulated_cycles"]:
        # Simulated work changed (a feature PR): flag it, don't fail on
        # wall time derived from a different workload.
        print(f"NOTE: simulated cycles changed "
              f"{baseline['simulated_cycles']:,} -> {cycles:,}; "
              f"baseline needs --update-baseline", file=sys.stderr)

    limit = baseline["normalized_time"] * (1.0 + args.tolerance)
    verdict = "ok" if normalized <= limit else "REGRESSION"
    print(f"baseline:          {baseline['normalized_time']:.3f} "
          f"(limit {limit:.3f}, +{args.tolerance * 100:.0f}%) -> {verdict}")
    if normalized > limit:
        print(f"FAIL: trace-overhead regression: normalized {normalized:.3f} "
              f"exceeds {limit:.3f}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
