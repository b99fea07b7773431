"""End-to-end host-time benchmark of the SpecHint reproduction.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                  [--trace 0|1] [--out FILE] [--list]

Runs the workloads named in the repository's ``BENCHMARK.json``, prints every
metric by name with its unit, checks that the simulator's outputs are correct
and ends with one JSON line ``{"correct", "attempted", "failed", "metrics"}``
per workload.  ``--trace 0`` measures the end-to-end metrics with tracing off,
``--trace 1`` takes the per-layer metrics from one pass under ``cProfile``;
without ``--trace`` both are done.  README.md in this directory explains the
workloads, the metrics and how to read them.

Every pass is a fresh interpreter launched from this single-threaded parent,
one at a time.  The simulated work is pinned (default ``SystemConfig``, fixed
sweep and fuzz campaign), so the simulated metrics repeat exactly; ``--seed``
is the interpreters' ``PYTHONHASHSEED``, which the simulator's results must
not depend on.  Host times are divided by the host's slowdown around each
pass (see ``hostspeed.py``).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import pstats
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import hostspeed
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_e2e"

APPS = ("agrep", "gnuld", "xds", "postgres20")
VARIANTS = ("original", "speculating", "manual")
FUZZ_BUDGET = 20
SETUP_LAUNCHES = 9
#: Untraced passes of a ``--trace 1`` run: the base of ``trace_overhead_x``,
#: ``host_us_per_instr`` and the per-cell medians.
TRACE_UNTRACED_PASSES = 3
JOBS2_LAUNCHES = 3
PASS_TIMEOUT_S = 120
PROBE_TIMEOUT_S = 60

_MATRIX_ONLY_ABSENT = ("phase.checkpoint_s", "phase.registry_s")


@dataclasses.dataclass(frozen=True)
class Workload:
    kind: str  # "matrix" | "cli"
    #: Simulated systems per pass (the unit of ``cells_per_s``).
    cells: int
    #: matrix: variants of the timed passes, and of the cold pass, which on
    #: ``spec_matrix`` adds the original cells as the correctness reference.
    variants: Tuple[str, ...] = ()
    cold_variants: Tuple[str, ...] = ()
    #: matrix: the column compared with the paper's Figure 3.
    fig3_variant: str = ""
    #: cli: the ``repro`` command line, its checkpoint and registry files, and
    #: the systems simulated per progress line.
    argv: Tuple[str, ...] = ()
    artifacts: Tuple[str, str] = ("", "")
    cells_per_line: int = 1
    #: Phases this workload cannot enter (read 0 s, not ``probe_missing``).
    never_entered: Tuple[str, ...] = ()


WORKLOADS: Dict[str, Workload] = {
    "spec_matrix": Workload(
        kind="matrix", cells=4, variants=("speculating",),
        cold_variants=("original", "speculating"), fig3_variant="speculating",
        never_entered=_MATRIX_ONLY_ABSENT,
    ),
    "plain_matrix": Workload(
        kind="matrix", cells=8, variants=("original", "manual"),
        cold_variants=("original", "manual"), fig3_variant="manual",
        never_entered=_MATRIX_ONLY_ABSENT + ("phase.transform_s",),
    ),
    "sweep_cli": Workload(
        kind="cli", cells=27, artifacts=("ck.json", "reg.jsonl"),
        argv=("sweep", "cache", "--scale", "0.2",
              "--checkpoint", "ck.json", "--registry", "reg.jsonl"),
    ),
    "fuzz_cli": Workload(
        kind="cli", cells=2 * FUZZ_BUDGET, cells_per_line=2, artifacts=("c.json", "r.jsonl"),
        argv=("fuzz", "--budget", str(FUZZ_BUDGET), "--seed", "1999",
              "--apps", "agrep,gnuld", "--checkpoint", "c.json",
              "--registry", "r.jsonl", "--failures-dir", "f"),
    ),
}
_FIG3_COLUMN = {"speculating": 0, "manual": 1}
_RAN_LINE = re.compile(rb"^\s+\[ran    \] ", re.M)


# ------------------------------------------------------------------ launching

def child_env(seed: int) -> Dict[str, str]:
    """One hash seed for every pass of a run: call counts then repeat exactly."""
    return {"PYTHONHASHSEED": str(seed % 2**32), "PYTHONPATH": str(SRC),
            "PATH": os.environ.get("PATH", "")}


class _Timeout(Exception):
    pass


def _on_alarm(_signum: int, _frame: object) -> None:
    raise _Timeout


@dataclasses.dataclass
class Launch:
    exit_code: Optional[int]  # None: killed at its timeout
    #: Host slowdown around the launch; ``wall_s`` and ``cpu_s`` are already
    #: divided by it, ``raw_wall_s`` is what the clock read.
    slowdown: float
    wall_s: float
    cpu_s: float
    raw_wall_s: float
    rss_mb: float
    stdout: bytes
    #: Seconds from launch to the arrival of each stdout line (scaled too).
    line_s: List[float]


class Host:
    """Launches child interpreters one at a time, timing the reference load
    between them: the slowdown of a launch is the mean of the samples on
    either side of it."""

    def __init__(self, env: Mapping[str, str]) -> None:
        self.env = env
        self._reference_s = hostspeed.measure()

    def launch(self, args: Sequence[str], cwd: Path, timeout: int = PASS_TIMEOUT_S) -> Launch:
        """Run ``python <args>`` to its end and report the child's own rusage."""
        start = time.perf_counter()
        # Its own process group, so a timeout also stops what it spawned.
        proc = subprocess.Popen([sys.executable, *args], cwd=cwd, env=self.env,
                                stdout=subprocess.PIPE, start_new_session=True)
        assert proc.stdout is not None
        lines: List[bytes] = []
        stamps: List[float] = []
        timed_out = False
        signal.alarm(timeout)
        try:
            for line in proc.stdout:
                lines.append(line)
                stamps.append(time.perf_counter())
            _pid, status, usage = os.wait4(proc.pid, 0)
        except _Timeout:
            timed_out = True
            os.killpg(proc.pid, signal.SIGKILL)
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
            proc.stdout.close()
        raw_wall_s = time.perf_counter() - start
        # The child was reaped here, not by Popen: tell it so it does not wait.
        proc.returncode = os.waitstatus_to_exitcode(status)

        before, self._reference_s = self._reference_s, hostspeed.measure()
        slowdown = (before + self._reference_s) / 2 / hostspeed.NOMINAL_S
        return Launch(
            exit_code=None if timed_out else proc.returncode,
            slowdown=slowdown,
            wall_s=raw_wall_s / slowdown,
            cpu_s=(usage.ru_utime + usage.ru_stime) / slowdown,
            raw_wall_s=raw_wall_s,
            rss_mb=usage.ru_maxrss / 1024.0,
            stdout=b"".join(lines),
            line_s=[(stamp - start) / slowdown for stamp in stamps],
        )


def fresh_dir(parent: Path, name: str) -> Path:
    path = parent / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# --------------------------------------------------------------------- passes

class Runner:
    """Runs one workload's passes; every pass gets an empty directory.

    A pass record carries what ``layers.count_failures`` reads (``kind``,
    ``exit_code``, ``digest``, ``cells_expected``, ``cells`` / ``cells_ok``)
    and the pass's host times, already divided by its ``slowdown``.
    """

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.workload = WORKLOADS[name]
        self.host = Host(child_env(seed))
        self.scratch = fresh_dir(SCRATCH, f"{name}-{os.getpid()}")
        self._passes = 0

    def new_dir(self) -> Path:
        self._passes += 1
        return fresh_dir(self.scratch, f"pass-{self._passes}")

    def timed_cells(self, cells: Sequence[Mapping[str, object]]) -> list:
        """The cells the timed passes run (the cold pass may run more)."""
        if self.workload.kind == "cli":
            return list(cells)
        return [cell for cell in cells if cell["variant"] in self.workload.variants]

    def _matrix_args(self, variants: Sequence[str]) -> List[str]:
        return [str(HERE / "matrix_worker.py"), "--apps", ",".join(APPS),
                "--variants", ",".join(variants)]

    def _matrix(self, variants: Sequence[str], profile: Optional[Path] = None) -> dict:
        args = self._matrix_args(variants)
        if profile is not None:
            args += ["--profile", str(profile)]
        run = self.host.launch(args, self.new_dir())
        record = {"kind": "matrix", "exit_code": run.exit_code,
                  "cells_expected": len(variants) * len(APPS), "cells": [], "digest": None,
                  "slowdown": run.slowdown, "launch_wall_s": run.wall_s,
                  "cpu_s": run.cpu_s, "peak_rss_mb": run.rss_mb}
        if run.exit_code == 0:
            report = json.loads(run.stdout.splitlines()[-1])
            for cell in report["cells"]:
                cell["seconds"] /= run.slowdown
            record.update(report, wall_s=report["wall_s"] / run.slowdown,
                          raw_wall_s=report["wall_s"],
                          digest=layers.sim_digest(self.timed_cells(report["cells"])))
        return record

    def _cli(self, worker: Sequence[str] = (), unbuffered: bool = False) -> dict:
        """One CLI pass: plain ``python -m repro`` or through ``cli_worker.py``."""
        if worker:
            args = [str(HERE / "cli_worker.py"), *worker, "--", *self.workload.argv]
        else:
            args = ["-m", "repro", *self.workload.argv]
        if unbuffered:
            args.insert(0, "-u")
        cwd = self.new_dir()
        run = self.host.launch(args, cwd)
        ran = len(_RAN_LINE.findall(run.stdout))
        return {"kind": "cli", "exit_code": run.exit_code,
                "cells_expected": self.workload.cells,
                "cells_ok": ran * self.workload.cells_per_line,
                "digest": layers.sha256_hex(run.stdout), "cwd": cwd, "line_s": run.line_s,
                "slowdown": run.slowdown, "wall_s": run.wall_s, "launch_wall_s": run.wall_s,
                "raw_wall_s": run.raw_wall_s, "cpu_s": run.cpu_s, "peak_rss_mb": run.rss_mb}

    def cold(self) -> dict:
        """Pass 0: cold and untimed; the reference for every later pass."""
        if self.workload.kind == "matrix":
            return self._matrix(self.workload.cold_variants)
        record = self._cli(worker=("--counts", "counts.json"))
        if record["exit_code"] == 0:
            record.update(json.loads((record["cwd"] / "counts.json").read_text()))
        return record

    def untraced(self, unbuffered: bool = False) -> dict:
        if self.workload.kind == "matrix":
            return self._matrix(self.workload.variants)
        return self._cli(unbuffered=unbuffered)

    def traced(self) -> Tuple[dict, Path]:
        profile = self.scratch / "profile.pstats"
        if self.workload.kind == "matrix":
            return self._matrix(self.workload.variants, profile=profile), profile
        return self._cli(worker=("--profile", str(profile))), profile

    def setup_probe(self) -> float:
        """One fresh launch of the pass's entry point up to "imports done"."""
        if self.workload.kind == "matrix":
            args = self._matrix_args(self.workload.variants) + ["--setup-only"]
        else:
            args = ["-c", "import repro.cli"]
        run = self.host.launch(args, self.scratch, timeout=PROBE_TIMEOUT_S)
        if run.exit_code != 0:
            raise SystemExit(f"{self.name}: set-up probe failed (exit {run.exit_code})")
        return run.wall_s

    def probe(self, args: Sequence[str], cwd: Path, ok: Tuple[int, ...] = (0,)) -> Optional[float]:
        """Seconds of a side probe, or None when it timed out or failed."""
        run = self.host.launch(["-m", "repro", *args], cwd, timeout=PROBE_TIMEOUT_S)
        return run.wall_s if run.exit_code in ok else None


def completed(name: str, passes: Sequence[dict]) -> List[dict]:
    """The passes that ran to the end; the others count as failed operations."""
    good = [p for p in passes if p["exit_code"] == 0]
    if not good:
        raise SystemExit(f"{name}: no pass completed, nothing to measure")
    return good


def originals_of(cold: dict) -> Dict[str, dict]:
    return {c["app"]: c for c in cold.get("cells", ()) if c.get("variant") == "original"}


# -------------------------------------------------------------------- metrics

def end_to_end(runner: Runner, cold: dict, timed: Sequence[dict],
               setup: Sequence[float]) -> Tuple[Dict[str, float], Dict[str, dict]]:
    """The end-to-end metrics (medians over the timed passes) and their spread."""
    cells = runner.timed_cells(cold["cells"])
    samples = {key: [p[key] for p in timed]
               for key in ("wall_s", "cpu_s", "peak_rss_mb", "raw_wall_s", "slowdown")}
    samples["setup_s"] = list(setup)
    detail = {key: dict(layers.summarize(values), samples=values)
              for key, values in samples.items()}
    wall_s = detail["wall_s"]["median"]
    metrics = {
        "wall_s": wall_s,
        "cpu_s": detail["cpu_s"]["median"],
        "cells_per_s": runner.workload.cells / wall_s,
        "sim_kinstr_per_s": sum(c["instructions"] for c in cells) / wall_s / 1e3,
        "peak_rss_mb": detail["peak_rss_mb"]["median"],
        "setup_s": detail["setup_s"]["median"],
        "sim_mcycles": sum(c["cycles"] for c in cells) / 1e6,
    }
    return metrics, detail


def per_layer(runner: Runner, cold: dict, untraced: Sequence[dict], traced: dict,
              profile: Path) -> Tuple[Dict[str, Optional[float]], List[str]]:
    """The per-layer metrics of one traced pass, and the ``probe_missing`` notes."""
    workload = runner.workload
    stats = pstats.Stats(str(profile))
    package_dir = cold["package_dir"]
    metrics: Dict[str, Optional[float]] = {}
    for layer, row in layers.fold_layers(stats.stats, package_dir).items():
        for family, value in row.items():
            metrics[f"{layer}.{family}"] = value
    phases, missing = layers.fold_phases(stats.stats, package_dir, workload.never_entered)
    metrics.update(phases)
    metrics["trace.total_s"] = stats.total_tt
    for name, value in metrics.items():
        if name.endswith("_s") and value is not None:
            metrics[name] = value / traced["slowdown"]
    metrics["python.calls_total"] = stats.total_calls

    counts = layers.model_counts(runner.timed_cells(cold["cells"]))
    metrics.update(counts)
    wall_s = statistics.median(p["wall_s"] for p in untraced)
    metrics["host_us_per_instr"] = 1e6 * wall_s / counts["vm.instructions"]
    metrics["host_us_per_sim_event"] = 1e6 * wall_s / counts["sim.events"]
    metrics["trace_overhead_x"] = traced["wall_s"] / wall_s
    metrics["harness.cold_pass_s"] = cold["launch_wall_s"]

    fig3 = None
    if workload.kind == "matrix" and cold.get("fig3_paper"):
        column = _FIG3_COLUMN[workload.fig3_variant]
        paper = {app: pair[column] for app, pair in cold["fig3_paper"].items()}
        fig3 = layers.fig3_error_pp(cold["cells"], originals_of(cold),
                                    workload.fig3_variant, paper)
    metrics["fig3_err_pp"] = fig3
    for app in APPS:
        for variant in VARIANTS:
            seconds = [c["seconds"] for p in untraced for c in p.get("cells", ())
                       if (c["app"], c["variant"]) == (app, variant)]
            metrics[f"cell.{app}.{variant}.s"] = statistics.median(seconds) if seconds else None
    metrics.update(side_probes(runner, untraced, wall_s))
    return metrics, missing


def side_probes(runner: Runner, untraced: Sequence[dict],
                wall_s: float) -> Dict[str, Optional[float]]:
    """Probes outside the timed passes; one that times out reads ``None``."""
    name, workload = runner.name, runner.workload
    out: Dict[str, Optional[float]] = dict.fromkeys((
        "harness.jobs2_wall_s", "harness.jobs2_speedup", "harness.checkpoint_bytes",
        "registry.bytes", "registry.list_s", "registry.regressions_s",
        "fuzz.case_p50_s", "fuzz.case_max_s", "faults.storm_case_s"))
    if workload.kind == "cli":
        last = untraced[-1]["cwd"]
        checkpoint, registry = workload.artifacts
        out["harness.checkpoint_bytes"] = (last / checkpoint).stat().st_size
        out["registry.bytes"] = (last / registry).stat().st_size
        out["registry.list_s"] = runner.probe(["runs", "list", "--registry", registry], last)
        # Exit 1 means "regressions found", which is still a timed answer.
        out["registry.regressions_s"] = runner.probe(
            ["runs", "regressions", "--registry", registry], last, ok=(0, 1))
    if name == "sweep_cli":
        walls = [runner.probe([*workload.argv, "--jobs", "2"], runner.new_dir())
                 for _ in range(JOBS2_LAUNCHES)]
        if None not in walls:
            out["harness.jobs2_wall_s"] = statistics.median(walls)
            out["harness.jobs2_speedup"] = wall_s / out["harness.jobs2_wall_s"]
    if name == "fuzz_cli":
        # Inter-arrival of the per-case progress lines (passes ran unbuffered).
        gaps = [[b - a for a, b in zip([0.0, *p["line_s"]], p["line_s"][:FUZZ_BUDGET])]
                for p in untraced]
        out["fuzz.case_p50_s"] = statistics.median(statistics.median(g) for g in gaps)
        out["fuzz.case_max_s"] = statistics.median(max(g) for g in gaps)
        out["faults.storm_case_s"] = runner.probe(
            ["fuzz", "replay", str(HERE / "cases" / "double_fault_storm.json")], runner.scratch)
    return out


def self_check(name: str, metrics: Dict[str, Optional[float]]) -> List[str]:
    """What the per-layer numbers must satisfy to be believed."""
    problems = []
    total = metrics["trace.total_s"]  # not in BENCHMARK.json, so never printed
    self_sum = sum(metrics[f"{layer}.self_s"] for layer in layers.LAYERS)
    if abs(self_sum - total) > 0.01 * total:
        problems.append(f"layer self times sum to {self_sum:.4f} s, traced total {total:.4f} s")
    if name == "plain_matrix":
        entered = [layer for layer in layers.LAYERS
                   if layer.startswith("spechint.") and metrics[f"{layer}.calls"]]
        if entered:
            problems.append(f"plain_matrix entered {', '.join(entered)}")
    return problems


# ------------------------------------------------------------------ reporting

def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def print_list(spec: dict) -> None:
    print("command:", " ".join(spec["command"]), f"(run_seconds {spec['run_seconds']})")
    print("workloads:")
    for w in spec["workloads"]:
        print(f"  {w['name']:14s} {w['why']}")
    print("end_to_end:")
    for m in spec["end_to_end"]:
        print(f"  {m['name']:32s} {m['unit']:10s} better={m['better']:6s} bound={m['bound']}")
    print("per_layer:")
    for m in spec["per_layer"]:
        print(f"  {m['name']:32s} {m['unit']:10s} better={m['better']}")


def print_metrics(title: str, declared: Sequence[dict], values: Mapping[str, Optional[float]],
                  detail: Mapping[str, dict]) -> None:
    print(f"-- {title}")
    for metric in declared:
        name = metric["name"]
        value = values.get(name)
        shown = "n/a" if value is None else f"{value:.6g}"
        spread = detail.get(name)
        extra = ""
        if spread is not None:
            extra = f"   q1 {spread['q1']:.4g}  q3 {spread['q3']:.4g}  n {spread['n']}"
        print(f"  {name:32s} {shown:>12s} {metric['unit']}{extra}")


def run_workload(name: str, seed: int, seconds: float, trace: Optional[int],
                 spec: dict) -> Tuple[dict, dict]:
    """Run one workload; returns (contract result line, full record)."""
    runner = Runner(name, seed)
    want_e2e, want_layers = trace in (None, 0), trace in (None, 1)
    metrics: Dict[str, Optional[float]] = {}
    detail: Dict[str, dict] = {}
    notes: List[str] = []
    problems: List[str] = []
    timed: List[dict] = []
    try:
        cold = runner.cold()
        if cold["exit_code"] != 0:
            raise SystemExit(f"{name}: cold pass failed (exit {cold['exit_code']})")
        passes = [cold]
        if want_e2e:
            setup = [runner.setup_probe() for _ in range(SETUP_LAUNCHES)]
            deadline = time.perf_counter() + seconds
            while time.perf_counter() < deadline or len(timed) < 3:
                timed.append(runner.untraced())
            passes += timed
            e2e, detail = end_to_end(runner, cold, completed(name, timed), setup)
            metrics.update(e2e)
        if want_layers:
            # Unbuffered, so the arrival of each progress line can be timed.
            untraced = [runner.untraced(unbuffered=True) for _ in range(TRACE_UNTRACED_PASSES)]
            traced, profile = runner.traced()
            passes += [*untraced, traced]
            layer_metrics, missing = per_layer(
                runner, cold, completed(name, untraced), completed(name, [traced])[0], profile)
            notes += [f"probe_missing: {m}" for m in missing]
            problems += self_check(name, layer_metrics)
            metrics.update(layer_metrics)
        attempted, failed = layers.count_failures(passes, cold["digest"], originals_of(cold))
    finally:
        shutil.rmtree(runner.scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()  # unless another run is using it

    declared = (spec["end_to_end"] if want_e2e else []) + (spec["per_layer"] if want_layers else [])
    problems += [f"metric {m['name']} was not emitted" for m in declared
                 if m["name"] not in metrics]
    print(f"== {name}  (seed {seed}, {len(timed)} timed passes, "
          f"sim_digest {cold['digest'][:16]})")
    if want_e2e:
        print_metrics("end to end (tracing off; host times / slowdown)",
                      spec["end_to_end"], metrics, detail)
        print(f"  host slowdown {detail['slowdown']['median']:.3f} x nominal, "
              f"unscaled wall {detail['raw_wall_s']['median']:.4g} s")
    if want_layers:
        print_metrics("per layer (one pass under cProfile)", spec["per_layer"], metrics, {})
    for line in notes + [f"self-check FAILED: {p}" for p in problems]:
        print(f"  {line}")
    print(f"  operations: {attempted} attempted, {failed} failed "
          f"(failed_share {failed / attempted:.4f})")

    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        # A metric that does not apply to this workload reads 0 here and null
        # in the --out file (README.md lists which, and why).
        "metrics": {m["name"]: {"value": metrics.get(m["name"]) or 0, "unit": m["unit"]}
                    for m in declared},
    }
    record = {
        "seed": seed, "sim_digest": cold["digest"],
        "timed_passes": len(timed), "attempted": attempted, "failed": failed,
        "failed_share": failed / attempted,
        "metrics": {m["name"]: metrics.get(m["name"]) for m in declared},
        "spread": detail, "notes": notes, "self_check": problems,
    }
    return result, record


def build_parser(names: Sequence[str], run_seconds: float) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="default: every workload in turn")
    parser.add_argument("--seed", type=int, default=1999)
    parser.add_argument("--seconds", type=float, default=run_seconds,
                        help="how long the timed passes of one workload run")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end only, 1: per-layer only; default: both")
    parser.add_argument("--out", metavar="FILE", help="write the full results as JSON")
    parser.add_argument("--list", action="store_true",
                        help="print the workload and metric names of BENCHMARK.json")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    args = build_parser(names, spec["run_seconds"]).parse_args(argv)
    if args.list:
        print_list(spec)
        return 0
    if not (SRC / "repro").is_dir():
        print(f"run.py: no simulator to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _on_alarm)
    results, records = [], {}
    for name in ([args.workload] if args.workload else names):
        result, records[name] = run_workload(name, args.seed, args.seconds, args.trace, spec)
        results.append(result)
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"seconds": args.seconds, "trace": args.trace, "workloads": records},
            indent=1, sort_keys=True) + "\n")
    for result in results:
        print(json.dumps(result))
    return 0 if all(result["correct"] for result in results) else 1


if __name__ == "__main__":
    sys.exit(main())
