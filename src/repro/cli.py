"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``run APP [--variant V] [--disks N] [--cache-mb MB] [--scale S] [--ncpus N]``
    Run one benchmark and print its result record.

``compare APP ...``
    Run all three variants of one or more apps and print a Figure 3-style
    comparison.

``transform APP``
    Run the SpecHint tool over a benchmark binary and print the Table 3
    statistics.

``analyze APP [--json] [--lint] [--security]``
    Run the static-analysis pipeline (CFG, abstract interpretation) over
    a benchmark binary and print the transfer classification,
    speculation reachability and per-function syscall report; ``--lint``
    exits non-zero on error findings.
    ``--security`` runs the speculation-security taint lint instead:
    it proves (or refutes, with a witness def-use chain) that no
    secret-marked data region can flow into the operands of a disclosed
    I/O hint; with ``--lint`` any leak exits non-zero.

``sweep {disks,cache,ratio,degraded}``
    Regenerate one of the paper's sweep experiments (Figure 5 / Table 7 /
    Figure 6) and print the series; ``degraded`` sweeps the storage fault
    regime (healthy vs. disk-death vs. rebuild-storm) instead.

``trace APP [--categories C,...] [--export {jsonl,chrome}] [--out PATH]
[--summary]``
    Run one benchmark under the event tracer and export / summarize the
    trace: stall breakdown, hint lead times, prefetch readiness, per-disk
    utilization.  ``--export chrome`` writes a Chrome ``trace_event``
    file that loads directly into Perfetto (https://ui.perfetto.dev).

``fuzz [--budget N] [--seed S] [--jobs N] [--apps A,B] [--scale S]
[--coverage-report PATH] [--failures-dir DIR]``
    Chaos fuzzing: generate ``--budget`` randomized fault schedules,
    run each as a spec-off/spec-on cell under the invariant monitors,
    print the fault-space coverage ledger, and shrink the first
    ``SHRINK_LIMIT`` failing cells to minimal reproducer JSONs in
    ``--failures-dir``.

``fuzz replay FILE``
    Re-run one reproducer JSON (e.g. from ``tests/corpus/``) under the
    monitors; exits non-zero while the recorded violation still trips.

``runs {list,regressions} --registry PATH``
    Query the persistent run registry: list the recorded runs, and flag
    performance regressions against each run's matched baseline
    population (exit 1 on drift).  Recording happens via ``--registry
    PATH`` on ``run`` / ``compare`` / ``sweep`` / ``trace`` / ``fuzz``.

``paper DOC``
    Run every experiment of the paper's evaluation at three model seeds
    and regenerate the marked blocks of DOC (EXPERIMENTS.md): each
    experiment's table and its shape predicates' verdicts.  Exits 1 when
    a shape fails at the default seed.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING, List, Optional

# Only what ``build_parser`` needs loads with this module; each ``cmd_*``
# imports what it runs, so ``repro runs list`` never loads the simulator.
from repro.analysis.fixtures import FIXTURES
from repro.errors import RegistryError, ReproError
from repro.faults.plan import PROFILES, profile
from repro.harness.config import ALL_APPS, ExperimentConfig, Variant
from repro.params import ArrayParams, SystemConfig

if TYPE_CHECKING:
    from repro.harness.results import RunResult

#: Failing fuzz cells a campaign shrinks into reproducers; any further
#: failures are reported but not shrunk.
SHRINK_LIMIT = 3


def _base_system(args: argparse.Namespace) -> SystemConfig:
    return SystemConfig(
        array=ArrayParams(ndisks=args.disks), ncpus=args.ncpus, seed=args.seed,
    )


def _base_config(args: argparse.Namespace, app: str) -> ExperimentConfig:
    return ExperimentConfig(
        app=app,
        system=_base_system(args),
        cache_paper_mb=args.cache_mb,
        workload_scale=args.scale,
        fault_plan=profile(args.chaos, args.fault_seed) if args.chaos else None,
    )


def _record_run(registry_path: str, result: RunResult, ctx: dict) -> None:
    """``--registry`` on a single run: record it and announce its id."""
    from repro.registry.recorder import record_results

    ids = record_results(registry_path, {None: result.to_jsonable()}, ctx)
    print(f"registry: recorded {ids[0]} in {registry_path}")


def _worker_count(text: str) -> int:
    """``--jobs N``: at least one worker (1 runs the cells in-process)."""
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {jobs}")
    return jobs


def _require_checkpoint_for_resume(args: argparse.Namespace) -> None:
    if args.resume and args.checkpoint is None:
        raise ReproError("--resume requires --checkpoint PATH")


def _print_progress(key: str, resumed: bool) -> None:
    print(f"  [{'resumed' if resumed else 'ran    '}] {key}")


def cmd_run(args: argparse.Namespace) -> int:
    from repro.harness.runner import run_experiment

    if args.oracle:
        return _run_oracle(args)
    if args.trace_out is not None:
        raise ReproError(
            "--trace-out DIR collects the oracle's divergence dumps and "
            "requires --oracle; for one run's trace use "
            "`repro trace APP --export jsonl --out FILE`"
        )
    cfg = _base_config(args, args.app).with_(variant=Variant(args.variant))
    result = run_experiment(cfg)
    print(result.summary())
    print(f"  elapsed:          {result.elapsed_s:.3f} s simulated")
    print(f"  reads:            {result.read_calls} calls, "
          f"{result.read_blocks} blocks, {result.read_bytes:,} bytes")
    print(f"  hinted:           {result.pct_calls_hinted:.1f}% of calls, "
          f"{result.pct_bytes_hinted:.1f}% of bytes")
    print(f"  prefetched:       {result.prefetched_blocks} blocks "
          f"({result.prefetched_fully} fully, "
          f"{result.prefetched_partially} partially, "
          f"{result.prefetched_unused} unused)")
    if result.variant == "speculating":
        print(f"  speculation:      {result.spec_hints_issued} hints, "
              f"{result.spec_restarts} restarts, "
              f"{result.spec_signals} signals, "
              f"dilation {result.dilation_factor:.2f}")
        print(f"  inaccurate hints: {result.inaccurate_hints}")
    if result.fault_profile is not None:
        print(f"  chaos:            profile {result.fault_profile}, "
              f"{result.disk_faults} disk faults, {result.io_retries} retries, "
              f"{result.io_timeouts} timeouts, "
              f"{result.prefetches_dropped} prefetches dropped")
        if result.watchdog_tripped:
            print(f"  watchdog:         tripped ({result.watchdog_tripped}); "
                  f"speculation disabled, run completed vanilla")
        for line in result.degraded_report():
            print(f"  {line}")
        for name, value in result.fault_events().items():
            print(f"    {name:40s} {value}")
        per_disk = result.per_disk_io_counters()
        if per_disk:
            for disk_id in sorted(per_disk):
                counters = per_disk[disk_id]
                detail = ", ".join(f"{name} {counters[name]}"
                                   for name in sorted(counters))
                print(f"    disk {disk_id}: {detail}")
    if args.registry is not None:
        _record_run(args.registry, result, {"kind": "run"})
    return 0


def _run_oracle(args: argparse.Namespace) -> int:
    """``run APP --oracle``: the differential correctness oracle.

    With ``--chaos`` set the oracle checks that one profile; without it,
    the fault-free baseline plus every built-in chaos profile.
    """
    from repro.harness.checkpoint import atomic_write_json
    from repro.harness.oracle import ORACLE_PROFILES, run_oracle

    if args.chaos is not None:
        profiles = (args.chaos if args.chaos != "none" else None,)
    else:
        profiles = ORACLE_PROFILES
    report = run_oracle(
        (args.app,),
        profiles=profiles,
        workload_scale=args.scale,
        fault_seed=args.fault_seed,
        system=_base_system(args),
        trace_dir=args.trace_out,
        jobs=args.jobs,
        registry_path=args.registry,
    )
    for cell in report.cells:
        verdict = "ok" if cell.passed else "MISMATCH"
        line = f"  {cell.app:12s} {cell.profile_name:18s} {verdict}"
        if not cell.passed:
            line += f"  ({cell.detail})"
        print(line)
    print(report.summary())
    if args.oracle_report:
        atomic_write_json(args.oracle_report, report.to_jsonable())
        print(f"oracle report written to {args.oracle_report}")
    return 0 if report.passed else 1


def cmd_compare(args: argparse.Namespace) -> int:
    from repro.harness.runner import run_experiment

    for app in args.apps:
        base = _base_config(args, app)
        results = {
            variant: run_experiment(base.with_(variant=variant))
            for variant in Variant
        }
        original = results[Variant.ORIGINAL]
        print(f"\n{app} (original {original.elapsed_s:.3f} s):")
        for variant in (Variant.SPECULATING, Variant.MANUAL):
            result = results[variant]
            print(f"  {variant.value:12s} {result.elapsed_s:8.3f} s  "
                  f"({result.improvement_over(original):5.1f}% improvement, "
                  f"{result.pct_calls_hinted:5.1f}% of calls hinted)")
        if args.registry is not None:
            for result in results.values():
                _record_run(args.registry, result, {"kind": "run"})
    return 0


def _build_app_binary(app: str, scale: float) -> "object":
    """Assemble one example app (or analysis fixture) without running it."""
    from repro.harness.config import validate_workload_scale

    validate_workload_scale(scale)
    if app in FIXTURES:
        return FIXTURES[app]()
    from repro.harness.runner import program

    return program(app, scale)


def cmd_transform(args: argparse.Namespace) -> int:
    from repro.spechint.tool import SpecHintTool

    binary = _build_app_binary(args.app, args.scale)
    transformed = SpecHintTool().transform(binary)
    report = transformed.spec_meta.report

    print(f"transformed {report.binary_name} in "
          f"{report.modification_time_s * 1000:.1f} ms")
    print(f"  instructions:   {report.original_insns} original + "
          f"{report.shadow_insns} shadow")
    print(f"  wrapped:        {report.loads_wrapped} loads, "
          f"{report.stores_wrapped} stores "
          f"({report.stack_relative_skipped} stack-relative skipped)")
    print(f"  redirected:     {report.static_transfers_redirected} static, "
          f"{report.dynamic_transfers_routed} dynamic")
    print(f"  jump tables:    {report.jump_tables_remapped} remapped, "
          f"{report.jump_tables_unrecognized} unrecognized")
    print(f"  reads -> hints: {report.reads_substituted}; output calls "
          f"stripped: {report.output_calls_stripped}")
    print(f"  size:           {report.original_size_bytes:,} -> "
          f"{report.transformed_size_bytes:,} bytes "
          f"(+{report.size_increase_pct:.0f}%)")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    """``repro analyze APP``: run the static-analysis pipeline and report.

    ``--lint`` turns error-severity findings into a non-zero exit: a
    binary with a computed transfer that can never be mapped, or a
    speculation-reachable syscall the runtime has no policy for, will
    never benefit from speculation and should be flagged in CI.
    """
    import json

    from repro.analysis.driver import analyze_binary

    binary = _build_app_binary(args.app, args.scale)
    analysis = analyze_binary(binary)

    if args.security:
        from repro.analysis.taint import analyze_security

        plan = analyze_security(binary, analysis=analysis)
        if args.json:
            print(json.dumps(plan.to_jsonable(), indent=2, sort_keys=True))
        else:
            print(plan.format_text())
        if args.lint:
            findings = plan.lint()
            if findings:
                print(f"\nsecurity lint: {len(findings)} leak(s)",
                      file=sys.stderr)
                return 1
            print("\nsecurity lint: ok (no secret-to-hint flows)")
        return 0

    if args.json:
        print(json.dumps(analysis.to_jsonable(), indent=2, sort_keys=True))
    else:
        print(analysis.format_text())

    if args.lint:
        errors = analysis.lint_errors
        if errors:
            print(f"\nlint: {len(errors)} error(s), "
                  f"{len(analysis.lint) - len(errors)} warning(s)",
                  file=sys.stderr)
            return 1
        print(f"\nlint: ok ({len(analysis.lint)} warning(s))")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.harness.experiments import run_sweep
    from repro.harness.tables import SWEEP_FORMATTERS

    _require_checkpoint_for_resume(args)
    # Per-cell progress lines belong to the crash-safe and recorded flows;
    # a plain sweep prints only its tables.  ``--jobs`` changes neither.
    verbose = args.checkpoint is not None or args.registry is not None
    sweep = run_sweep(
        args.kind,
        workload_scale=args.scale,
        checkpoint_path=args.checkpoint,
        resume=args.resume,
        progress=_print_progress if verbose else None,
        jobs=args.jobs,
        registry_path=args.registry,
    )
    print(SWEEP_FORMATTERS[args.kind](sweep))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """``repro trace APP``: run under the tracer, export and summarize.

    The tracer only reads the simulation clock, so the traced run's
    cycle count is identical to an untraced run of the same
    configuration — what it shows is what an ordinary run does.
    """
    from repro.harness.runner import run_experiment_with_system
    from repro.sim.clock import SimClock
    from repro.trace.analyzer import TraceAnalyzer
    from repro.trace.export import export_to_path
    from repro.trace.phases import stall_breakdown
    from repro.trace.tracer import Tracer, parse_categories

    categories = (
        None if args.categories is None else parse_categories(args.categories)
    )
    tracer = Tracer(SimClock(), categories=categories)
    cfg = _base_config(args, args.app).with_(variant=Variant(args.variant))
    result, system = run_experiment_with_system(cfg, tracer=tracer)

    out = args.out
    if out is None:
        suffix = "json" if args.export == "chrome" else "jsonl"
        out = f"trace-{args.app}-{args.variant}.{suffix}"
    export_to_path(tracer, out, args.export)
    print(f"{result.summary()}")
    print(f"trace written to {out} ({len(tracer):,} events, "
          f"{tracer.dropped:,} dropped)")
    if args.export == "chrome":
        print("  open in Perfetto: https://ui.perfetto.dev -> Open trace file")

    if args.summary:
        analyzer = TraceAnalyzer(
            tracer,
            lifecycle=system.manager.lifecycle,
            breakdown=stall_breakdown(system.kernel),
            result=result,
        )
        print()
        print(analyzer.render_summary())

    if args.registry is not None:
        _record_run(args.registry, result, {"kind": "run"})
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    """``repro fuzz``: a chaos campaign, or ``fuzz replay FILE``."""
    from repro.faults.shrink import Reproducer, shrink_case
    from repro.harness.checkpoint import atomic_write_json
    from repro.harness.fuzz import run_fuzz, run_fuzz_case

    if args.fuzz_command == "replay":
        reproducer = Reproducer.load(args.file)
        result = run_fuzz_case(
            reproducer.case, workload_scale=reproducer.workload_scale
        )
        label = reproducer.monitor or "any"
        print(f"replay {reproducer.case.key} (recorded monitor: {label})")
        if reproducer.note:
            print(f"  note: {reproducer.note}")
        if result.passed:
            print("  clean: no invariant violations")
            return 0
        for violation in result.violations:
            print(f"  {violation}")
        return 1

    apps = tuple(a.strip() for a in args.apps.split(",") if a.strip())
    _require_checkpoint_for_resume(args)
    report = run_fuzz(
        args.budget, seed=args.seed, apps=apps, jobs=args.jobs,
        workload_scale=args.scale, checkpoint_path=args.checkpoint,
        resume=args.resume, progress=_print_progress,
        registry_path=args.registry,
    )
    print()
    print(report.ledger.format_text())
    print()
    print(report.summary())

    if args.coverage_report is not None:
        atomic_write_json(args.coverage_report, report.to_jsonable())
        print(f"coverage report written to {args.coverage_report}")

    for cell in report.failures()[:SHRINK_LIMIT]:
        monitor = cell.violations[0].monitor
        print(f"\nshrinking {cell.key} (monitor: {monitor})...")

        def evaluate(candidate):
            return run_fuzz_case(
                candidate, workload_scale=args.scale
            ).violations

        shrunk = shrink_case(cell.case, monitor, evaluate)
        print(f"  {len(shrunk.events)} fault event(s) remain "
              f"after {shrunk.evaluations} evaluation(s): "
              f"{', '.join(shrunk.events) or 'none'}")
        os.makedirs(args.failures_dir, exist_ok=True)
        path = os.path.join(
            args.failures_dir,
            f"repro-{args.seed}-{shrunk.case.index:04d}.json",
        )
        Reproducer(
            case=shrunk.case,
            monitor=monitor,
            detail=str(cell.violations[0]),
            workload_scale=args.scale,
            note=f"shrunk from campaign --seed {args.seed} "
                 f"--budget {args.budget}",
        ).save(path)
        print(f"  reproducer written to {path}")

    return 0 if report.passed else 1


def _runs_list(args: argparse.Namespace, registry) -> int:
    records = registry.records()
    if not records:
        print("registry is empty")
        return 0
    print(f"  {'run id':24s} {'kind':13s} {'app':10s} {'variant':12s} "
          f"{'seed':>6} {'chaos':18s} {'cycles':>12}")
    for record in records:
        values = record.metric_values()
        cycles = f"{int(values['elapsed_cycles']):,}" if values else "-"
        print(f"  {record.run_id:24s} {record.kind:13s} "
              f"{record.app or '-':10s} {record.variant or '-':12s} "
              f"{record.seed:>6} {record.chaos_profile:18s} {cycles:>12}")
    print(f"{len(records)} record(s)")
    return 0


def _runs_regressions(args: argparse.Namespace, registry) -> int:
    from repro.registry.regression import check_all, parse_match_keys

    match_keys = parse_match_keys(args.match)
    report = check_all(registry, match_keys, min_baseline=args.min_baseline)
    print(f"checked {report.checked} run(s) against matched baselines "
          f"({report.skipped_no_baseline} without a large-enough "
          f"population; match keys: {','.join(match_keys)})")
    if report.clean:
        print("no regressions detected")
        return 0
    for finding in report.findings:
        print(f"  REGRESSION: {finding.describe()}")
    return 1


def cmd_runs(args: argparse.Namespace) -> int:
    """``repro runs ...``: query the persistent run registry.

    A query never creates a ledger: a path that is not a file is a
    ``RegistryError``, not an empty registry (a typo'd path in a CI gate
    would otherwise pass as "no regressions detected").
    """
    from repro.registry.store import RunRegistry

    if not os.path.isfile(args.registry):
        raise RegistryError(
            f"no run registry file at {args.registry!r}; record runs into "
            f"it with --registry first"
        )
    handlers = {
        "list": _runs_list,
        "regressions": _runs_regressions,
    }
    return handlers[args.runs_command](args, RunRegistry.open(args.registry))


def cmd_paper(args: argparse.Namespace) -> int:
    from repro.harness.shapes import write_document

    held, summary = write_document(args.doc)
    print(f"{args.doc}: {summary.strip()}")
    return 0 if held else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SpecHint reproduction (Chang & Gibson, OSDI 1999)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    #: Every flag more than one command takes, declared once; each command
    #: supplies only what is its own: the help text (or a dict of the
    #: keywords it sets itself) and the position among its other options.
    flag_specs = {
        "checkpoint": dict(default=None, metavar="PATH"),
        "resume": dict(action="store_true"),
        "jobs": dict(type=_worker_count, default=1, metavar="N"),
        "registry": dict(default=None, metavar="PATH"),
        "scale": dict(type=float, default=1.0),
        "seed": dict(type=int),
        "variant": dict(default="speculating",
                        choices=[v.value for v in Variant]),
    }

    def flags(p: argparse.ArgumentParser, **own: object) -> None:
        for name, keywords in own.items():
            if not isinstance(keywords, dict):
                keywords = {"help": keywords}
            p.add_argument(f"--{name}", **{**flag_specs[name], **keywords})

    def common(p: argparse.ArgumentParser, with_app: bool = True) -> None:
        if with_app:
            p.add_argument("app", choices=ALL_APPS)
        p.add_argument("--disks", type=int, default=4)
        p.add_argument("--cache-mb", type=float, default=12.0,
                       help="file cache size in the paper's MB")
        flags(p, scale="workload scale factor")
        p.add_argument("--ncpus", type=int, default=1, choices=(1, 2))
        p.add_argument("--chaos", default=None, choices=sorted(PROFILES),
                       metavar="PROFILE",
                       help="run under a fault-injection profile: "
                            + ", ".join(sorted(PROFILES)))
        p.add_argument("--fault-seed", type=int, default=7, dest="fault_seed",
                       help="seed for the fault decision streams")
        flags(p,
              seed=dict(default=1999,
                        help="system seed (file layout jitter); vary it to "
                             "build a baseline population in the registry"),
              registry="record this run in the persistent run "
                       "registry at PATH (a JSONL ledger)")

    run_p = sub.add_parser("run", help="run one benchmark variant")
    common(run_p)
    flags(run_p, variant=None)
    run_p.add_argument("--oracle", action="store_true",
                       help="differential correctness oracle: run spec-on "
                            "vs spec-off and assert identical output and "
                            "demand-read sequences (all chaos profiles, or "
                            "just the one named by --chaos)")
    flags(run_p, jobs="with --oracle: run oracle cells on N "
                      "supervised worker processes; 1 = serial")
    run_p.add_argument("--oracle-report", default=None, metavar="PATH",
                       dest="oracle_report",
                       help="write the oracle's JSON report to PATH")
    run_p.add_argument("--trace-out", default=None, metavar="DIR",
                       dest="trace_out",
                       help="with --oracle: directory for JSONL trace dumps "
                            "of any diverging cell (both variants)")
    run_p.set_defaults(func=cmd_run)

    cmp_p = sub.add_parser("compare", help="compare all variants")
    cmp_p.add_argument("apps", nargs="+", choices=ALL_APPS)
    common(cmp_p, with_app=False)
    cmp_p.set_defaults(func=cmd_compare)

    tr_p = sub.add_parser("transform", help="show SpecHint tool output")
    tr_p.add_argument("app", choices=ALL_APPS)
    flags(tr_p, scale=None)
    tr_p.set_defaults(func=cmd_transform)

    an_p = sub.add_parser(
        "analyze",
        help="static analysis: CFG, transfers, speculation reachability",
    )
    an_p.add_argument("app", choices=ALL_APPS + tuple(sorted(FIXTURES)))
    flags(an_p, scale=None)
    an_p.add_argument("--json", action="store_true",
                      help="emit the full report as JSON")
    an_p.add_argument("--lint", action="store_true",
                      help="exit non-zero when any error-severity finding "
                           "exists (unmappable transfers, unpolicied "
                           "speculation-reachable syscalls; with "
                           "--security: any secret-to-hint flow)")
    an_p.add_argument("--security", action="store_true",
                      help="run the speculation-security taint lint: prove "
                           "no secret-marked data region can influence the "
                           "(ino, offset, length) operands of a disclosed "
                           "I/O hint")
    an_p.set_defaults(func=cmd_analyze)

    sw_p = sub.add_parser("sweep", help="regenerate a sweep experiment")
    sw_p.add_argument("kind", choices=("disks", "cache", "ratio", "degraded"))
    flags(
        sw_p,
        scale=None,
        checkpoint="checkpoint finished cells to PATH (one fsynced "
                   "journal append per cell, compacted when the "
                   "sweep ends)",
        resume="restore completed cells from --checkpoint "
               "instead of re-running them",
        jobs="shard sweep cells across N worker processes (a "
             "dead worker's cell is re-run); 1 = serial",
        registry="record every sweep cell in the run registry at PATH",
    )
    sw_p.set_defaults(func=cmd_sweep)

    trace_p = sub.add_parser(
        "trace",
        help="run one benchmark under the event tracer and export/summarize",
    )
    common(trace_p)
    flags(trace_p, variant=None)
    trace_p.add_argument("--categories", default=None, metavar="C,...",
                         help="record only these categories "
                              "(kernel, sched, spec, hint, tip, cache, "
                              "storage); default: all")
    trace_p.add_argument("--export", default="jsonl",
                         choices=("jsonl", "chrome"),
                         help="output format: one JSON object per event, or "
                              "a Chrome trace_event file for Perfetto")
    trace_p.add_argument("--out", default=None, metavar="PATH",
                         help="output path (default: "
                              "trace-<app>-<variant>.<ext>)")
    trace_p.add_argument("--summary", action="store_true",
                         help="print the stall breakdown, hint lead times, "
                              "prefetch readiness and disk utilization")
    trace_p.set_defaults(func=cmd_trace)

    fuzz_p = sub.add_parser(
        "fuzz",
        help="chaos fuzzing: generated fault schedules under the "
             "invariant monitors",
    )
    fuzz_p.add_argument("--budget", type=int, default=50,
                        help="number of fault schedules to generate and run")
    flags(fuzz_p,
          seed=dict(default=7,
                    help="campaign seed; same seed = same schedules, "
                         "same coverage ledger, same cell digests"),
          jobs="shard fuzz cells across N worker processes (a "
               "dead worker's cell is re-run); 1 = serial")
    fuzz_p.add_argument("--apps", default="agrep", metavar="A,B",
                        help="comma-separated benchmark apps to fuzz")
    flags(fuzz_p, scale=dict(default=0.25,
                             help="workload scale factor per cell"))
    fuzz_p.add_argument("--coverage-report", default=None, metavar="PATH",
                        dest="coverage_report",
                        help="write the fault-space coverage ledger and "
                             "campaign digest as JSON to PATH")
    fuzz_p.add_argument("--failures-dir", default="fuzz-failures",
                        metavar="DIR", dest="failures_dir",
                        help="directory for shrunk reproducer JSONs of "
                             "failing cells")
    flags(
        fuzz_p,
        checkpoint="checkpoint finished cells to PATH",
        resume="restore completed cells from --checkpoint",
        registry="record every fuzz case in the run registry at PATH",
    )
    fuzz_p.set_defaults(func=cmd_fuzz, fuzz_command=None)
    fuzz_sub = fuzz_p.add_subparsers(dest="fuzz_command")
    replay_p = fuzz_sub.add_parser(
        "replay", help="re-run one reproducer JSON under the monitors"
    )
    replay_p.add_argument("file", help="reproducer JSON (see tests/corpus/)")
    replay_p.set_defaults(func=cmd_fuzz)

    runs_p = sub.add_parser(
        "runs",
        help="query the persistent run registry (ledger of past runs)",
    )
    runs_sub = runs_p.add_subparsers(dest="runs_command", required=True)

    def runs_common(p: argparse.ArgumentParser) -> None:
        flags(p, registry=dict(required=True,
                               help="run registry file (a JSONL ledger)"))
        p.set_defaults(func=cmd_runs)

    list_p = runs_sub.add_parser("list", help="list recorded runs")
    runs_common(list_p)

    reg_p = runs_sub.add_parser(
        "regressions",
        help="flag runs drifting from their matched baseline population "
             "(exit 1 when any regression is found)",
    )
    runs_common(reg_p)
    reg_p.add_argument("--match", default=None, metavar="K1,K2",
                       help="baseline match keys (subset of "
                            "app,variant,kind,chaos,params); default: all")
    reg_p.add_argument("--min-baseline", type=int, default=3,
                       metavar="N", dest="min_baseline",
                       help="minimum baseline population size before a "
                            "metric is judged")

    pp_p = sub.add_parser(
        "paper",
        help="run the paper's experiments at three seeds and regenerate "
             "their blocks in DOC",
    )
    pp_p.add_argument("doc", metavar="DOC",
                      help="markdown document with 'repro paper' markers "
                           "(EXPERIMENTS.md)")
    pp_p.set_defaults(func=cmd_paper)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        # A library failure is a usage/runtime condition, not a crash:
        # one line on stderr, exit status 1, no traceback at the user.
        print(f"repro: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Downstream closed the pipe (`repro runs list ... | head`).
        # Point stdout at devnull so interpreter shutdown does not try
        # to flush the dead pipe and print its own noise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
