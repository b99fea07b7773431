"""Formatters producing the paper's tables from run results.

Each function renders one table as text with the paper's published value
next to the measured one, so benchmark output (and EXPERIMENTS.md) can be
read without the paper at hand.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Tuple

from repro.harness import paper
from repro.harness.config import Variant
from repro.harness.results import RunResult

Matrix = Dict[str, Dict[str, RunResult]]

APP_LABEL = {"agrep": "Agrep", "gnuld": "Gnuld", "xds": "XDataSlice"}
VARIANTS = [v.value for v in Variant]


def _hr(width: int = 86) -> str:
    return "-" * width


def format_fig1(normal_cycles: int, speculating_cycles: int) -> str:
    """Figure 1: the four-read intuition example, without and with speculation."""
    return "\n".join([
        "Figure 1 - how speculative execution reduces stall time", _hr(),
        f"normal execution:      {normal_cycles / 1e6:7.2f} Mcycles (paper: ~16 Mcycles)",
        f"speculative execution: {speculating_cycles / 1e6:7.2f} Mcycles (paper: ~7 Mcycles)",
        f"speedup: {normal_cycles / speculating_cycles:.2f}x (paper: 'more than halve' => >2x)",
    ])


def format_fig3(matrix: Matrix) -> str:
    """Figure 3: elapsed time and % improvement per app and variant."""
    lines = [
        "Figure 3 - performance improvement (elapsed seconds, % vs original)",
        _hr(),
        f"{'':12} {'original':>12} {'speculating':>22} {'manual':>22}",
    ]
    for app, results in matrix.items():
        original = results["original"]
        spec = results["speculating"]
        manual = results["manual"]
        p_spec, p_manual = paper.FIG3_IMPROVEMENT[app]
        lines.append(
            f"{APP_LABEL[app]:12} {original.elapsed_s:>11.2f}s "
            f"{spec.elapsed_s:>8.2f}s ({spec.improvement_over(original):5.1f}%)"
            f" [paper {p_spec:.0f}%]"
            f" {manual.elapsed_s:>6.2f}s ({manual.improvement_over(original):5.1f}%)"
            f" [paper {p_manual:.0f}%]"
        )
    return "\n".join(lines)


def format_fig4(overheads: Mapping[str, float]) -> str:
    """Figure 4: runtime overhead with TIP configured to ignore hints."""
    lines = [
        "Figure 4 - overhead of supporting speculation (hints ignored)",
        _hr(),
        f"{'':12} {'measured':>10}   paper bound: <= "
        f"{paper.FIG4_MAX_OVERHEAD_PCT:.0f}%",
    ]
    for app, overhead in overheads.items():
        lines.append(f"{APP_LABEL[app]:12} {overhead:>9.2f}%")
    return "\n".join(lines)


def format_table1(matrix: Matrix) -> str:
    """Table 1 (background): the manual variants' improvement."""
    lines = ["Table 1 (background) - manually hinted applications", _hr(),
             f"{'':12} {'measured':>10} {'paper':>8}"]
    for app, results in matrix.items():
        measured = results["manual"].improvement_over(results["original"])
        lines.append(f"{APP_LABEL[app]:12} {measured:>9.1f}% "
                     f"{paper.TABLE1_MANUAL_IMPROVEMENT[app]:>7.0f}%")
    return "\n".join(lines)


def format_table3(reports: Iterable[object]) -> str:
    """Table 3: transformation statistics.

    The tool's own host time is not a column: it varies from run to run,
    and the paper's times (a C tool over Alpha binaries) are printed for
    reference only.
    """
    lines = [
        "Table 3 - transformed application statistics",
        _hr(),
        f"{'':12} {'size':>12} {'increase':>10}"
        f"   (paper: time / size / increase)",
    ]
    for report in reports:
        app = report.binary_name.replace("-manual", "")
        p_time, p_kb, p_pct = paper.TABLE3[app]
        lines.append(
            f"{APP_LABEL[app]:12} "
            f"{report.transformed_size_bytes / 1024:>9,.0f} KB "
            f"{report.size_increase_pct:>8.0f}%"
            f"   ({p_time:.0f}s / {p_kb:,} KB / {p_pct:.0f}%)"
        )
    return "\n".join(lines)


def format_table4(matrix: Matrix) -> str:
    """Table 4: hinting statistics."""
    lines = [
        "Table 4 - hinting statistics",
        _hr(100),
        f"{'':12} {'reads':>7} {'%calls':>7} {'%blocks':>8} {'%bytes':>7} "
        f"{'inaccurate':>11}   paper(spec): %calls/%blocks/%bytes/inacc",
    ]
    for app, results in matrix.items():
        spec = results["speculating"]
        manual = results["manual"]
        p = paper.TABLE4_SPECULATING[app]
        lines.append(
            f"{APP_LABEL[app]:12} {spec.read_calls:>7} "
            f"{spec.pct_calls_hinted:>6.1f}% {spec.pct_blocks_hinted:>7.1f}% "
            f"{spec.pct_bytes_hinted:>6.1f}% {spec.inaccurate_hints:>11}"
            f"   ({p[0]:.1f}% / {p[1]:.1f}% / {p[2]:.1f}% / {p[3]})"
        )
        lines.append(
            f"{'  manual':12} {manual.read_calls:>7} "
            f"{manual.pct_calls_hinted:>6.1f}%"
            f"{'':>27}   (paper manual: "
            f"{paper.TABLE4_MANUAL_PCT_CALLS[app]:.1f}% of calls)"
        )
    return "\n".join(lines)


def format_table5(matrix: Matrix) -> str:
    """Table 5: prefetching and caching statistics."""
    lines = [
        "Table 5 - prefetching and caching statistics",
        _hr(100),
        f"{'':24} {'cache reads':>11} {'prefetched':>10} {'fully':>9} "
        f"{'partially':>10} {'unused':>9} {'reuses':>8}",
    ]
    for app, results in matrix.items():
        for variant in VARIANTS:
            r = results[variant]
            prefetched = max(1, r.prefetched_blocks)
            p = paper.TABLE5[app][variant]
            lines.append(
                f"{APP_LABEL[app]:11} {variant:12} {r.cache_block_reads:>11} "
                f"{r.prefetched_blocks:>10} "
                f"{100.0 * r.prefetched_fully / prefetched:>8.1f}% "
                f"{100.0 * r.prefetched_partially / prefetched:>9.1f}% "
                f"{100.0 * r.prefetched_unused / prefetched:>8.1f}% "
                f"{r.cache_block_reuses:>8}"
            )
            lines.append(
                f"{'':24} paper: {p[0]:>11,} {p[1]:>10,} {p[2]:>8.1f}% "
                f"{p[3]:>9.1f}% {p[4]:>8.1f}% {p[5]:>8,}"
            )
    return "\n".join(lines)


def format_table6(matrix: Matrix) -> str:
    """Table 6: performance side-effects of speculation."""
    lines = [
        "Table 6 - performance side-effects",
        _hr(),
        f"{'':24} {'footprint':>10} {'reclaims':>9} {'faults':>7} {'sigs':>5}"
        f"   (paper: KB/reclaims/faults/sigs)",
    ]
    for app, results in matrix.items():
        for variant in VARIANTS:
            r = results[variant]
            p = paper.TABLE6[app][variant]
            sigs = r.spec_signals if variant == "speculating" else 0
            lines.append(
                f"{APP_LABEL[app]:11} {variant:12} "
                f"{r.footprint_bytes // 1024:>8} KB {r.page_reclaims:>9} "
                f"{r.page_faults:>7} {sigs:>5}"
                f"   ({p[0]:,} KB / {p[1]:,} / {p[2]} / {p[3]})"
            )
    return "\n".join(lines)


def format_table7(sweep: Mapping[float, Matrix]) -> str:
    """Table 7: elapsed time as the file cache size is varied."""
    lines = [
        "Table 7 - elapsed time vs file cache size "
        "(paper MB, scaled ~8x smaller here; our large-cache point is "
        "32 MB because at 64 MB the scaled cache would exceed the scaled "
        "datasets entirely — compared against the paper's 64 MB row)",
        _hr(100),
    ]
    paper_key = {6: 6, 12: 12, 32: 64, 64: 64}
    apps = list(next(iter(sweep.values())).keys())
    for app in apps:
        lines.append(APP_LABEL[app])
        for mb, matrix in sweep.items():
            results = matrix[app]
            original = results["original"]
            spec = results["speculating"]
            manual = results["manual"]
            p = paper.TABLE7[app][paper_key[int(mb)]]
            lines.append(
                f"  {int(mb):>3} MB  orig {original.elapsed_s:>7.2f}s  "
                f"spec {spec.elapsed_s:>6.2f}s "
                f"({spec.improvement_over(original):5.1f}%)  "
                f"manual {manual.elapsed_s:>6.2f}s "
                f"({manual.improvement_over(original):5.1f}%)"
                f"   paper: {p[0]:.1f}/{p[1]:.1f}/{p[2]:.1f}s"
            )
    return "\n".join(lines)


def format_table8(sweep: Mapping[int, Matrix]) -> str:
    """Table 8: elapsed time of the original applications vs disk count."""
    lines = [
        "Table 8 - elapsed time of original applications vs number of disks",
        _hr(),
        f"{'':12}" + "".join(f"{n:>10}d" for n in sweep),
    ]
    for app in next(iter(sweep.values())).keys():
        measured = "".join(
            f"{sweep[n][app]['original'].elapsed_s:>10.2f}s" for n in sweep
        )
        papers = "".join(
            f"{paper.TABLE8[app][n]:>10.1f}s" for n in sweep
            if n in paper.TABLE8[app]
        )
        lines.append(f"{APP_LABEL[app]:12}{measured}")
        lines.append(f"{'  paper':12}{papers}")
    return "\n".join(lines)


def format_degraded_sweep(sweep: Mapping[str, Matrix]) -> str:
    """Degraded-mode extension: slowdown and recovery work per profile.

    One row per (app, fault regime): elapsed time and slowdown vs the
    healthy (``none``) baseline of the same app/variant, plus the degraded
    work performed (reconstruction reads, rebuild completion, hedges, shed
    prefetches).
    """
    lines = [
        "Degraded-mode sweep - elapsed time and recovery work per fault regime",
        _hr(100),
        f"{'':14}{'regime':>14} {'orig':>9} {'spec':>9} "
        f"{'slowdown':>9} {'recon':>7} {'hedgeW':>7} {'shed':>6}  rebuild",
    ]
    baseline = sweep.get("none")
    apps = list(next(iter(sweep.values())).keys())
    for app in apps:
        for profile, matrix in sweep.items():
            results = matrix[app]
            original = results["original"]
            spec = results["speculating"]
            slowdown = 0.0
            if baseline is not None and profile != "none":
                healthy = baseline[app]["speculating"].elapsed_s
                if healthy > 0:
                    slowdown = spec.elapsed_s / healthy
            if spec.rebuild_completed:
                done_s = spec.rebuild_completed_cycle / spec.cpu_hz
                rebuild = f"done @{done_s:.3f}s ({spec.rebuild_blocks} blk)"
            elif spec.disk_deaths:
                rebuild = "incomplete"
            else:
                rebuild = "-"
            lines.append(
                f"{APP_LABEL.get(app, app):14}{profile:>14} "
                f"{original.elapsed_s:>8.2f}s {spec.elapsed_s:>8.2f}s "
                f"{(f'{slowdown:.2f}x' if slowdown else '-'):>9} "
                f"{spec.reconstructed_blocks:>7} {spec.hedges_won:>7} "
                f"{spec.prefetches_shed_degraded:>6}  {rebuild}"
            )
    return "\n".join(lines)


def format_improvement_series(
    sweep: Mapping[object, Matrix], xlabel: str
) -> str:
    """Figures 5/6: % improvement series over a sweep variable."""
    xs = list(sweep.keys())
    lines = [f"{'':26}" + "".join(f"{x!s:>8}" for x in xs)]
    apps = list(next(iter(sweep.values())).keys())
    for app in apps:
        for variant in ("speculating", "manual"):
            series = []
            for x in xs:
                results = sweep[x][app]
                value = results[variant].improvement_over(results["original"])
                series.append(f"{value:>7.1f}%")
            lines.append(f"{APP_LABEL[app] + ' - ' + variant:26}" + "".join(series))
    return f"improvement (%) vs {xlabel}\n" + "\n".join(lines)


#: The table of each ``repro sweep KIND``, which ``repro paper`` prints
#: for Table 7, Table 8 with Figure 5, and Figure 6.
SWEEP_FORMATTERS = {
    "disks": lambda sweep: format_table8(sweep) + "\n\n"
    + format_improvement_series(sweep, "number of disks"),
    "cache": format_table7,
    "ratio": lambda sweep: format_improvement_series(sweep, "processor/disk speed ratio"),
    "degraded": format_degraded_sweep,
}


def format_section44(matrix: Matrix) -> str:
    """Section 4.4: median cycles between read and hint calls of the
    speculating variants, and their ratio (the dilation factor)."""
    lines = ["Section 4.4 - dilation factors", _hr(),
             f"{'':12} {'read interval':>14} {'hint interval':>14} {'dilation':>9} {'paper':>7}"]
    for app, results in matrix.items():
        spec = results["speculating"]
        lines.append(f"{APP_LABEL[app]:12} {spec.median_read_interval:>13.0f}c "
                     f"{spec.median_hint_interval:>13.0f}c {spec.dilation_factor:>9.2f} "
                     f"{paper.SECTION44_DILATION[app]:>7.1f}")
    return "\n".join(lines)


def format_cow_region(gains: Mapping[int, Mapping[str, float]]) -> str:
    """Ablation (§3.2.1): speculating improvement per COW region size."""
    apps = list(next(iter(gains.values())))
    lines = ["Ablation - COW region size (paper: no significant difference; "
             "worst case Gnuld @8KB, -9%)", _hr(),
             f"{'region':>8}" + "".join(f"{APP_LABEL[app]:>12}" for app in apps)]
    for region, by_app in gains.items():
        lines.append(f"{region:>7}B" + "".join(f"{by_app[app]:>11.1f}%" for app in apps))
    return "\n".join(lines)


def format_map_all(results: Mapping[bool, Mapping[str, Tuple[float, int]]]) -> str:
    """Ablation (§3.2.1): the handling routine mapping function entries only
    (False) or any text address (True) — improvement and left-shadow parks."""
    lines = ["Ablation - handling routine address mapping", _hr(),
             f"{'':12}{'function entries only':>26}{'map all addresses':>26}"]
    for app in results[False]:
        lines.append(f"{APP_LABEL[app]:12}" + "".join(
            f"{results[lifted][app][0]:>15.1f}% ({results[lifted][app][1]:>3} parks)"
            for lifted in (False, True)))
    return "\n".join(lines)


def format_pairs(title: str, runs: Mapping[str, Tuple[RunResult, RunResult]]) -> str:
    """Ablations (§5): one (original, speculating) pair per setting — the
    speculating run's improvement and what its speculation did."""
    lines = [title, _hr()]
    for label, (original, spec) in runs.items():
        lines.append(
            f"{label:12}: improvement {spec.improvement_over(original):6.1f}%"
            f"  hints={spec.spec_hints_issued:5d}  restarts={spec.spec_restarts:4d}"
            f"  cancels={spec.spec_cancel_calls:4d}"
            f"  inaccurate hints={spec.inaccurate_hints:6d}"
            f"  unused prefetched={spec.prefetched_unused:4d}"
        )
    return "\n".join(lines)


def format_multiprogramming(runs: Mapping[bool, Tuple[int, int, int]]) -> str:
    """Ablation (§3): the speculating Agrep alone and beside a compute-bound
    process; ``runs`` maps contention to (speculating-thread cycles, hints
    issued, reads hinted)."""
    lines = ["Ablation - CPU contention starves speculation", _hr()]
    for contended, (spec_cycles, hints, hinted_reads) in runs.items():
        lines.append(
            f"{'with competitor' if contended else 'alone':16}: speculating-thread CPU "
            f"{spec_cycles / 1e6:7.2f} Mcycles, {hints} hints issued, {hinted_reads} reads hinted"
        )
    return "\n".join(lines)


#: Table 1: Patterson's manually hinted Postgres join, % improvement.
POSTGRES_PAPER_MANUAL = {"postgres20": 48.0, "postgres80": 69.0}


def format_postgres(matrix: Matrix) -> str:
    """Extension: the Table 1 Postgres join through the whole pipeline."""
    lines = ["Extension - Postgres join (Table 1 workload)", _hr()]
    for app, results in matrix.items():
        original, spec = results["original"], results["speculating"]
        lines.append(
            f"{app}: original {original.elapsed_s:6.2f}s | speculating "
            f"{spec.improvement_over(original):5.1f}% (hints {spec.pct_calls_hinted:4.1f}%, "
            f"restarts {spec.spec_restarts}) | manual "
            f"{results['manual'].improvement_over(original):5.1f}% "
            f"[paper manual: {POSTGRES_PAPER_MANUAL[app]:.0f}%]"
        )
    return "\n".join(lines)
