"""Markdown report generation.

`write_report` runs the headline matrix and emits a self-contained
EXPERIMENTS-style markdown report with measured-vs-paper values — the
repeatable way to regenerate the numbers in EXPERIMENTS.md after a model
change.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional, Union

from repro.harness import paper
from repro.harness.experiments import Matrix, run_matrix
from repro.harness.tables import APP_LABEL


def build_report(matrix: Optional[Matrix] = None) -> str:
    """The report text for a (possibly precomputed) headline matrix."""
    if matrix is None:
        matrix = run_matrix()

    lines = [
        "# SpecHint reproduction — headline report",
        "",
        "Regenerated by `repro.harness.report`.  All values from one",
        "deterministic run of the full-scale (scaled ~8x) workloads on the",
        "default 4-disk, 12 MB-cache configuration.",
        "",
        "## Figure 3 — % improvement over the original",
        "",
        "| benchmark | speculating | paper | manual | paper |",
        "|---|---|---|---|---|",
    ]
    for app, results in matrix.items():
        original = results["original"]
        spec = results["speculating"].improvement_over(original)
        manual = results["manual"].improvement_over(original)
        p_spec, p_manual = paper.FIG3_IMPROVEMENT[app]
        lines.append(
            f"| {APP_LABEL[app]} | {spec:.1f} % | {p_spec:.0f} % "
            f"| {manual:.1f} % | {p_manual:.0f} % |"
        )

    lines += [
        "",
        "## Table 4 — speculating-variant hinting",
        "",
        "| benchmark | % calls hinted | paper | inaccurate hints | paper |",
        "|---|---|---|---|---|",
    ]
    for app, results in matrix.items():
        spec = results["speculating"]
        p = paper.TABLE4_SPECULATING[app]
        lines.append(
            f"| {APP_LABEL[app]} | {spec.pct_calls_hinted:.1f} % "
            f"| {p[0]:.1f} % | {spec.inaccurate_hints} | {p[3]} |"
        )

    lines += [
        "",
        "## Section 4.4 — dilation factors",
        "",
        "| benchmark | measured | paper |",
        "|---|---|---|",
    ]
    for app, results in matrix.items():
        spec = results["speculating"]
        lines.append(
            f"| {APP_LABEL[app]} | {spec.dilation_factor:.2f} "
            f"| {paper.SECTION44_DILATION[app]} |"
        )

    lines += [
        "",
        "## Table 6 — speculation side effects (speculating vs original)",
        "",
        "| benchmark | footprint | reclaims | faults | signals |",
        "|---|---|---|---|---|",
    ]
    for app, results in matrix.items():
        original = results["original"]
        spec = results["speculating"]
        lines.append(
            f"| {APP_LABEL[app]} "
            f"| {original.footprint_bytes // 1024} -> "
            f"{spec.footprint_bytes // 1024} KB "
            f"| {original.page_reclaims} -> {spec.page_reclaims} "
            f"| {original.page_faults} -> {spec.page_faults} "
            f"| {spec.spec_signals} |"
        )

    lines.append("")
    return "\n".join(lines)


def format_supervisor_stats(stats: Dict[str, object]) -> str:
    """One-paragraph summary of a parallel run.

    ``stats`` is ``EngineStats.to_jsonable()`` (the ``stats_out`` dict
    filled by ``run_sweep``).  Shows the reader at a glance whether the
    run was clean or workers died under it (each death re-ran its cell).
    """
    mode = stats.get("mode", "parallel")
    jobs = stats.get("jobs", 1)
    crashes = stats.get("worker_crashes")
    return "\n".join([
        f"supervisor: {mode} x{jobs} — "
        f"{stats.get('cells_completed', 0)} cells run, "
        f"{stats.get('cells_restored', 0)} restored from checkpoint",
        "  interventions: "
        + (f"{crashes} worker crash(es)" if crashes else "none"),
    ])


def write_report(
    path: Union[str, Path],
    matrix: Optional[Matrix] = None,
) -> Path:
    """Write the report to ``path``; returns the path written."""
    target = Path(path)
    target.write_text(build_report(matrix), encoding="utf-8")
    return target
