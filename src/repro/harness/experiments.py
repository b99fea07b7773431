"""Experiment drivers keyed to the paper's tables and figures."""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, Iterable, Optional, Tuple, Union

from repro.harness.config import APPS, ExperimentConfig, Variant
from repro.harness.parallel import (
    require_complete,
    run_cells,
    sweep_parallel_cells,
)
from repro.harness.results import RunResult
from repro.harness.runner import run_experiment
from repro.harness.supervisor import SupervisorConfig
from repro.params import SystemConfig
from repro.registry.recorder import record_group

#: Result matrix: {app: {variant_value: RunResult}}.
Matrix = Dict[str, Dict[str, RunResult]]


def run_one(
    app: str,
    variant: Variant,
    system: Optional[SystemConfig] = None,
    **kwargs: object,
) -> RunResult:
    """Run one (app, variant) pair on the default (or given) system."""
    cfg = ExperimentConfig(
        app=app, variant=variant, system=system or SystemConfig(), **kwargs
    )
    return run_experiment(cfg)


def run_matrix(
    apps: Iterable[str] = APPS,
    variants: Iterable[Variant] = tuple(Variant),
    system: Optional[SystemConfig] = None,
    workload_scale: float = 1.0,
) -> Matrix:
    """Run every (app, variant) combination — the Figure 3 grid."""
    base = system or SystemConfig()
    results: Matrix = {}
    for app in apps:
        results[app] = {}
        for variant in variants:
            results[app][variant.value] = run_one(
                app, variant, system=base, workload_scale=workload_scale
            )
    return results


#: One sweep-axis value: numeric (disks/cache/ratio) or a fault-profile
#: name (degraded).
SweepPoint = Union[float, str]

#: Sweep-point values matching the CLI's ``sweep`` command.
SWEEP_POINTS: Dict[str, Tuple[SweepPoint, ...]] = {
    "disks": (1, 2, 4, 10),
    "cache": (6.0, 12.0, 32.0),
    "ratio": (1, 3, 5, 9),
    "degraded": ("none", "disk-death", "rebuild-storm"),
}


def point_label(point: SweepPoint) -> str:
    """Stable cell-key rendering of a sweep point (numbers via ``%g``)."""
    if isinstance(point, str):
        return point
    return f"{point:g}"


def sweep_cell_key(
    kind: str, point: SweepPoint, app: str, variant: Variant
) -> str:
    """Checkpoint/registry key of one sweep cell."""
    return f"{kind}={point_label(point)}/{app}/{variant.value}"


def sweep_cell_config(
    kind: str,
    point: SweepPoint,
    app: str,
    variant: Variant,
    workload_scale: float = 1.0,
) -> Tuple[ExperimentConfig, float]:
    """What one sweep cell runs: its configuration and cycle divisor.

    * ``disks`` varies available I/O parallelism (Table 8, Figure 5);
    * ``cache`` varies the file cache size in the paper's MB (Table 7);
    * ``degraded`` varies the storage fault regime: ``"none"`` is the
      healthy baseline, and permanent-death profiles run with
      auto-enabled parity redundancy (see ``resolved_system``), so each
      cell completes through degraded reads and background rebuild;
    * ``ratio`` simulates a widening processor/disk speed gap (Figure 6).
      Following the paper: delay completion notification by the ratio and
      limit outstanding prefetches to one per disk; the reported elapsed
      time is then scaled back down by the ratio — the returned divisor
      (1 for every other kind).
    """
    cfg = ExperimentConfig(app=app, variant=variant,
                           workload_scale=workload_scale)
    if kind == "disks":
        array = dataclasses.replace(cfg.system.array, ndisks=int(point))
        return cfg.with_(system=cfg.system.replace(array=array)), 1.0
    if kind == "cache":
        return cfg.with_(cache_paper_mb=float(point)), 1.0
    if kind == "degraded":
        profile = None if point == "none" else str(point)
        return cfg.with_(fault_profile=profile), 1.0
    # kind == "ratio"
    array = dataclasses.replace(
        cfg.system.array,
        completion_delay_factor=float(point),
        max_prefetches_per_disk=1,
    )
    return cfg.with_(system=cfg.system.replace(array=array)), float(point)


def run_config(cfg: ExperimentConfig, cycle_divisor: float = 1.0) -> RunResult:
    """Run one configuration, scaling its cycles back by ``cycle_divisor``.

    "then scaled our resulting measurements by half" (by the ratio in
    general): the faster processor finishes the same cycle count
    proportionally sooner.  The scaling is applied before the result is
    checkpointed or recorded.
    """
    result = run_experiment(cfg)
    if cycle_divisor != 1.0:
        result.cycles = int(result.cycles / cycle_divisor)
    return result


def run_sweep_cell(
    kind: str,
    point: SweepPoint,
    app: str,
    variant: Variant,
    workload_scale: float,
) -> RunResult:
    """Run one (sweep point, app, variant) cell."""
    return run_config(
        *sweep_cell_config(kind, point, app, variant, workload_scale)
    )


def _run_sweep(
    kind: str,
    points: Iterable[SweepPoint],
    apps: Iterable[str],
    variants: Iterable[Variant],
    workload_scale: float,
) -> Dict[Any, Matrix]:
    """Batch driver: every cell of ``points`` x ``apps`` x ``variants``."""
    apps, variants = tuple(apps), tuple(variants)
    return {
        point: {
            app: {
                variant.value: run_sweep_cell(kind, point, app, variant,
                                              workload_scale)
                for variant in variants
            }
            for app in apps
        }
        for point in points
    }


def run_disk_sweep(
    ndisks_list: Iterable[int] = (1, 2, 4, 10),
    apps: Iterable[str] = APPS,
    variants: Iterable[Variant] = tuple(Variant),
    workload_scale: float = 1.0,
) -> Dict[int, Matrix]:
    """Vary available I/O parallelism — Table 8 and Figure 5."""
    return _run_sweep("disks", ndisks_list, apps, variants, workload_scale)


def run_cache_size_sweep(
    cache_mbs: Iterable[float] = (6.0, 12.0, 64.0),
    apps: Iterable[str] = APPS,
    variants: Iterable[Variant] = tuple(Variant),
    workload_scale: float = 1.0,
) -> Dict[float, Matrix]:
    """Vary the file cache size — Table 7."""
    return _run_sweep("cache", cache_mbs, apps, variants, workload_scale)


def run_cpu_ratio_sweep(
    ratios: Iterable[float] = (1, 2, 3, 5, 7, 9),
    apps: Iterable[str] = APPS,
    variants: Iterable[Variant] = tuple(Variant),
    workload_scale: float = 1.0,
) -> Dict[float, Matrix]:
    """Simulate a widening processor/disk speed gap — Figure 6."""
    return _run_sweep("ratio", ratios, apps, variants, workload_scale)


def run_sweep_resumable(
    kind: str,
    workload_scale: float = 1.0,
    checkpoint_path: Optional[str] = None,
    resume: bool = False,
    progress: Optional[Callable[[str, bool], None]] = None,
    jobs: int = 1,
    supervisor_config: Optional[SupervisorConfig] = None,
    stats_out: Optional[Dict[str, object]] = None,
    registry_path: Optional[str] = None,
) -> Dict[SweepPoint, Matrix]:
    """One of the CLI's sweeps over :data:`SWEEP_POINTS`, cell by cell.

    Every cell goes through the cell engine
    (:func:`repro.harness.parallel.run_cells`): with ``checkpoint_path``
    each finished cell is checkpointed atomically, and with ``resume``
    completed cells are restored from the checkpoint.  Each cell is
    seeded independently, so the reassembled nested mapping is identical
    to the batch drivers' output however the cells were run.

    ``jobs`` above 1 shards the cells across the supervised worker pool:
    crashed and hung cells are rescheduled, poisoned cells are
    quarantined, and per-worker partial checkpoints make even a SIGKILL
    of this process resumable.  A quarantined cell raises
    :class:`~repro.errors.QuarantinedCell` *after* every other cell has
    completed and been checkpointed — the sweep's work is preserved,
    only the assembly of the full matrix fails.  ``stats_out`` (if
    given) is filled with the engine's counters.

    With ``registry_path`` set, a ``sweep`` group record is written to
    the persistent run registry and every cell is recorded as a
    ``sweep-cell`` child of it (lineage for ``repro runs lineage``).
    """
    cells = sweep_parallel_cells(kind, workload_scale)
    identity = f"sweep:{kind}:scale={workload_scale:g}"
    registry_meta: Optional[Dict[str, object]] = None
    if registry_path is not None:
        registry_meta = record_group(
            registry_path, "sweep",
            {
                "identity": identity,
                "sweep_kind": kind,
                "workload_scale": workload_scale,
                "points": [point_label(p) for p in SWEEP_POINTS[kind]],
            },
            cell_kind="sweep-cell",
        )
    outcome = run_cells(
        cells,
        jobs=jobs,
        checkpoint_path=checkpoint_path,
        identity=identity,
        resume=resume,
        progress=progress,
        config=supervisor_config,
        registry_path=registry_path,
        registry_meta=registry_meta,
    )
    if stats_out is not None:
        stats_out.update(outcome.stats.to_jsonable())
    require_complete(outcome, what=f"{kind} sweep")
    return {
        point: {
            app: {
                variant.value: RunResult.from_jsonable(
                    outcome.results[sweep_cell_key(kind, point, app, variant)]
                )
                for variant in Variant
            }
            for app in APPS
        }
        for point in SWEEP_POINTS[kind]
    }


def improvements(matrix: Matrix) -> Dict[str, Dict[str, float]]:
    """Percent improvement of each hinting variant over the original."""
    table: Dict[str, Dict[str, float]] = {}
    for app, by_variant in matrix.items():
        original = by_variant[Variant.ORIGINAL.value]
        table[app] = {
            variant: result.improvement_over(original)
            for variant, result in by_variant.items()
            if variant != Variant.ORIGINAL.value
        }
    return table
