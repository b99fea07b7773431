"""Experiment drivers keyed to the paper's tables and figures."""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.faults.plan import profile
from repro.harness.config import APPS, ExperimentConfig, Variant
from repro.harness.parallel import Payload, require_complete, run_cells
from repro.harness.results import RunResult
from repro.harness.runner import run_experiment
from repro.harness.supervisor import CellSpec, SupervisorConfig
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
) -> ExperimentConfig:
    """What one sweep cell runs.

    * ``disks`` varies available I/O parallelism (Table 8, Figure 5);
    * ``cache`` varies the file cache size in the paper's MB (Table 7);
    * ``degraded`` varies the storage fault regime: ``"none"`` is the
      healthy baseline, and permanent-death profiles run with
      auto-enabled parity redundancy (see ``resolved_system``), so each
      cell completes through degraded reads and background rebuild;
    * ``ratio`` simulates a widening processor/disk speed gap (Figure 6).
      Following the paper: delay completion notification by the ratio and
      limit outstanding prefetches to one per disk (the cell runner
      scales the reported elapsed time back down by the ratio).
    """
    cfg = ExperimentConfig(app=app, variant=variant,
                           workload_scale=workload_scale)
    if kind == "disks":
        array = dataclasses.replace(cfg.system.array, ndisks=int(point))
        return cfg.with_(system=cfg.system.replace(array=array))
    if kind == "cache":
        return cfg.with_(cache_paper_mb=float(point))
    if kind == "degraded":
        return cfg.with_(fault_plan=profile(str(point)))
    # kind == "ratio"
    array = dataclasses.replace(
        cfg.system.array,
        completion_delay_factor=float(point),
        max_prefetches_per_disk=1,
    )
    return cfg.with_(system=cfg.system.replace(array=array))


def run_config_payload(cfg: ExperimentConfig) -> Payload:
    """The cell runner: one configuration, serialized for the result pipe.

    ``cfg`` is a plain frozen dataclass, so it ships to a worker by value.
    Under a simulated processor/disk speed ratio the cycles are scaled
    back by it — "then scaled our resulting measurements by half" (by the
    ratio in general): the faster processor finishes the same cycle count
    proportionally sooner — before the result is checkpointed or recorded.
    """
    result = run_experiment(cfg)
    ratio = cfg.system.array.completion_delay_factor
    if ratio != 1.0:
        result.cycles = int(result.cycles / ratio)
    return result.to_jsonable()


def _sweep_points(
    kind: str, points: Optional[Iterable[SweepPoint]]
) -> Tuple[SweepPoint, ...]:
    if kind not in SWEEP_POINTS:
        raise ValueError(
            f"unknown sweep kind {kind!r}; expected one of {sorted(SWEEP_POINTS)}"
        )
    return SWEEP_POINTS[kind] if points is None else tuple(points)


def sweep_parallel_cells(
    kind: str,
    workload_scale: float = 1.0,
    points: Optional[Iterable[SweepPoint]] = None,
    apps: Iterable[str] = APPS,
    variants: Iterable[Variant] = tuple(Variant),
) -> List[CellSpec]:
    """The independent cell specs of one sweep.

    Each cell runs one (sweep point, app, variant) triple and is seeded
    independently, so any subset can be re-run and merged with previously
    checkpointed cells without changing a single result.
    """
    apps, variants = tuple(apps), tuple(variants)
    return [
        (sweep_cell_key(kind, point, app, variant), run_config_payload,
         (sweep_cell_config(kind, point, app, variant, workload_scale),))
        for point in _sweep_points(kind, points)
        for app in apps
        for variant in variants
    ]


def run_sweep(
    kind: str,
    points: Optional[Iterable[SweepPoint]] = None,
    apps: Iterable[str] = APPS,
    variants: Iterable[Variant] = tuple(Variant),
    workload_scale: float = 1.0,
    checkpoint_path: Optional[str] = None,
    resume: bool = False,
    progress: Optional[Callable[[str, bool], None]] = None,
    jobs: int = 1,
    supervisor_config: Optional[SupervisorConfig] = None,
    stats_out: Optional[Dict[str, object]] = None,
    registry_path: Optional[str] = None,
) -> Dict[SweepPoint, Matrix]:
    """One sweep — ``points`` x ``apps`` x ``variants`` — cell by cell.

    ``kind`` names the swept axis (Table 8 / Figure 5: ``disks``; Table 7:
    ``cache``; Figure 6: ``ratio``; the storage fault regime:
    ``degraded``); ``points`` defaults to the CLI's
    :data:`SWEEP_POINTS`.

    Every cell goes through the cell engine
    (:func:`repro.harness.parallel.run_cells`): with ``checkpoint_path``
    each finished cell is checkpointed atomically, and with ``resume``
    completed cells are restored from the checkpoint.  Each cell is
    seeded independently, so the assembled nested mapping is identical
    however the cells were run.

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
    points = _sweep_points(kind, points)
    apps, variants = tuple(apps), tuple(variants)
    identity = f"sweep:{kind}:scale={workload_scale:g}"
    registry_meta: Optional[Dict[str, object]] = None
    if registry_path is not None:
        registry_meta = record_group(
            registry_path, "sweep",
            {
                "identity": identity,
                "sweep_kind": kind,
                "workload_scale": workload_scale,
                "points": [point_label(p) for p in points],
            },
            cell_kind="sweep-cell",
        )
    outcome = run_cells(
        sweep_parallel_cells(kind, workload_scale, points, apps, variants),
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
                for variant in variants
            }
            for app in apps
        }
        for point in points
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
