"""Experiment drivers keyed to the paper's tables and figures."""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.faults.plan import profile
from repro.harness.config import APPS, ExperimentConfig, Variant
from repro.harness.parallel import CellSpec, Payload, run_cells
from repro.harness.results import RunResult
from repro.harness.runner import run_experiment
from repro.params import SystemConfig

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


#: One sweep-axis value: numeric (disks/cache/ratio) or a fault-profile
#: name (degraded).
SweepPoint = Union[float, str]

#: The points of each ``repro sweep KIND``, which are also the points of
#: the paper experiments ``repro paper`` regenerates (Table 8 / Figure 5,
#: Table 7, Figure 6).  The large cache point is 32 MB, not the paper's
#: 64 MB: at a scaled 64 MB the cache would swallow the scaled datasets
#: whole, and 32 MB keeps the paper's regime (a cache large relative to
#: reuse but smaller than the data).
SWEEP_POINTS: Dict[str, Tuple[SweepPoint, ...]] = {
    "disks": (1, 2, 4, 10),
    "cache": (6.0, 12.0, 32.0),
    "ratio": (1, 2, 3, 5, 7, 9),
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
    """The independent cell specs of one sweep, app-major.

    Each cell runs one (sweep point, app, variant) triple and is seeded
    independently, so any subset can be re-run and merged with previously
    checkpointed cells without changing a single result.  One app's cells
    come together because they read one dataset, which a process then
    generates once (:data:`repro.apps.datasets.LAST_DATASET`).
    """
    points, variants = _sweep_points(kind, points), tuple(variants)
    return [
        (sweep_cell_key(kind, point, app, variant), run_config_payload,
         (sweep_cell_config(kind, point, app, variant, workload_scale),))
        for app in apps
        for point in points
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

    ``jobs`` above 1 shards the cells across worker processes under the
    serial loop's failure policy: a cell whose worker dies is re-run, and
    a cell that raises ends the sweep with its exception.  The workers
    append finished cells to the one checkpoint themselves, so even a
    SIGKILL of this process is resumable.

    With ``registry_path`` set, every cell is recorded in the persistent
    run registry as a ``sweep-cell`` record.
    """
    points = _sweep_points(kind, points)
    apps, variants = tuple(apps), tuple(variants)
    outcome = run_cells(
        sweep_parallel_cells(kind, workload_scale, points, apps, variants),
        jobs=jobs,
        checkpoint_path=checkpoint_path,
        identity=f"sweep:{kind}:scale={workload_scale:g}",
        resume=resume,
        progress=progress,
        registry_path=registry_path,
        registry_meta={"kind": "sweep-cell"},
    )
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
