"""Experiment configuration."""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass
from typing import Optional

from repro.errors import HarnessError
from repro.faults.plan import FaultPlan
from repro.params import DiskParams, SystemConfig, scaled_cache_blocks

#: The paper's three transformed benchmarks (every table/figure).
APPS = ("agrep", "gnuld", "xds")

#: Including extensions: the Table 1 Postgres join at 20 % and 80 %
#: selectivity (the paper lists them among Patterson's manually hinted
#: baselines; transforming them is an extension of this reproduction).
ALL_APPS = APPS + ("postgres20", "postgres80")


def validate_workload_scale(scale: float) -> None:
    """Refuse a workload scale that is not a finite number > 0."""
    if not (math.isfinite(scale) and scale > 0):
        raise HarnessError(
            f"workload scale must be a finite number > 0, got {scale!r}"
        )


class Variant(enum.Enum):
    """The three executables of every figure in the paper."""

    #: The unmodified, non-hinting application.
    ORIGINAL = "original"
    #: The SpecHint-transformed executable.
    SPECULATING = "speculating"
    #: The manually modified (programmer-hinted) application.
    MANUAL = "manual"


@dataclass(frozen=True)
class ExperimentConfig:
    """One benchmark run."""

    app: str = "agrep"
    variant: Variant = Variant.ORIGINAL
    system: SystemConfig = dataclasses.field(default_factory=SystemConfig)

    #: File cache size in the paper's units (MB before the ~8x workload
    #: scaling); None keeps ``system.cache.capacity_blocks``, else finite
    #: and > 0.
    cache_paper_mb: Optional[float] = 12.0

    #: Workload scale factor (sweep benches use < 1 to stay fast); finite
    #: and > 0.
    workload_scale: float = 1.0

    #: SpecHint tool option: allow the handling routine to map any text
    #: address (extension ablation), not just function entries.
    map_all_addresses: bool = False

    #: Disk speed-up matching the workload scaling (see
    #: ``DiskParams.scaled``); None keeps ``system.disk`` untouched.
    disk_time_scale: Optional[float] = 4.0

    #: Chaos mode: the fault plan the run executes under — a built-in
    #: profile (``repro.faults.plan.profile(name, seed)``) or a generated
    #: one (the chaos fuzzer) — or None for a fault-free run.  The plan
    #: carries its own seed for the fault decision streams, independent of
    #: ``system.seed`` so one workload can be replayed under many fault
    #: sequences.
    fault_plan: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if self.app not in ALL_APPS:
            raise ValueError(
                f"unknown app {self.app!r}; expected one of {ALL_APPS}"
            )
        validate_workload_scale(self.workload_scale)
        mb = self.cache_paper_mb
        if mb is not None and not (math.isfinite(mb) and mb > 0):
            raise HarnessError(
                f"cache size must be a finite number of MB > 0, got {mb!r}"
            )

    def resolved_fault_plan(self) -> Optional[FaultPlan]:
        """The fault plan for this run, or None when fault-free.

        An inactive plan (the ``none`` profile) also resolves to None so
        ``--chaos none`` keeps the event stream bit-identical to a run
        without the flag.
        """
        plan = self.fault_plan
        return plan if plan is not None and plan.active else None

    def resolved_system(self) -> SystemConfig:
        """System config with cache size and disk time scale resolved.

        A fault plan must name only disks the array has.  One that kills a
        disk permanently forces redundancy on: a plain striped array cannot
        survive it, so the array is switched to rotating parity with at
        least one hot spare unless the caller already configured redundancy
        explicitly.
        """
        system = self.system
        if self.cache_paper_mb is not None:
            cache = dataclasses.replace(
                system.cache,
                capacity_blocks=scaled_cache_blocks(self.cache_paper_mb),
            )
            system = system.replace(cache=cache)
        if self.disk_time_scale is not None:
            system = system.replace(disk=DiskParams.scaled(self.disk_time_scale))
        plan = self.resolved_fault_plan()
        if plan is None:
            return system
        plan.check_disks(system.array.ndisks)
        if plan.permanent_death and system.array.redundancy == "none":
            array = dataclasses.replace(
                system.array,
                redundancy="parity",
                hot_spares=max(1, system.array.hot_spares),
            )
            system = system.replace(array=array)
        return system

    def with_(self, **kwargs: object) -> "ExperimentConfig":
        """Copy with top-level fields replaced."""
        return dataclasses.replace(self, **kwargs)
