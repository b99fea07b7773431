"""Builds a complete simulated system and runs one benchmark."""

from __future__ import annotations

import contextlib
import copy
import functools
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional

from repro.apps.agrep import AgrepWorkload, build_agrep_files, build_agrep_program
from repro.apps.gnuld import GnuldWorkload, build_gnuld_files, build_gnuld_program
from repro.apps.postgres import (
    PostgresWorkload,
    build_postgres_files,
    build_postgres_program,
)
from repro.apps.xdataslice import (
    XdsWorkload,
    build_xdataslice_files,
    build_xdataslice_program,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.fs.cache import BlockCache
from repro.fs.filesystem import FileSystem
from repro.fs.readahead import SequentialReadAhead
from repro.harness.config import ExperimentConfig, Variant, validate_workload_scale
from repro.harness.results import RunResult, median_interval
from repro.kernel.kernel import Kernel
from repro.params import CPU_HZ, SpecHintParams, SystemConfig
from repro.registry.fingerprint import params_digest
from repro.sim import metrics
from repro.sim.clock import SimClock
from repro.sim.engine import EventEngine
from repro.sim.stats import StatRegistry
from repro.spechint.tool import SpecHintTool, SpeculatingBinary
from repro.storage.striping import StripedArray
from repro.tip.manager import TipManager
from repro.trace.phases import stall_breakdown
from repro.trace.tracer import NULL_TRACER, Tracer
from repro.vm.binary import Binary


@dataclass
class System:
    """A fully wired simulated machine, ready to spawn processes."""

    config: SystemConfig
    clock: SimClock
    engine: EventEngine
    stats: StatRegistry
    fs: FileSystem
    array: StripedArray
    cache: BlockCache
    manager: TipManager
    kernel: Kernel
    injector: Optional[FaultInjector] = None
    tracer: Tracer = NULL_TRACER


def build_system(
    config: SystemConfig,
    fs: FileSystem,
    fault_plan: Optional[FaultPlan] = None,
    tracer: Tracer = NULL_TRACER,
) -> System:
    """Wire up disks, striping, cache, TIP and the kernel over ``fs``.

    Call after the file system has been populated (the striped array must
    cover every allocated block).  With ``fault_plan`` set, one
    :class:`FaultInjector` is threaded through the storage stack and the
    kernel; without it the machine is bit-identical to the fault-free
    simulator.  A live ``tracer`` is bound to the run's clock and threaded
    through every layer; the default :data:`NULL_TRACER` keeps the whole
    pipeline at one boolean test per instrumentation site.
    """
    clock = SimClock()
    engine = EventEngine(clock)
    stats = StatRegistry()
    if tracer.enabled:
        tracer.bind_clock(clock)
    injector: Optional[FaultInjector] = None
    if fault_plan is not None and fault_plan.active:
        injector = FaultInjector(fault_plan, config.cpu, clock, stats)
    array = StripedArray(
        fs.total_blocks, config.array, config.disk, config.cpu, engine, stats,
        injector=injector, tracer=tracer,
    )
    cache = BlockCache(config.cache.capacity_blocks, stats)
    readahead = SequentialReadAhead(config.cache.max_readahead_blocks)
    manager = TipManager(fs, array, cache, readahead, stats, config.tip,
                         tracer=tracer)
    kernel = Kernel(config, fs, manager, array, engine, clock, stats,
                    injector=injector, tracer=tracer)
    return System(config, clock, engine, stats, fs, array, cache, manager,
                  kernel, injector, tracer)


#: Callbacks invoked with every freshly wired :class:`System` just before
#: its kernel starts running.  The differential cell registers one to keep
#: the live system for its monitors even when the run raises
#: (``fuzz.observe_variant``), and so can a benchmark that counts what
#: each run built.
_SYSTEM_OBSERVERS: List[Callable[[System], None]] = []


def add_system_observer(callback: Callable[[System], None]) -> None:
    """Register a callback to see every system built by this process."""
    _SYSTEM_OBSERVERS.append(callback)


def remove_system_observer(callback: Callable[[System], None]) -> None:
    """Unregister a callback added by :func:`add_system_observer`."""
    with contextlib.suppress(ValueError):
        _SYSTEM_OBSERVERS.remove(callback)


@dataclass(frozen=True)
class _App:
    """How a cell of one app is built: the workload at a scale, the files
    a cell lays out in its own file system, and the program that reads
    them, which depends on the workload alone."""

    workload: Callable[[float], Any]
    files: Callable[[FileSystem, Any], None]
    program: Callable[[Any, bool], Binary]


_APPS: Dict[str, _App] = {
    "agrep": _App(AgrepWorkload().scaled, build_agrep_files, build_agrep_program),
    "gnuld": _App(GnuldWorkload().scaled, build_gnuld_files, build_gnuld_program),
    "xds": _App(XdsWorkload().scaled, build_xdataslice_files, build_xdataslice_program),
    "postgres20": _App(PostgresWorkload(selectivity_pct=20).scaled,
                       build_postgres_files, build_postgres_program),
    "postgres80": _App(PostgresWorkload(selectivity_pct=80).scaled,
                       build_postgres_files, build_postgres_program),
}


# Files per cell, programs per process (DESIGN §5.1).  A program is a
# function of its key alone, and nothing writes a built Binary, so every
# cell that asks for the same one shares it, together with the generated
# code hanging off it (``repro.vm.blocks.Translation``).  One entry per key
# the process has run: there is no size to choose.

@functools.cache
def _assembled(app: str, workload: Any, manual: bool) -> Binary:
    return _APPS[app].program(workload, manual)


def program(app: str, scale: float, manual: bool = False) -> Binary:
    """The program of ``app`` at workload ``scale`` (the manual-hints
    variant when ``manual``), assembled once per process."""
    validate_workload_scale(scale)
    return _assembled(app, _APPS[app].workload(scale), manual)


@functools.cache
def _transformed(original: Binary, map_all_addresses: bool) -> SpeculatingBinary:
    return SpecHintTool(map_all_addresses=map_all_addresses).transform(original)


def speculating(
    original: Binary,
    params: SpecHintParams,
    map_all_addresses: bool,
) -> SpeculatingBinary:
    """SpecHint's speculating executable of ``original`` whose runtime reads
    ``params``.  The tool reads none of ``params`` — it only records them
    for the runtime — so it runs once per program and tool options (the
    paper's tool, too, transforms each executable once), and executables
    that differ in ``params`` alone are shallow copies that share their
    text, tables and generated code (``translations``).
    ``SpecHintTool.transform`` itself is not memoised: Table 3 times it."""
    shared = _transformed(original, map_all_addresses)
    if params == shared.spec_meta.params:
        return shared
    twin = copy.copy(shared)
    twin.spec_meta = replace(shared.spec_meta, params=params)
    return twin


def run_experiment(
    cfg: ExperimentConfig,
    tracer: Tracer = NULL_TRACER,
) -> RunResult:
    """Run one benchmark in one configuration; returns the result record."""
    result, _ = run_experiment_with_system(cfg, tracer=tracer)
    return result


def run_experiment_with_system(
    cfg: ExperimentConfig,
    tracer: Tracer = NULL_TRACER,
) -> "tuple[RunResult, System]":
    """:func:`run_experiment`, but also hands back the finished system.

    Trace consumers (the ``repro trace`` command, tests) need the live
    objects — the hint-lifecycle ledger, the kernel — not just the result
    record.  The returned system still answers for its counters, the
    lifecycle ledger, the stall breakdown, audit tables and monitors, but
    its files are closed: the file system lives as long as the run, so
    when this returns or raises every inode has let go of its bytes
    (:meth:`FileSystem.release`) and reading one raises.  A caller that
    keeps the system while the next cell runs keeps no dataset alive.
    """
    system_config = cfg.resolved_system()
    fs = FileSystem(allocation_jitter_blocks=24, seed=system_config.seed)
    try:
        app = _APPS[cfg.app]
        workload = app.workload(cfg.workload_scale)
        app.files(fs, workload)
        binary = _assembled(cfg.app, workload, cfg.variant is Variant.MANUAL)

        transform_report = None
        if cfg.variant is Variant.SPECULATING:
            binary = speculating(binary, system_config.spechint,
                                 cfg.map_all_addresses)
            transform_report = binary.spec_meta.report

        fault_plan = cfg.resolved_fault_plan()
        system = build_system(system_config, fs, fault_plan=fault_plan,
                              tracer=tracer)
        for observer in _SYSTEM_OBSERVERS:
            observer(system)
        process = system.kernel.spawn(binary)
        system.kernel.run()
        # A rebuild that outlives the workload finishes on the sim clock here,
        # so its completion time lands in the run's deterministic results.  The
        # workload-completion cycle is recorded first (only in this case, so
        # fault-free counter snapshots are unchanged): total cycles then cover
        # workload + drain, and consumers comparing against a healthy run need
        # the pre-drain mark to measure demand-path slowdown.
        if system.array.rebuild_active:
            system.stats.bump(metrics.WORKLOAD_COMPLETED_CYCLE, system.clock.now)
            system.array.drain_rebuild()
        system.manager.finalize()

        read_dist = system.stats.distribution_or_none(metrics.APP_READ_CALL_CPU)
        hint_dist = system.stats.distribution_or_none(metrics.APP_HINT_CALL_CPU)

        result = RunResult(
            app=cfg.app,
            variant=cfg.variant.value,
            cycles=system.clock.now,
            cpu_hz=CPU_HZ,
            counters=system.stats.snapshot(),
            output=bytes(process.output),
            median_read_interval=median_interval(read_dist.values) if read_dist else 0.0,
            median_hint_interval=median_interval(hint_dist.values) if hint_dist else 0.0,
            transform_report=transform_report,
            footprint_bytes=process.vmstat.footprint_bytes,
            page_reclaims=process.vmstat.reclaims,
            page_faults=process.vmstat.faults,
            fault_profile=fault_plan.name if fault_plan is not None else None,
        )
        # Registry identity: everything the run ledger keys on must be stamped
        # on the result itself, so a payload shipped back from a worker process
        # carries its own keys (the recorder never sees the config).
        result.params_digest = params_digest(cfg)
        result.seed = system_config.seed
        result.read_trace = tuple(process.read_trace)
        result.stall_breakdown = stall_breakdown(system.kernel).to_jsonable()
        lifecycle = system.manager.lifecycle
        result.hint_lifecycle = lifecycle.summary_counts()
        result.hint_lead_median = lifecycle.lead_times.percentile(50.0)
        result.pct_prefetches_before_demand = lifecycle.pct_ready_before_demand
        if process.spec is not None:
            result.audit_records = process.spec.auditor.table.records_total
            result.audit_head_digest = process.spec.auditor.table.head_digest
        return result, system
    finally:
        # The run's files end with it, raising or not (DESIGN §5.1).
        fs.release()
