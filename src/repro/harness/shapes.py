"""The paper's experiments and the shapes the reproduction must keep.

One :class:`Experiment` per table, figure and ablation of the paper's
evaluation: §4's Figures 1 and 3-6, Tables 1 and 3-8 and the §4.4
dilation factors, the §3.2.1 and §5 ablations, §3's contention caveat,
and the Table 1 Postgres join as an extension.  Each holds what it runs,
the predicates its result must satisfy — the paper's *shape*: who wins,
by roughly what factor, where the crossovers are — and the
:mod:`repro.harness.tables` formatter that renders it.

:func:`write_document` (``repro paper DOC``) runs every experiment at each
model seed of :data:`SEEDS` and rewrites the blocks of DOC between
``<!-- repro paper: KEY -->`` and ``<!-- /repro paper -->``: the
experiment's table at the first seed, then a predicate x seed grid of
verdicts.  Text outside the markers is kept byte for byte.

The cells of every experiment and seed run as one grid on the cell
engine, on as many workers as the process has CPUs, and each distinct
configuration runs once.  Figure 1, Table 3 and the multiprogramming
ablation build their own systems, so their folds run in this process.
"""

from __future__ import annotations

import functools
import os
import re
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.apps.agrep import AgrepWorkload, build_agrep_files
from repro.errors import HarnessError
from repro.fs.filesystem import FileSystem
from repro.harness import paper, tables
from repro.harness.config import APPS, ExperimentConfig, Variant
from repro.harness.experiments import (
    SWEEP_POINTS,
    Matrix,
    run_config_payload,
    sweep_cell_config,
)
from repro.harness.parallel import run_cells
from repro.harness.results import RunResult
from repro.harness.runner import build_system, program, speculating
from repro.params import (
    BLOCK_SIZE,
    CPU_HZ,
    ArrayParams,
    CacheParams,
    CpuParams,
    DiskParams,
    SpecHintParams,
    SystemConfig,
    TipParams,
)
from repro.registry.fingerprint import params_digest
from repro.sim import metrics
from repro.spechint.tool import SpecHintTool
from repro.vm.assembler import Assembler
from repro.vm.binary import Binary
from repro.vm.isa import SYS_EXIT, SYS_OPEN, SYS_READ, Reg

#: Model seeds (``SystemConfig.seed``) every experiment runs at.  The first
#: is every other command's default: the document prints its tables, and a
#: predicate that fails at it fails ``repro paper``.
SEEDS = (1999, 1, 2)

ORIGINAL, SPEC, MANUAL = (v.value for v in Variant)


@dataclass(frozen=True)
class Predicate:
    """One shape claim, checked case by case.

    ``cases(data)`` maps a case label (an app, a sweep point) to its
    measured value, or to a tuple of values, and ``holds(*values)`` is the
    claim's comparison.
    """

    text: str
    cases: Callable[[Any], Mapping[str, Any]]
    holds: Callable[..., bool]

    def violations(self, data: Any) -> List[str]:
        """Each case that breaks the claim, with its measured numbers; an
        empty list means the claim holds."""
        failed = []
        for label, value in self.cases(data).items():
            values = value if isinstance(value, tuple) else (value,)
            if not self.holds(*values):
                failed.append(f"{label} " + " vs ".join(
                    f"{v:.3g}" if isinstance(v, float) else str(v)
                    for v in values))
        return failed


@dataclass(frozen=True)
class Experiment:
    """What one paper experiment runs, the shape it keeps, how it prints."""

    #: The document's marker name (``<!-- repro paper: KEY -->``).
    key: str
    #: ``cells(seed)``: what it runs at one model seed, a nested mapping
    #: (dicts and tuples) whose ``ExperimentConfig`` leaves are cells.
    cells: Callable[[int], Any]
    render: Callable[[Any], str]
    predicates: Tuple[Predicate, ...]
    #: ``fold(ran)``: its data from ``cells(seed)`` with each config
    #: replaced by its ``RunResult``; other leaves come through as they are.
    fold: Callable[[Any], Any] = lambda ran: ran


# -- what the experiments run ------------------------------------------------

def _config(seed: int, app: str, variant: Variant, system: SystemConfig = SystemConfig(),
            **fields: Any) -> ExperimentConfig:
    return ExperimentConfig(app=app, variant=variant, system=system.replace(seed=seed), **fields)


def _matrix(apps: Iterable[str] = APPS) -> Callable[[int], Any]:
    """Every (app, variant) on the default system: Figure 3's grid."""
    return lambda seed: {app: {v.value: _config(seed, app, v) for v in Variant} for app in apps}


def _sweep(kind: str) -> Callable[[int], Any]:
    """One ``repro sweep KIND`` grid: the same cells, at ``seed``."""
    def cell(seed: int, point: Any, app: str, variant: Variant) -> ExperimentConfig:
        cfg = sweep_cell_config(kind, point, app, variant)
        return cfg.with_(system=cfg.system.replace(seed=seed))
    return lambda seed: {point: {app: {v.value: cell(seed, point, app, v) for v in Variant}
                                 for app in APPS} for point in SWEEP_POINTS[kind]}


def _pair(seed: int, app: str, system: SystemConfig = SystemConfig(),
          **spec_fields: Any) -> Tuple[ExperimentConfig, ExperimentConfig]:
    """(original, speculating) on ``system``; ``spec_fields`` configure the
    speculating run only."""
    return (_config(seed, app, Variant.ORIGINAL, system),
            _config(seed, app, Variant.SPECULATING, system, **spec_fields))


def _gain(matrix: Matrix, app: str, variant: str = SPEC) -> float:
    """% elapsed-time reduction of ``variant`` over the original."""
    results = matrix[app]
    return results[variant].improvement_over(results[ORIGINAL])


def _pair_gain(pair: Tuple[RunResult, RunResult]) -> float:
    """% elapsed-time reduction of an (original, speculating) pair."""
    original, spec = pair
    return spec.improvement_over(original)


#: Figure 1's disk access: ~three million cycles on the 233 MHz processor.
#: Slightly above 3 M so the third hint lands strictly inside the first
#: stall (the paper's idealized example has speculation proceed at
#: *exactly* normal pace, a razor-edge tie).
FIG1_DISK_CYCLES = 3_300_000

#: The four blocks Figure 1's program reads: 0, 1, 2 land on disks 0, 1, 2;
#: block 9 is back on disk 0 at a non-adjacent position (in the paper's
#: figure, one disk services both the first and the last read).
FIG1_READ_BLOCKS = (0, 1, 2, 9)


def figure1_system_config(seed: int = SEEDS[0]) -> SystemConfig:
    """Figure 1's machine: three disks, and no overhead anywhere, so
    speculation runs at exactly the pace of normal execution."""
    idealized_cpu = CpuParams(
        syscall_cycles=0,
        hintlog_check_cycles=0,
        restart_request_cycles=0,
        spec_init_cycles=0,
        context_switch_cycles=0,
        read_copy_cycles_per_byte=0.0,
        page_reclaim_cycles=0,
        page_fault_cycles=0,
    )
    return SystemConfig(
        cpu=idealized_cpu,
        disk=DiskParams(
            positioning_s=FIG1_DISK_CYCLES / CPU_HZ,
            transfer_bps=1e12,       # negligible transfer time
            track_buffer_bps=1e12,
            track_readahead_blocks=0,  # no drive read-ahead in the example
            overhead_s=0.0,
        ),
        array=ArrayParams(ndisks=3, stripe_unit=BLOCK_SIZE),
        cache=CacheParams(capacity_blocks=64, max_readahead_blocks=0),
        spechint=SpecHintParams(restart_fixed_cycles=0,
                                restart_stack_copy_cycles_per_byte=0.0),
        seed=seed,
    )


def figure1_binary() -> Binary:
    """Four reads of uncached blocks, a million cycles of work before each."""
    asm = Assembler("figure1")
    asm.data_asciiz("path", "data")
    asm.data_space("buf", BLOCK_SIZE)
    asm.data_words("offsets", [b * BLOCK_SIZE for b in FIG1_READ_BLOCKS])
    asm.entry("main")
    with asm.function("main"):
        asm.la(Reg.a0, "path")
        asm.syscall(SYS_OPEN)
        asm.mov(Reg.s1, Reg.v0)
        asm.li(Reg.s0, 0)
        asm.label("loop")
        asm.li(Reg.at, len(FIG1_READ_BLOCKS))
        asm.bge(Reg.s0, Reg.at, "done")
        asm.cwork(1_000_000, 0, 0)  # one million cycles of processing
        asm.la(Reg.t0, "offsets")
        asm.shli(Reg.t1, Reg.s0, 3)
        asm.add(Reg.t0, Reg.t0, Reg.t1)
        asm.load(Reg.a1, Reg.t0, 0)
        asm.mov(Reg.a0, Reg.s1)
        asm.li(Reg.a2, 0)
        asm.syscall(6)  # lseek SEEK_SET
        asm.mov(Reg.a0, Reg.s1)
        asm.la(Reg.a1, "buf")
        asm.li(Reg.a2, BLOCK_SIZE)
        asm.syscall(SYS_READ)
        asm.addi(Reg.s0, Reg.s0, 1)
        asm.jmp("loop")
        asm.label("done")
        asm.li(Reg.a0, 0)
        asm.syscall(SYS_EXIT)
    return asm.finish()


def run_figure1(transform: bool, seed: int = SEEDS[0]) -> int:
    """Figure 1's program to completion; returns its elapsed cycles."""
    fs = FileSystem()
    fs.create("data", bytes(12 * BLOCK_SIZE))
    binary = figure1_binary()
    if transform:
        binary = SpecHintTool().transform(binary)
    system = build_system(figure1_system_config(seed), fs)
    system.kernel.spawn(binary)
    system.kernel.run()
    return system.clock.now


def spinner_binary(iterations: int = 3_000) -> Binary:
    """A compute-bound process that never reads."""
    asm = Assembler("spinner")
    asm.entry("main")
    with asm.function("main"):
        asm.li(Reg.s0, 0)
        asm.label("spin")
        asm.li(Reg.at, iterations)
        asm.bge(Reg.s0, Reg.at, "done")
        asm.cwork(50_000, 0, 0)
        asm.addi(Reg.s0, Reg.s0, 1)
        asm.jmp("spin")
        asm.label("done")
        asm.li(Reg.a0, 0)
        asm.syscall(SYS_EXIT)
    return asm.finish()


def run_multiprogrammed_agrep(contended: bool, seed: int) -> Tuple[int, int, int]:
    """The speculating Agrep, alone or beside :func:`spinner_binary`;
    returns (speculating-thread cycles, hints issued, reads hinted)."""
    config = _config(seed, "agrep", Variant.SPECULATING).resolved_system()
    fs = FileSystem(allocation_jitter_blocks=24, seed=config.seed)
    build_agrep_files(fs, AgrepWorkload())
    system = build_system(config, fs)
    agrep = system.kernel.spawn(
        speculating(program("agrep", 1.0), SpecHintParams(), False))
    if contended:
        system.kernel.spawn(spinner_binary())
    system.kernel.run()
    # The spinner does not speculate: the system's hints are all Agrep's.
    return (agrep.spec_thread.cpu_cycles,
            system.stats.get(metrics.SPEC_HINTS_ISSUED),
            system.stats.get(metrics.TIP_HINTED_READ_CALLS))


def _transform_reports(_: None) -> List[Any]:
    """Table 3's transformations; the tool takes no seed."""
    tool = SpecHintTool()
    return [tool.transform(program(app, 1.0)).spec_meta.report
            for app in ("agrep", "gnuld", "xds")]


def _overheads(seed: int) -> Dict[str, Tuple[ExperimentConfig, ExperimentConfig]]:
    """Figure 4: a pair per app with hints ignored; folded to the % extra
    cycles of speculating over original."""
    system = SystemConfig(tip=TipParams(ignore_hints=True))
    return {app: _pair(seed, app, system) for app in APPS}


def _region_gains(seed: int) -> Dict[int, Dict[str, Tuple[ExperimentConfig, ExperimentConfig]]]:
    """§3.2.1: a pair per app and COW region size; folded to its gain."""
    return {region: {app: _pair(seed, app, SystemConfig(
        spechint=SpecHintParams(cow_region_size=region))) for app in APPS}
        for region in (128, 1024, 8192)}


def _map_all(seed: int) -> Dict[bool, Dict[str, Tuple[ExperimentConfig, ExperimentConfig]]]:
    """§3.2.1: a pair per app, mapping function entries only (False) or any
    text address (True); folded to (improvement, left-shadow parks)."""
    return {lifted: {app: _pair(seed, app, map_all_addresses=lifted) for app in APPS}
            for lifted in (False, True)}


def _throttle(seed: int) -> Dict[str, Tuple[ExperimentConfig, ExperimentConfig]]:
    """§5: 1-disk Gnuld with the cancel-triggered throttle off and on."""
    return {f"throttle {'on' if on else 'off'}": _pair(seed, "gnuld", SystemConfig(
        array=ArrayParams(ndisks=1),
        spechint=SpecHintParams(throttle_cancel_limit=4 if on else 0, throttle_disable_reads=48)))
        for on in (False, True)}


def _multiprocessor(seed: int) -> Dict[str, Tuple[ExperimentConfig, ExperimentConfig]]:
    """§5: Agrep at 10 disks on one and two CPUs."""
    return {f"{n} CPU(s)": _pair(seed, "agrep", SystemConfig(
        array=ArrayParams(ndisks=10), ncpus=n)) for n in (1, 2)}


# -- the experiments ---------------------------------------------------------

_SMALL, _BIG = SWEEP_POINTS["cache"][0], SWEEP_POINTS["cache"][-1]
_FIRST, _LAST = SWEEP_POINTS["ratio"][0], SWEEP_POINTS["ratio"][-1]


def _spec(matrix: Matrix, app: str, field: str) -> Any:
    return getattr(matrix[app][SPEC], field)


def _versus(matrix: Matrix, field: str, variant: str) -> Dict[str, Tuple[Any, Any]]:
    """Per app: (``variant``'s ``field``, the original's)."""
    return {app: (getattr(results[variant], field), getattr(results[ORIGINAL], field))
            for app, results in matrix.items()}


def _gap(matrix: Matrix, app: str) -> float:
    """Points by which manual beats speculating."""
    return _gain(matrix, app, MANUAL) - _gain(matrix, app)


def _prefetched(matrix: Matrix, app: str, variant: str, field: str) -> float:
    """``field`` as a fraction of the run's prefetched blocks."""
    result = matrix[app][variant]
    return getattr(result, field) / max(1, result.prefetched_blocks)


def _table1(matrix: Matrix) -> Dict[str, Tuple[float, float]]:
    """Per app: (manual improvement, the paper's Table 1 value)."""
    return {a: (_gain(matrix, a, MANUAL), paper.TABLE1_MANUAL_IMPROVEMENT[a]) for a in APPS}


EXPERIMENTS: Tuple[Experiment, ...] = (
    Experiment("fig1", lambda seed: seed, lambda cycles: tables.format_fig1(*cycles), (
        Predicate("normal execution takes ≥ 15 Mcycles (4 × (1 M compute + ~3 M stall))",
                  lambda c: {"normal cycles": c[0]}, lambda normal: normal >= 15_000_000),
        Predicate("speculation more than halves it (speedup > 2)",
                  lambda c: {"speedup": c[0] / c[1]}, lambda speedup: speedup > 2.0),
    ), fold=lambda seed: (run_figure1(False, seed), run_figure1(True, seed))),
    Experiment("fig3", _matrix(), tables.format_fig3, (
        Predicate("speculating cuts every app's time by > 25 %",
                  lambda m: {a: _gain(m, a) for a in APPS}, lambda gain: gain > 25),
        Predicate("manual cuts every app's time by > 55 %",
                  lambda m: {a: _gain(m, a, MANUAL) for a in APPS}, lambda gain: gain > 55),
        Predicate("Agrep, XDataSlice: speculating within 10 points of manual",
                  lambda m: {a: abs(_gap(m, a)) for a in ("agrep", "xds")}, lambda gap: gap < 10),
        Predicate("Gnuld: speculating > 5 points below manual",
                  lambda m: {"gnuld": (_gain(m, "gnuld"), _gain(m, "gnuld", MANUAL))},
                  lambda spec, manual: spec < manual - 5),
    )),
    Experiment("fig4", _overheads, tables.format_fig4, (
        Predicate("overhead with hints ignored ≤ the paper's 4 % bound",
                  lambda o: o, lambda pct: pct <= paper.FIG4_MAX_OVERHEAD_PCT),
        Predicate("overhead ≥ −1 % (speculating is not implausibly faster)",
                  lambda o: o, lambda pct: pct >= -1.0),
    ), fold=lambda pairs: {app: 100.0 * (spec.cycles - orig.cycles) / orig.cycles
                           for app, (orig, spec) in pairs.items()}),
    Experiment("table1", _matrix(), tables.format_table1, (
        Predicate("manual gain > the paper's Table 1 value − 25",
                  _table1, lambda gain, expected: gain > expected - 25),
        Predicate("manual gain < the paper's Table 1 value + 20",
                  _table1, lambda gain, expected: gain < expected + 20),
    )),
    Experiment("table3", lambda seed: None, tables.format_table3, (
        Predicate("every transformation takes < 60 s of host time",
                  lambda rs: {r.binary_name: r.modification_time_s for r in rs},
                  lambda seconds: seconds < 60),
        Predicate("every transformation grows the binary by > 50 %",
                  lambda rs: {r.binary_name: r.size_increase_pct for r in rs},
                  lambda pct: pct > 50),
        Predicate("one shadow instruction per original instruction",
                  lambda rs: {r.binary_name: (r.shadow_insns, r.original_insns) for r in rs},
                  lambda shadow, original: shadow == original),
        Predicate("growth: Agrep > Gnuld (the smaller binary grows more)",
                  lambda rs: {"agrep vs gnuld": (rs[0].size_increase_pct, rs[1].size_increase_pct)},
                  lambda agrep, gnuld: agrep > gnuld),
        Predicate("growth: Gnuld > XDataSlice",
                  lambda rs: {"gnuld vs xds": (rs[1].size_increase_pct, rs[2].size_increase_pct)},
                  lambda gnuld, xds: gnuld > xds),
    ), fold=_transform_reports),
    Experiment("table4", _matrix(), tables.format_table4, (
        Predicate("Agrep: % calls hinted > 15 points below % bytes (its unhinted EOF reads)",
                  lambda m: {"agrep": (_spec(m, "agrep", "pct_calls_hinted"),
                                       _spec(m, "agrep", "pct_bytes_hinted"))},
                  lambda calls, bytes_: calls < bytes_ - 15),
        Predicate("Agrep: > 90 % of bytes hinted",
                  lambda m: {"agrep": _spec(m, "agrep", "pct_bytes_hinted")}, lambda pct: pct > 90),
        Predicate("Agrep: ≤ 2 inaccurate hints",
                  lambda m: {"agrep": _spec(m, "agrep", "inaccurate_hints")}, lambda n: n <= 2),
        Predicate("XDataSlice: ≤ 10 inaccurate hints",
                  lambda m: {"xds": _spec(m, "xds", "inaccurate_hints")}, lambda n: n <= 10),
        Predicate("Gnuld: > 100 inaccurate hints (its data dependences)",
                  lambda m: {"gnuld": _spec(m, "gnuld", "inaccurate_hints")}, lambda n: n > 100),
        Predicate("XDataSlice: > 85 % of calls hinted",
                  lambda m: {"xds": _spec(m, "xds", "pct_calls_hinted")}, lambda pct: pct > 85),
        Predicate("manual hints ≥ speculating's share of calls − 3",
                  lambda m: {a: (m[a][MANUAL].pct_calls_hinted, _spec(m, a, "pct_calls_hinted"))
                             for a in APPS},
                  lambda manual, spec: manual >= spec - 3),
    )),
    Experiment("table5", _matrix(), tables.format_table5, (
        Predicate("original XDataSlice: > 30 % of read-ahead unused",
                  lambda m: {"xds": _prefetched(m, "xds", ORIGINAL, "prefetched_unused")},
                  lambda unused: unused > 0.30),
        Predicate("manual XDataSlice: unused share < ⅓ of the original's",
                  lambda m: {"xds": tuple(_prefetched(m, "xds", v, "prefetched_unused")
                                          for v in (MANUAL, ORIGINAL))},
                  lambda manual, original: manual < original / 3),
        Predicate("Gnuld: speculating leaves more prefetches unused than manual",
                  lambda m: {"gnuld": (_spec(m, "gnuld", "prefetched_unused"),
                                       m["gnuld"][MANUAL].prefetched_unused)},
                  lambda spec, manual: spec > manual),
        Predicate("Agrep, XDataSlice: hints raise the fully-prefetched share",
                  lambda m: {a: tuple(_prefetched(m, a, v, "prefetched_fully")
                                      for v in (SPEC, ORIGINAL)) for a in ("agrep", "xds")},
                  lambda spec, original: spec > original),
        Predicate("speculation keeps ≥ half the original's cache reuse",
                  lambda m: _versus(m, "cache_block_reuses", SPEC),
                  lambda spec, original: spec >= original * 0.5),
    )),
    Experiment("table6", _matrix(), tables.format_table6, (
        Predicate("speculating footprint > original",
                  lambda m: _versus(m, "footprint_bytes", SPEC),
                  lambda spec, original: spec > original),
        Predicate("manual footprint ≤ 1.2 × original",
                  lambda m: _versus(m, "footprint_bytes", MANUAL),
                  lambda manual, original: manual <= original * 1.2),
        Predicate("speculating page reclaims ≥ original",
                  lambda m: _versus(m, "page_reclaims", SPEC),
                  lambda spec, original: spec >= original),
        Predicate("speculating page faults ≥ original",
                  lambda m: _versus(m, "page_faults", SPEC),
                  lambda spec, original: spec >= original),
        Predicate("speculating Gnuld raises signals",
                  lambda m: {"gnuld": _spec(m, "gnuld", "spec_signals")}, lambda n: n > 0),
        Predicate("speculating Agrep raises none",
                  lambda m: {"agrep": _spec(m, "agrep", "spec_signals")}, lambda n: n == 0),
    )),
    Experiment("table7", _sweep("cache"), tables.SWEEP_FORMATTERS["cache"], (
        Predicate(f"original Gnuld: {_BIG:g} MB time < 0.9 × {_SMALL:g} MB",
                  lambda s: {"gnuld": (s[_BIG]["gnuld"][ORIGINAL].elapsed_s,
                                       s[_SMALL]["gnuld"][ORIGINAL].elapsed_s)},
                  lambda big, small: big < small * 0.9),
        Predicate(f"manual Gnuld gains less at {_BIG:g} MB than at {_SMALL:g} MB",
                  lambda s: {"gnuld": (_gain(s[_BIG], "gnuld", MANUAL),
                                       _gain(s[_SMALL], "gnuld", MANUAL))},
                  lambda big, small: big < small),
        Predicate(f"speculating Gnuld's gain at {_BIG:g} MB < at {_SMALL:g} MB + 5",
                  lambda s: {"gnuld": (_gain(s[_BIG], "gnuld"), _gain(s[_SMALL], "gnuld"))},
                  lambda big, small: big < small + 5),
        Predicate("original Agrep flat: slowest < 1.15 × fastest",
                  lambda s: {"agrep": (max(m["agrep"][ORIGINAL].elapsed_s for m in s.values()),
                                       min(m["agrep"][ORIGINAL].elapsed_s for m in s.values()))},
                  lambda slowest, fastest: slowest < fastest * 1.15),
        Predicate("manual gains > 15 % at every cache size",
                  lambda s: {f"{a} @{mb:g}": _gain(m, a, MANUAL)
                             for mb, m in s.items() for a in APPS},
                  lambda gain: gain > 15),
        Predicate("speculating gains > 15 % at every cache size",
                  lambda s: {f"{a} @{mb:g}": _gain(m, a) for mb, m in s.items() for a in APPS},
                  lambda gain: gain > 15),
    )),
    Experiment("table8-fig5", _sweep("disks"), tables.SWEEP_FORMATTERS["disks"], (
        Predicate("originals: 10-disk time > 0.55 × 1-disk time",
                  lambda s: {a: (s[10][a][ORIGINAL].elapsed_s, s[1][a][ORIGINAL].elapsed_s)
                             for a in APPS},
                  lambda ten, one: ten > one * 0.55),
        Predicate("Agrep, XDataSlice: hinting gains less with 1 disk than 4",
                  lambda s: {f"{a} {v}": (_gain(s[1], a, v), _gain(s[4], a, v))
                             for a in ("agrep", "xds") for v in (SPEC, MANUAL)},
                  lambda one, four: one < four),
        Predicate("1 disk: speculating Gnuld > 10 points below manual",
                  lambda s: {"gnuld": (_gain(s[1], "gnuld"), _gain(s[1], "gnuld", MANUAL))},
                  lambda spec, manual: spec < manual - 10),
        Predicate("speculating Gnuld gains less with 1 disk than 4",
                  lambda s: {"gnuld": (_gain(s[1], "gnuld"), _gain(s[4], "gnuld"))},
                  lambda one, four: one < four),
        Predicate("manual gain at 10 disks ≥ at 1",
                  lambda s: {a: (_gain(s[10], a, MANUAL), _gain(s[1], a, MANUAL)) for a in APPS},
                  lambda ten, one: ten >= one),
        Predicate("Agrep's manual − speculating gap at 10 disks ≥ at 4 − 1",
                  lambda s: {"agrep": (_gap(s[10], "agrep"), _gap(s[4], "agrep"))},
                  lambda ten, four: ten >= four - 1.0),
    )),
    Experiment("fig6", _sweep("ratio"), tables.SWEEP_FORMATTERS["ratio"], (
        Predicate(f"manual gain at ratio {_LAST} > at {_FIRST} − 8",
                  lambda s: {a: (_gain(s[_LAST], a, MANUAL), _gain(s[_FIRST], a, MANUAL))
                             for a in APPS},
                  lambda last, first: last > first - 8),
        Predicate("Agrep's manual − speculating gap at ratio 9 ≤ at 1 + 2",
                  lambda s: {"agrep": (_gap(s[9], "agrep"), _gap(s[1], "agrep"))},
                  lambda at_9, at_1: at_9 <= at_1 + 2),
        Predicate("Gnuld: speculating below manual at every ratio",
                  lambda s: {f"@{r}": (_gain(m, "gnuld"), _gain(m, "gnuld", MANUAL))
                             for r, m in s.items()},
                  lambda spec, manual: spec < manual),
        Predicate("XDataSlice: speculating within 15 points of manual at every ratio",
                  lambda s: {f"@{r}": abs(_gap(m, "xds")) for r, m in s.items()},
                  lambda gap: gap < 15),
    )),
    Experiment("section44", _matrix(), tables.format_section44, (
        Predicate("every dilation factor > 1 (COW checks slow speculation)",
                  lambda m: {a: _spec(m, a, "dilation_factor") for a in APPS},
                  lambda dilation: dilation > 1.0),
        Predicate("Agrep dilates > 2 × Gnuld",
                  lambda m: {"agrep vs gnuld": (_spec(m, "agrep", "dilation_factor"),
                                                _spec(m, "gnuld", "dilation_factor"))},
                  lambda agrep, gnuld: agrep > 2 * gnuld),
        Predicate("Agrep dilates > 2 × XDataSlice",
                  lambda m: {"agrep vs xds": (_spec(m, "agrep", "dilation_factor"),
                                              _spec(m, "xds", "dilation_factor"))},
                  lambda agrep, xds: agrep > 2 * xds),
        Predicate("Gnuld's dilation in (1, 3)",
                  lambda m: {"gnuld": _spec(m, "gnuld", "dilation_factor")},
                  lambda dilation: 1.0 < dilation < 3.0),
        Predicate("XDataSlice's dilation in (1, 3)",
                  lambda m: {"xds": _spec(m, "xds", "dilation_factor")},
                  lambda dilation: 1.0 < dilation < 3.0),
    )),
    Experiment("ablation-cow-region", _region_gains, tables.format_cow_region, (
        Predicate("region size moves no app's gain by 15 points or more",
                  lambda g: {a: max(r[a] for r in g.values()) - min(r[a] for r in g.values())
                             for a in APPS},
                  lambda spread: spread < 15),
        Predicate("speculating gains > 20 % at every region size",
                  lambda g: {f"{a} @{region}": r[a] for region, r in g.items() for a in APPS},
                  lambda gain: gain > 20),
    ), fold=lambda pairs: {region: {app: _pair_gain(pair) for app, pair in by_app.items()}
                           for region, by_app in pairs.items()}),
    Experiment("ablation-throttle", _throttle, functools.partial(
        tables.format_pairs, "Ablation - cancel-triggered throttle (Gnuld, 1 disk)"), (
        Predicate("the throttle cuts inaccurate hints",
                  lambda r: {"on vs off": (r["throttle on"][1].inaccurate_hints,
                                           r["throttle off"][1].inaccurate_hints)},
                  lambda on, off: on < off),
        Predicate("the throttle cuts cancel calls",
                  lambda r: {"on vs off": (r["throttle on"][1].spec_cancel_calls,
                                           r["throttle off"][1].spec_cancel_calls)},
                  lambda on, off: on < off),
        Predicate("throttled gain > unthrottled gain − 5",
                  lambda r: {"on vs off": (_pair_gain(r["throttle on"]),
                                           _pair_gain(r["throttle off"]))},
                  lambda on, off: on > off - 5),
    )),
    Experiment("ablation-multiprocessor", _multiprocessor, functools.partial(
        tables.format_pairs, "Ablation - multiprocessor speculation (Agrep, 10 disks)"), (
        Predicate("a second CPU: no more fell-behind restarts",
                  lambda r: {"2 vs 1 CPU": (r["2 CPU(s)"][1].spec_restarts,
                                            r["1 CPU(s)"][1].spec_restarts)},
                  lambda mp, up: mp <= up),
        Predicate("a second CPU: gain ≥ uniprocessor gain − 2",
                  lambda r: {"2 vs 1 CPU": (_pair_gain(r["2 CPU(s)"]), _pair_gain(r["1 CPU(s)"]))},
                  lambda mp, up: mp >= up - 2.0),
    )),
    Experiment("ablation-multiprogramming", lambda seed: seed, tables.format_multiprogramming, (
        Predicate("a competitor cuts speculation's CPU below 0.9 × alone",
                  lambda r: {"contended vs alone": (r[True][0], r[False][0])},
                  lambda contended, alone: contended < alone * 0.9),
        Predicate("a competitor leaves no more reads hinted",
                  lambda r: {"contended vs alone": (r[True][2], r[False][2])},
                  lambda contended, alone: contended <= alone),
    ), fold=lambda seed: {c: run_multiprogrammed_agrep(c, seed) for c in (False, True)}),
    Experiment("ext-postgres", _matrix(apps=("postgres20", "postgres80")),
               tables.format_postgres, (
        Predicate("speculating cuts each join's time by > 25 %",
                  lambda m: {a: _gain(m, a) for a in m}, lambda gain: gain > 25),
        Predicate("manual cuts each join's time by > 20 %",
                  lambda m: {a: _gain(m, a, MANUAL) for a in m}, lambda gain: gain > 20),
        Predicate("the 80 % join gains more from manual hints than the 20 %",
                  lambda m: {"80 vs 20": (_gain(m, "postgres80", MANUAL),
                                          _gain(m, "postgres20", MANUAL))},
                  lambda high, low: high > low),
    )),
    Experiment("ablation-map-all", _map_all, tables.format_map_all, (
        Predicate("mapping all addresses leaves no left-shadow park",
                  lambda r: {a: r[True][a][1] for a in APPS}, lambda parks: parks == 0),
        Predicate("mapping all addresses costs less than 3 points of gain",
                  lambda r: {a: (r[True][a][0], r[False][a][0]) for a in APPS},
                  lambda lifted, restricted: lifted >= restricted - 3),
    ), fold=lambda pairs: {lifted: {app: (_pair_gain(pair), pair[1].c("spec.park.left_shadow"))
                                    for app, pair in by_app.items()}
                           for lifted, by_app in pairs.items()}),
)


# -- the document ------------------------------------------------------------

#: The marker of the computed summary line.
SUMMARY = "summary"

_BLOCK = re.compile(
    r"(<!-- repro paper: ([\w-]+) -->\n)(.*?)(<!-- /repro paper -->)", re.S)


@dataclass(frozen=True)
class Outcome:
    """One experiment, measured at every seed."""

    #: The experiment rendered at the first seed.
    table: str
    #: Per seed, in seed order: each predicate's violations.
    violations: Mapping[int, Sequence[Sequence[str]]]

    def holds(self, seed: int) -> bool:
        return not any(self.violations[seed])


def _pool_size() -> int:
    """The CPUs this process may run on: the document is byte-identical at
    any pool size, so the size is not an option."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _map_configs(plan: Any, fn: Callable[[ExperimentConfig], Any]) -> Any:
    """``plan`` with each ``ExperimentConfig`` leaf replaced by ``fn(leaf)``."""
    if isinstance(plan, ExperimentConfig):
        return fn(plan)
    if isinstance(plan, dict):
        return {key: _map_configs(value, fn) for key, value in plan.items()}
    if isinstance(plan, tuple):
        return tuple(_map_configs(value, fn) for value in plan)
    return plan


def _grid(plans: Iterable[Any]) -> Dict[str, ExperimentConfig]:
    """The distinct configs of ``plans``, app-major, each keyed by its run
    identity in the registry: (seed, app, variant, ``params_digest``)."""
    grid: Dict[str, ExperimentConfig] = {}

    def enlist(cfg: ExperimentConfig) -> None:
        key = f"{cfg.system.seed}/{cfg.app}/{cfg.variant.value}/{params_digest(cfg)}"
        if grid.setdefault(key, cfg) != cfg:
            raise HarnessError(f"two configurations share the run identity {key}")

    for plan in plans:
        _map_configs(plan, enlist)
    return dict(sorted(grid.items(), key=lambda item: item[1].app))


def measure_all(seeds: Sequence[int] = SEEDS) -> Dict[str, Outcome]:
    """Every experiment at every seed, its cells run as one grid on the
    cell engine (:func:`repro.harness.parallel.run_cells`)."""
    plans = {(exp.key, seed): exp.cells(seed) for exp in EXPERIMENTS for seed in seeds}
    grid = _grid(plans.values())
    payloads = run_cells([(key, run_config_payload, (cfg,)) for key, cfg in grid.items()],
                         jobs=_pool_size()).results
    ran = {cfg: RunResult.from_jsonable(payloads.pop(key)) for key, cfg in grid.items()}
    outcomes: Dict[str, Outcome] = {}
    for exp in EXPERIMENTS:
        data = {seed: exp.fold(_map_configs(plans[exp.key, seed], ran.__getitem__))
                for seed in seeds}
        outcomes[exp.key] = Outcome(exp.render(data[seeds[0]]), {
            seed: [p.violations(d) for p in exp.predicates] for seed, d in data.items()})
    return outcomes


def render_block(exp: Experiment, outcome: Outcome) -> str:
    """A marked block's body: the table, then the predicate x seed grid."""
    seeds = list(outcome.violations)
    lines = ["```text", outcome.table, "```", "",
             "| shape | " + " | ".join(f"seed {s}" for s in seeds) + " |",
             "|---" * (len(seeds) + 1) + "|"]
    for i, predicate in enumerate(exp.predicates):
        verdicts = (outcome.violations[s][i] for s in seeds)
        lines.append(f"| {predicate.text} | " + " | ".join(
            "✗ " + "; ".join(v) if v else "✓" for v in verdicts) + " |")
    return "\n".join(lines) + "\n"


def summary(outcomes: Mapping[str, Outcome]) -> str:
    """How many experiments keep their shape, per seed."""
    seeds = list(next(iter(outcomes.values())).violations)

    def tally(seed: int) -> Tuple[str, str]:
        failing = [key for key, o in outcomes.items() if not o.holds(seed)]
        return (f"{len(outcomes) - len(failing)}/{len(outcomes)}",
                f" ({', '.join(failing)} fail)" if failing else "")

    (held, failing), *rest = (tally(seed) for seed in seeds)
    line = (f"**{held} experiments reproduce their paper shape** at model seed "
            f"{seeds[0]}{failing}.")
    if rest:
        line += " At seed " + "; at seed ".join(
            f"{seed}: {held}{failing}" for seed, (held, failing) in zip(seeds[1:], rest)) + "."
    return line + "\n"


def assemble(doc: str, blocks: Mapping[str, str]) -> str:
    """``doc`` with the body of each marked block replaced by
    ``blocks[key]``.

    A marker naming no block, a marker that appears twice, and a block
    with no marker are each a :class:`~repro.errors.HarnessError`.
    """
    seen: List[str] = []

    def fill(match: "re.Match[str]") -> str:
        head, key, _, tail = match.groups()
        if key not in blocks:
            raise HarnessError(f"unknown marker 'repro paper: {key}'; "
                               f"expected one of {sorted(blocks)}")
        if key in seen:
            raise HarnessError(f"marker 'repro paper: {key}' appears twice")
        seen.append(key)
        return head + blocks[key] + tail

    text = _BLOCK.sub(fill, doc)
    missing = sorted(set(blocks) - set(seen))
    if missing:
        raise HarnessError(f"no 'repro paper' marker for {missing}")
    return text


def write_document(path: str) -> Tuple[bool, str]:
    """``repro paper DOC``: regenerate the marked blocks of ``path``.

    The document is read (UTF-8, else a HarnessError) and its markers are
    checked before anything runs.  The document is written even when a
    predicate fails, so its diff shows the failure.  Returns whether every
    predicate holds at the first seed, and the summary line.
    """
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            doc = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise HarnessError(f"cannot read {path}: {exc}") from None
    keys = [exp.key for exp in EXPERIMENTS] + [SUMMARY]
    assemble(doc, dict.fromkeys(keys, ""))
    outcomes = measure_all()
    blocks = {exp.key: render_block(exp, outcomes[exp.key])
              for exp in EXPERIMENTS}
    blocks[SUMMARY] = summary(outcomes)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(assemble(doc, blocks))
    return (all(o.holds(SEEDS[0]) for o in outcomes.values()),
            blocks[SUMMARY])
