"""Files per cell, programs per process (DESIGN §5.1).

A cell lays out its files in its own file system, but the program it runs
is assembled, transformed and translated once per process and shared with
every later cell that asks for the same one (``harness.runner.program``
and ``speculating``, ``vm.blocks.Translation``).  Sharing may not be
observable: a warm cell — one whose program an earlier cell built, whose
leaders an earlier cell found hot — must show what the program's first
cell in a new interpreter shows, and nothing a cell does may reach the
program or the inputs of the next.
"""

import hashlib
import json
from unittest import mock

import pytest

import repro.vm.machine as machine_module
from repro.apps.gnuld import GnuldWorkload, build_gnuld_files
from repro.fs.filesystem import FileSystem
from repro.harness.config import ExperimentConfig, Variant
from repro.harness.runner import build_system, program, run_experiment_with_system
from repro.sim.clock import SimClock
from repro.trace.analyzer import TraceAnalyzer
from repro.trace.phases import stall_breakdown
from repro.trace.tracer import Tracer
from repro.vm.isa import SYS_OPEN, SYS_WRITE, Reg

from tests.conftest import assemble, small_system_config
from tests.test_harness_warm_process import fresh_interpreter

SCALE = 0.25
APPS = ("agrep", "gnuld", "xds", "postgres20")
CELLS = [(app, variant.value) for app in APPS for variant in Variant]
#: A translation threshold no leader reaches.
NEVER = 1 << 62


def observe_cell(app, variant):
    """What a cell shows — its result record, counters, hint ledger and
    trace summary — and the binary it ran."""
    cfg = ExperimentConfig(app=app, variant=Variant(variant), workload_scale=SCALE)
    result, system = run_experiment_with_system(cfg)
    tracer = Tracer(SimClock())
    traced, traced_system = run_experiment_with_system(cfg, tracer=tracer)
    summary = TraceAnalyzer(
        tracer, lifecycle=traced_system.manager.lifecycle,
        breakdown=stall_breakdown(traced_system.kernel), result=traced,
    ).render_summary()
    ledger = json.dumps([record.to_jsonable()
                         for record in system.manager.lifecycle.records()])
    seen = {
        "result": result.to_jsonable(),
        "counters": system.stats.snapshot(),
        "ledger": hashlib.sha256(ledger.encode()).hexdigest(),
        "summary": summary,
    }
    return json.loads(json.dumps(seen)), system.kernel.processes[0].binary


def observe_cells():
    return {f"{app}/{variant}": observe_cell(app, variant)[0]
            for app, variant in CELLS}


def fingerprint(binary):
    """Everything a process reads of a binary."""
    return hashlib.sha256(repr((
        [(insn.op, insn.a, insn.b, insn.c, insn.d, insn.meta) for insn in binary.text],
        binary.data, sorted(binary.data_symbols.items()),
        [(t.table_id, t.targets, t.recognized) for t in binary.jump_tables],
        [(f.name, f.entry, f.end) for f in binary.functions],
        binary.entry_point,
    )).encode()).hexdigest()


@pytest.fixture(scope="module")
def cold():
    """Every cell as its program's first, in a new interpreter."""
    return json.loads(fresh_interpreter(
        "import json\n"
        "from tests.test_harness_programs import observe_cells\n"
        "print(json.dumps(observe_cells()))\n"
    ))


class TestWarmCells:
    @pytest.mark.parametrize("app,variant", CELLS)
    def test_a_warm_cell_equals_a_cold_one(self, cold, app, variant):
        _, first = observe_cell(app, variant)
        warm, binary = observe_cell(app, variant)
        assert binary is first and binary.translations
        assert warm == cold[f"{app}/{variant}"]

    def test_a_warm_cell_never_translating_runs_no_block(self, cold):
        """Leaders an earlier cell made hot stay cold under a threshold
        no count reaches: every instruction is a single step."""
        observe_cell("gnuld", "speculating")
        with mock.patch.object(machine_module, "HOT_ENTRIES", NEVER):
            never, binary = observe_cell("gnuld", "speculating")
            _, system = run_experiment_with_system(ExperimentConfig(
                app="gnuld", variant=Variant.SPECULATING, workload_scale=SCALE))
        machine = system.kernel.machine
        assert any(record.blocks for record in binary.translations.values())
        assert machine.instructions > 0
        assert machine.block_instructions == machine.blocks_translated == 0
        assert never == cold["gnuld/speculating"]

    def test_nothing_a_cell_runs_writes_its_program(self):
        """Every program the twelve cells ran, fingerprinted before and
        after all of them ran again."""
        binaries = {key: observe_cell(app, variant)[1]
                    for key, (app, variant) in enumerate(CELLS)}
        before = {key: fingerprint(binary) for key, binary in binaries.items()}
        after = {key: fingerprint(observe_cell(app, variant)[1])
                 for key, (app, variant) in enumerate(CELLS)}
        assert after == before
        # One program per (app, workload, manual), one transform of each.
        assert len({id(binary) for binary in binaries.values()}) == len(CELLS)


class TestFilesPerCell:
    def test_a_program_that_writes_its_data_and_a_file_leaves_the_next_run_alone(self):
        """Two runs of one binary: each reads the data word the binary was
        built with, overwrites it and writes it to a file; the second run
        sees neither write of the first."""
        def body(asm):
            asm.data_word("word", 7)
            asm.data_asciiz("path", "out")
            asm.la(Reg.t0, "word")
            asm.load(Reg.t1, Reg.t0, 0)
            asm.addi(Reg.t1, Reg.t1, 1)
            asm.store(Reg.t1, Reg.t0, 0)
            asm.la(Reg.a0, "path")
            asm.syscall(SYS_OPEN)
            asm.mov(Reg.a0, Reg.v0)
            asm.la(Reg.a1, "word")
            asm.li(Reg.a2, 8)
            asm.syscall(SYS_WRITE)

        binary = assemble(body)
        image = binary.data
        written = []
        for _ in range(2):
            fs = FileSystem()
            fs.create("out", b"")
            system = build_system(small_system_config(), fs)
            system.kernel.spawn(binary)
            system.kernel.run()
            written.append(bytes(fs.lookup("out").data))
        assert written == [(8).to_bytes(8, "little")] * 2
        assert binary.data == image

    def test_a_cell_that_writes_output_leaves_the_next_cells_inputs_and_program(self):
        """A gnuld cell writes its buffers and ``out/kernel``; the next
        cell runs the same program over the same input bytes."""
        cfg = ExperimentConfig(app="gnuld", variant=Variant.MANUAL, workload_scale=SCALE)
        first, system = run_experiment_with_system(cfg)
        binary = system.kernel.processes[0].binary
        assert binary is program("gnuld", SCALE, manual=True)
        image = fingerprint(binary)
        inputs = {path: bytes(data) for path, data in runner_inputs()}
        second, _ = run_experiment_with_system(cfg)
        assert second.to_jsonable() == first.to_jsonable()
        assert fingerprint(binary) == image
        assert {path: bytes(data) for path, data in runner_inputs()} == inputs


def runner_inputs():
    """The gnuld input files a cell at ``SCALE`` is built over."""
    fs = FileSystem()
    build_gnuld_files(fs, GnuldWorkload().scaled(SCALE))
    return [(path, fs.lookup(path).data) for path in fs.paths()]
