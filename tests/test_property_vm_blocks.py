"""Generated code and fused COW accessors against the reference interpreter.

``Machine`` runs every non-system instruction as code generated from its
template — hot basic blocks as straight-line code, everything else as single
steps — and ``CowMap`` does a wrapped access in one call;
``tests/vm_reference.py`` keeps the per-instruction handlers, loop and
layered accessors they replaced.  The two must agree step for step, so
every test here drives a twin pair — same program, same schedule — and
compares complete state after every ``execute()`` return: over generated
programs (hypothesis) with the translation threshold patched down so blocks
are in use from the first entry, or up so that single steps run everything,
and over the paper's applications at the shipped threshold and at one that
is never reached.
"""

import functools
import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.spechint.runtime as runtime_module
import repro.vm.machine as machine_module
from repro.errors import ReproError
from repro.fs.filesystem import FileSystem
from repro.harness import runner
from repro.harness.config import ExperimentConfig, Variant
from repro.kernel.thread import ThreadState
from repro.params import SpecHintParams
from repro.spechint.auditor import _chain_digest, _digest
from repro.spechint.tool import SpecMeta, SpeculatingBinary
from repro.vm.binary import Function, JumpTable
from repro.vm.blocks import HOT_ENTRIES
from repro.vm.isa import MASK64, SYS_EXIT, SYS_SBRK, Insn, Op
from repro.vm.machine import SpeculationFault
from repro.vm.memory import DATA_BASE, SPEC_HEAP_BASE, STACK_TOP

from tests.conftest import make_system, small_system_config
from tests.vm_reference import ReferenceCowMap, ReferenceMachine, reference_digest

DATA_BYTES = 4096
#: Not a multiple of any COW region size: the last region of the
#: speculative heap is only partly mapped.
SPEC_HEAP_BYTES = 2088

#: Register values that make interesting addresses: inside the data
#: segment, straddling a COW region boundary, straddling the end of the
#: segment, the null guard, the stack, the speculative heap and its end.
POINTERS = (
    DATA_BASE, DATA_BASE + 64, DATA_BASE + 1020, DATA_BASE + 2047,
    DATA_BASE + DATA_BYTES - 4, DATA_BASE + DATA_BYTES, 8,
    STACK_TOP - 64, STACK_TOP - 4, SPEC_HEAP_BASE + 16,
    SPEC_HEAP_BASE + SPEC_HEAP_BYTES - 24, SPEC_HEAP_BASE + SPEC_HEAP_BYTES - 4,
    MASK64 - 2,
)

ALU3 = (Op.ADD, Op.SUB, Op.MUL, Op.AND, Op.OR, Op.XOR, Op.SHL, Op.SHR, Op.SLT)
ALUI = (Op.ADDI, Op.MULI, Op.ANDI, Op.ORI, Op.SHLI, Op.SHRI, Op.SLTI)
BRANCHES = (Op.BEQ, Op.BNE, Op.BLT, Op.BGE)
COW_TWIN = {Op.LOAD: Op.COW_LOAD, Op.STORE: Op.COW_STORE,
            Op.LOADB: Op.COW_LOADB, Op.STOREB: Op.COW_STOREB}
SPEC_TWIN = {Op.JR: Op.SPEC_JR, Op.CALLR: Op.SPEC_CALLR, Op.SWITCH: Op.SPEC_SWITCH}

#: Instruction kinds, repeated by weight.
KINDS = (
    ["li"] * 4 + ["pointer"] * 3 + ["alu3"] * 5 + ["alui"] * 4 + ["mov"]
    + ["load"] * 3 + ["store"] * 3 + ["loadb", "storeb"] + ["div", "mod"]
    + ["branch"] * 5 + ["jmp", "call", "jr", "callr", "switch"]
    + ["cwork", "nop", "sbrk"]
)

IMMEDIATES = st.one_of(
    st.integers(-16, 64),
    st.sampled_from([MASK64, 1 << 63, -(1 << 63), (1 << 64) + 5, -1, 1 << 32]),
)
RAW_INSN = st.tuples(
    st.integers(0, len(KINDS) - 1), st.integers(0, 7), st.integers(0, 7),
    st.integers(0, 7), IMMEDIATES, st.integers(0, 1 << 16),
)


def make_insn(raw, n, ntables, shadow):
    """One instruction of an ``n``-instruction text from a raw draw."""
    kind, a, b, c, imm, pick = raw
    kind = KINDS[kind]
    if kind == "li":
        # Small constants double as text indices and switch indices.
        return Insn(Op.LI, a, 0, imm if pick & 1 else pick % (n + 2))
    if kind == "pointer":
        return Insn(Op.LI, a, 0, POINTERS[pick % len(POINTERS)])
    if kind == "alu3":
        return Insn(ALU3[pick % len(ALU3)], a, b, c)
    if kind == "alui":
        return Insn(ALUI[pick % len(ALUI)], a, b, imm)
    if kind == "mov":
        return Insn(Op.MOV, a, b)
    if kind in ("load", "store", "loadb", "storeb"):
        op = Op[kind.upper()]
        if shadow and pick & 7:
            # Stack-marked wrappers carry no check cycles.
            return Insn(COW_TWIN[op], a, b, imm % 32 - 8, 0 if pick & 8 else 5)
        return Insn(op, a, b, imm % 32 - 8)
    if kind in ("div", "mod"):
        return Insn(Op[kind.upper()], a, b, c)
    if kind == "branch":
        return Insn(BRANCHES[c % 4], a, b, pick % n)
    if kind == "jmp":
        return Insn(Op.JMP, 0, 0, pick % n)
    if kind == "call":
        return Insn(Op.CALL, 0, 0, pick % n)
    if kind in ("jr", "callr", "switch"):
        if kind == "switch" and not ntables:
            return Insn(Op.NOP)
        op = Op[kind.upper()]
        if shadow and pick & 1:
            op = SPEC_TWIN[op]
        return Insn(op, a, 0, pick % ntables if kind == "switch" else 0)
    if kind == "cwork":
        return Insn(Op.SCWORK if shadow else Op.CWORK, pick % 150, 0, 0)
    if kind == "sbrk":
        return Insn(Op.SPEC_SYSCALL if shadow else Op.SYSCALL, 0, 0, SYS_SBRK)
    return Insn(Op.NOP)


class Program:
    """A generated SpecVM program plus the state it starts from."""

    def __init__(self, text, tables, shadow, regs, data, poll, region, map_all_addresses):
        self.shadow = shadow
        # Falling off the text ends the program instead of the test.
        self.text = text + [Insn(Op.SPEC_SYSCALL, 0, 0, SYS_EXIT) if shadow
                            else Insn(Op.HALT)]
        self.tables = tables
        self.regs = regs
        self.data = data
        self.params = SpecHintParams(restart_poll_interval=poll,
                                     cow_region_size=region)
        self.map_all_addresses = map_all_addresses

    def binary(self):
        size = len(self.text)
        meta = SpecMeta(shadow_base=0, original_text_len=size,
                        function_map={0: 0}, params=self.params,
                        map_all_addresses=self.map_all_addresses)
        return SpeculatingBinary(
            "generated", list(self.text), self.data, {},
            [Function("main", 0, size)],
            [JumpTable(i, list(t)) for i, t in enumerate(self.tables)],
            0, spec_meta=meta,
        )

    def __repr__(self):
        listing = "\n".join(f"  {i:3d} {insn!r}" for i, insn in enumerate(self.text))
        return (f"Program(shadow={self.shadow}, regs={self.regs}, "
                f"tables={self.tables}, poll={self.params.restart_poll_interval}, "
                f"region={self.params.cow_region_size})\n{listing}")


REGISTER = st.one_of(st.integers(0, 40), st.sampled_from(POINTERS),
                     st.sampled_from([MASK64, 1 << 63, (1 << 63) - 1]))


def tile(pattern):
    """A data segment filled with a repeating byte pattern."""
    return (pattern * (DATA_BYTES // len(pattern) + 1))[:DATA_BYTES]


@st.composite
def programs(draw, shadow=None):
    raws = draw(st.lists(RAW_INSN, min_size=4, max_size=36))
    tables = draw(st.lists(
        st.lists(st.integers(0, 1 << 16), min_size=1, max_size=4), max_size=2))
    if shadow is None:
        shadow = draw(st.booleans())
    size = len(raws)
    return Program(
        [make_insn(raw, size, len(tables), shadow) for raw in raws],
        [[target % size for target in table] for table in tables],
        shadow=shadow,
        regs=draw(st.lists(REGISTER, min_size=8, max_size=8)),
        data=tile(draw(st.binary(min_size=1, max_size=24))),
        poll=draw(st.integers(1, 12)),
        region=draw(st.sampled_from([128, 1024])),
        map_all_addresses=draw(st.booleans()),
    )


#: One scheduling step: how the thread is run, for how long, whether an
#: event is pending (and how far off), and what happens to the speculating
#: thread first: a restart request, or a poll counter left anywhere
#: (at or past the interval is where a woken thread starts).
STEPS = st.lists(
    st.tuples(
        st.sampled_from(["until", "until", "budget"]),
        st.one_of(st.integers(1, 40), st.integers(40, 600)),
        st.one_of(st.none(), st.integers(0, 80)),
        st.sampled_from([None, None, "restart", "poll"]),
    ),
    min_size=1, max_size=10,
)


class Twin:
    """One system running a program: the real machine or the reference."""

    def __init__(self, program, as_spec, reference, tracer=None):
        config = small_system_config(spechint=program.params)
        fs = FileSystem()
        self.system = (make_system(fs, config) if tracer is None
                       else runner.build_system(config, fs, tracer=tracer))
        kernel = self.system.kernel
        if reference:
            kernel.machine = ReferenceMachine(kernel)
        self.process = process = kernel.spawn(program.binary())
        self.spec = spec = process.spec
        if reference:
            spec.cow = ReferenceCowMap(
                process.mem, spec.params, vmstat=process.vmstat,
                auditor=spec.auditor, stats=kernel.stats, tracer=kernel.tracer)
        process.mem.spec_sbrk(SPEC_HEAP_BYTES)
        self.thread = process.spec_thread if as_spec else process.original_thread
        self.thread.state = ThreadState.RUNNABLE
        self.thread.regs[:8] = program.regs
        self.saved_regs = [r ^ 1 for r in self.thread.regs]

    def step(self, mode, amount, event_in, before):
        """Run one scheduling step; returns everything observable after."""
        system, thread, spec = self.system, self.thread, self.spec
        if event_in is not None:
            system.engine.schedule_at(system.clock.now + event_in, lambda: None)
        if before == "poll" and thread.is_spec:
            thread.poll_counter = amount % (2 * spec.params.restart_poll_interval + 1)
        if before == "restart" and thread.is_spec:
            # What the original thread's pre-read check does on a mismatch:
            # a parked thread is woken with its poll due at once, a
            # preempted one finds the flag at its next poll.
            spec._saved_regs = list(self.saved_regs)
            spec._saved_resume_pc = amount % len(self.process.binary.text)
            spec.restart_flag = True
            spec._capture_boundary()
            spec._wake_spec_thread()
        machine = system.kernel.machine
        try:
            if mode == "budget":
                outcome = machine.execute(thread, budget=amount)
            else:
                outcome = machine.execute(thread, until=system.clock.now + amount)
        except (ReproError, SpeculationFault) as exc:
            outcome = (type(exc).__name__, str(exc))
        system.engine.dispatch_due()
        return self.observe(outcome)

    def observe(self, outcome=None):
        system, process, thread, spec = (
            self.system, self.process, self.thread, self.spec)
        mem, machine, auditor = process.mem, system.kernel.machine, spec.auditor
        return {
            "outcome": outcome,
            "pc": thread.pc,
            "regs": list(thread.regs),
            "thread": (thread.state, thread.stop_reason, thread.cwork_remaining,
                       thread.pending_cost),
            "instructions": machine.instructions,
            "now": system.clock.now,
            "cpu_cycles": thread.cpu_cycles,
            "spec_clock": thread.spec_clock,
            "pending_budget": thread.pending_budget,
            "poll_counter": thread.poll_counter,
            "breaks": (mem.brk, mem.spec_brk),
            "data": mem.raw_read(mem.data_start, mem.brk - mem.data_start),
            "stack": mem.raw_read(mem.stack_limit, mem.stack_top - mem.stack_limit),
            "spec_heap": mem.raw_read(SPEC_HEAP_BASE, mem.spec_brk - SPEC_HEAP_BASE),
            "cow": {region: bytes(copy) for region, copy in spec.cow._copies.items()},
            "cow_totals": (spec.cow.regions_copied_total, spec.cow.bytes_copied_total),
            "vmstat": (process.vmstat.faults, process.vmstat.reclaims,
                       process.vmstat.footprint_bytes),
            "auditor": (auditor.cow_writes_checked, auditor.guard_checks,
                        auditor.violations, auditor.table.head_digest),
            "spec": (spec.restart_flag, spec.gate.quarantine_reads),
            "exited": process.exited,
            "counters": system.stats.snapshot(),
        }


def assert_same(real, reference, context):
    for key in reference:
        assert real[key] == reference[key], f"{key} differs {context}"


def run_twins(program, as_spec, steps, tracers=(None, None)):
    """Drive the real machine and the reference through ``steps`` in
    lockstep; returns the real twin."""
    real = Twin(program, as_spec, reference=False, tracer=tracers[0])
    reference = Twin(program, as_spec, reference=True, tracer=tracers[1])
    assert_same(real.observe(), reference.observe(), "before the first step")
    for index, step in enumerate(steps):
        seen, expected = real.step(*step), reference.step(*step)
        assert_same(seen, expected, f"after step {index} {step}\n{program!r}")
        if seen["exited"] or not isinstance(seen["outcome"], str):
            break
    return real


def first_copy_program():
    """A loop whose every store makes a first COW copy."""
    text = [
        Insn(Op.LI, 1, 0, DATA_BASE),           # 0
        Insn(Op.LI, 6, 0, 24),                  # 1  stores to go
        Insn(Op.ADDI, 5, 5, 1),                 # 2  loop: work before the store
        Insn(Op.ADD, 3, 1, 2),                  # 3
        Insn(Op.COW_STORE, 5, 3, 0, 7),         # 4  a new region every time
        Insn(Op.ADDI, 2, 2, 128),               # 5
        Insn(Op.ADDI, 6, 6, -1),                # 6
        Insn(Op.BNE, 6, 0, 2),                  # 7
    ]
    return Program(text, [], True, [0] * 8, tile(b"\x55"), 32, 128, False)


def assert_same_events(program, steps):
    """Twin run under two tracers: same events, same timestamps."""
    from repro.sim.clock import SimClock
    from repro.trace.tracer import Tracer

    tracers = (Tracer(SimClock()), Tracer(SimClock()))
    with mock.patch.object(machine_module, "HOT_ENTRIES", 0):
        real = run_twins(program, True, steps, tracers)
    events = [[(e.ts, e.category, e.name, e.ph, e.tid, e.dur, e.args)
               for e in tracer.events()] for tracer in tracers]
    assert events[0] == events[1]
    return real, events[0]


def loop_program(shadow):
    """sum += table[i] over a 64-word table, 6 times, with a call."""
    load, store = (Op.COW_LOAD, Op.COW_STORE) if shadow else (Op.LOAD, Op.STORE)
    text = [
        Insn(Op.LI, 1, 0, DATA_BASE),          # 0  base
        Insn(Op.LI, 5, 0, 6),                  # 1  rounds
        Insn(Op.LI, 2, 0, 0),                  # 2  round: i = 0
        Insn(Op.LI, 6, 0, 64),                 # 3
        Insn(Op.SHLI, 3, 2, 3),                # 4  loop: offset
        Insn(Op.ADD, 3, 3, 1),                 # 5
        Insn(load, 4, 3, 0, 5 if shadow else 0),   # 6
        Insn(Op.CALL, 0, 0, 15),               # 7
        Insn(store, 7, 3, 0, 7 if shadow else 0),  # 8
        Insn(Op.ADDI, 2, 2, 1),                # 9
        Insn(Op.BLT, 2, 6, 4),                 # 10
        Insn(Op.ADDI, 5, 5, -1),               # 11
        Insn(Op.BNE, 5, 0, 2),                 # 12
        Insn(Op.JMP, 0, 0, 17),                # 13 to the exit Program appends
        Insn(Op.NOP),                          # 14
        Insn(Op.ADD, 7, 7, 4),                 # 15 accumulate(r4)
        Insn(Op.JR, 31),                       # 16
    ]
    return Program(text, [], shadow, [0] * 8, tile(bytes(range(1, 256))), 32, 1024, False)


#: One faulting instruction each, with the register set-up it needs (r1).
FAULTS = {
    "div": (0, Insn(Op.DIV, 3, 2, 1)),
    "mod": (0, Insn(Op.MOD, 3, 2, 1)),
    "load": (8, Insn(Op.LOAD, 3, 1, 0)),
    "storeb": (8, Insn(Op.STOREB, 3, 1, 0)),
    "guarded store": (DATA_BASE, Insn(Op.STORE, 3, 1, 0)),
    "cow load": (8, Insn(Op.COW_LOAD, 3, 1, 0, 5)),
    "cow load across the segment end": (
        DATA_BASE + DATA_BYTES - 4, Insn(Op.COW_LOAD, 3, 1, 0, 5)),
    "cow store": (DATA_BASE + DATA_BYTES - 4, Insn(Op.COW_STORE, 3, 1, 0, 7)),
    "jr": (1 << 20, Insn(Op.JR, 1)),
    "callr": (1 << 20, Insn(Op.CALLR, 1)),
    "switch": (9, Insn(Op.SWITCH, 1, 0, 0)),
}


class TestFaultInsideABlock:
    @pytest.mark.parametrize("as_spec", [False, True])
    @pytest.mark.parametrize("mode", ["until", "budget"])
    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_fault_leaves_the_interpreters_state(self, fault, mode, as_spec):
        """The faulting instruction sits in the middle of one translated
        block: pc, instruction count, poll counter and cycles must be what
        single-stepping leaves (a plain store to the data segment faults
        only on the speculating thread, through the write guard)."""
        value, insn = FAULTS[fault]
        text = [
            Insn(Op.LI, 1, 0, value),
            Insn(Op.ADDI, 2, 2, 5),
            Insn(Op.MULI, 2, 2, 3),
            insn,
            Insn(Op.ADDI, 2, 2, 1),
            Insn(Op.ADDI, 2, 2, 1),
        ]
        program = Program(text, [[4, 5]], False, [0] * 8, tile(b"\x11"), 5, 1024, False)
        with mock.patch.object(machine_module, "HOT_ENTRIES", 0):
            real = run_twins(program, as_spec, [(mode, 10_000, None, None)] * 2)
        assert real.system.kernel.machine.block_instructions >= 3


class TestHotLoop:
    @pytest.mark.parametrize("shadow", [False, True])
    @pytest.mark.parametrize("mode,amount,slices", [
        ("until", 7, 2500), ("until", 100_000, 2),
        ("budget", 13, 2500), ("budget", 100_000, 2),
    ])
    def test_loop_runs_in_blocks_and_agrees(self, shadow, mode, amount, slices):
        steps = [(mode, amount, None, None)] * slices
        real = run_twins(loop_program(shadow), shadow, steps)
        machine = real.system.kernel.machine
        assert real.thread.regs[5] == 0  # ran to completion
        assert machine.blocks_translated == 3  # the loop head, the call return, the callee
        if amount > 1000:
            # 48 cold entries per leader, then everything is block code.
            assert machine.block_instructions > 0.8 * machine.instructions
        else:
            # Slices shorter than a block single-step: still identical.
            assert 0 < machine.block_instructions < 0.8 * machine.instructions

    @pytest.mark.parametrize("mode,amount", [("until", 100_000), ("budget", 37)])
    def test_first_copies_in_hot_code_leave_the_block_where_they_happen(
            self, mode, amount):
        """Untraced, the copying store runs inside the block and its copy
        cycles are dynamic: charged there, and the block left there."""
        with mock.patch.object(machine_module, "HOT_ENTRIES", 0):
            real = run_twins(first_copy_program(), True,
                             [(mode, amount, None, None)] * 400)
        assert real.spec.cow.regions_copied_total == 24
        assert real.system.kernel.machine.block_instructions > 0

    @pytest.mark.parametrize("mode,amount", [("until", 100_000), ("budget", 37)])
    def test_page_events_in_hot_code_leave_the_block_where_they_happen(
            self, mode, amount):
        """A loop whose every store touches a new stack page: the fault
        cycles are dynamic, so each run of the block is left after the
        store and finished by the interpreter — same cycles, same stops."""
        from repro.params import PAGE_SIZE

        text = [
            Insn(Op.LI, 1, 0, STACK_TOP - 24 * PAGE_SIZE),  # 0
            Insn(Op.LI, 6, 0, 24),                          # 1  stores to go
            Insn(Op.ADDI, 5, 5, 1),                         # 2  loop
            Insn(Op.STORE, 5, 1, 0),                        # 3  a new page every time
            Insn(Op.ADDI, 1, 1, PAGE_SIZE),                 # 4
            Insn(Op.ADDI, 6, 6, -1),                        # 5
            Insn(Op.BNE, 6, 0, 2),                          # 6
        ]
        program = Program(text, [], False, [0] * 8, tile(b"\x22"), 32, 1024, False)
        with mock.patch.object(machine_module, "HOT_ENTRIES", 0):
            real = run_twins(program, False, [(mode, amount, None, None)] * 400)
        assert real.process.exited
        assert real.process.vmstat.faults >= 24
        assert real.system.kernel.machine.block_instructions > 0

    def test_restart_request_reaches_a_loop_running_as_blocks(self):
        """The flag set while the speculating thread is merely preempted,
        its poll counter anywhere: hot blocks must give way to the poll."""
        steps = [("until", 3000, None, None), ("until", 3000, None, "restart")]
        real = run_twins(loop_program(True), True, steps)
        assert real.system.stats.get("spec.restarts") == 1
        assert real.system.kernel.machine.block_instructions > 0

    def test_generated_code_is_shared_between_processes(self):
        """Translate once per program per process: a second system running
        the same binary compiles nothing, and starts with the leaders the
        first one found hot, so it runs more of the loop as blocks."""
        import repro.vm.blocks as blocks_module

        program = loop_program(False)
        binary = program.binary()
        program.binary = lambda: binary
        compiled = []

        def counting_compile(source, filename, mode):
            if "<generated blocks>" in filename:
                compiled.append(source)
            return compile(source, filename, mode)

        steps = [("until", 100_000, None, None)] * 3
        with mock.patch.object(blocks_module, "compile", counting_compile, create=True):
            first = run_twins(program, False, steps).system.kernel.machine
            compiled_by_first = len(compiled)
            second = run_twins(program, False, steps).system.kernel.machine
        assert compiled_by_first == 3 and len(compiled) == 3
        assert first.blocks_translated == second.blocks_translated == 3
        assert second.instructions == first.instructions
        assert second.block_instructions > first.block_instructions


#: A translation threshold no leader reaches: everything single-steps.
NEVER = 1 << 62


class TestGeneratedPrograms:
    @pytest.mark.parametrize("hot_entries", [0, NEVER], ids=["blocks", "single-steps"])
    @settings(max_examples=300, deadline=None)
    @given(program=programs(), steps=STEPS, as_spec=st.booleans())
    def test_blocks_agree_with_the_reference_at_every_stop(
            self, hot_entries, program, steps, as_spec):
        """Every leader translated at its first entry, or none ever: the
        machine's blocks and its single steps each against the
        reference's handlers."""
        with mock.patch.object(machine_module, "HOT_ENTRIES", hot_entries):
            real = run_twins(program, as_spec or program.shadow, steps)
        if hot_entries == NEVER:
            assert real.system.kernel.machine.block_instructions == 0

    @settings(max_examples=60, deadline=None)
    @given(program=programs(), steps=STEPS)
    def test_shipped_threshold_mixes_blocks_and_single_steps(self, program, steps):
        """At a low but non-zero threshold the same leader is first
        interpreted, then translated, inside one run."""
        with mock.patch.object(machine_module, "HOT_ENTRIES", 2):
            run_twins(program, program.shadow, steps)

    @settings(max_examples=120, deadline=None)
    @given(program=programs(shadow=True), steps=STEPS)
    def test_traced_runs_stay_event_identical(self, program, steps):
        """With the tracer on, a block that could stamp an event with a
        stale clock is single-stepped: same events, same timestamps."""
        assert_same_events(program, steps)

    def test_first_copies_in_hot_code_are_stamped_with_the_right_clock(self):
        """The ``cow.copy`` instants must carry the clock of the store, not
        of its block."""
        real, events = assert_same_events(
            first_copy_program(), [("until", 100_000, None, None)])
        assert sum(event[2] == "cow.copy" for event in events) == 24
        assert real.system.kernel.machine.block_instructions > 0


class TestAuditDigest:
    @given(parts=st.lists(st.one_of(
        st.integers(), st.text(), st.tuples(st.integers(), st.text()), st.none(),
    ), max_size=5))
    def test_one_hash_call_digests_the_same_bytes(self, parts):
        assert _digest(*parts) == reference_digest(*parts)

    @given(previous=st.text(), seq=st.integers(0), kind=st.text(), detail=st.text())
    def test_chain_link_digests_the_same_bytes(self, previous, seq, kind, detail):
        assert _chain_digest(previous, seq, kind, detail) == reference_digest(
            previous, seq, kind, detail)


# -- the paper's applications ------------------------------------------------------

SCALE = 0.3
APPS = ("agrep", "gnuld", "xds", "postgres20")


@functools.lru_cache(maxsize=None)
def run_app(app, variant, reference, ncpus=1, hot_entries=HOT_ENTRIES):
    """One cell on the real machine or the reference: what must not differ
    between the two, and the machine that ran it."""
    from repro.params import SystemConfig

    seen = []

    def install(system):
        if reference:
            system.kernel.machine = ReferenceMachine(system.kernel)
        seen.append(system)

    cow_map = ReferenceCowMap if reference else runtime_module.CowMap
    runner.add_system_observer(install)
    try:
        with mock.patch.object(runtime_module, "CowMap", cow_map), \
                mock.patch.object(machine_module, "HOT_ENTRIES", hot_entries):
            result = runner.run_experiment(ExperimentConfig(
                app=app, variant=variant, workload_scale=SCALE,
                system=SystemConfig(ncpus=ncpus)))
    finally:
        runner.remove_system_observer(install)
    system = seen[0]
    spec = system.kernel.processes[0].spec
    auditor = spec.auditor if spec is not None else None
    return {
        "payload": json.dumps(result.to_jsonable(), sort_keys=True),
        "hint_ledger": [r.to_jsonable() for r in system.manager.lifecycle.records()],
        "read_trace": result.read_trace,
        "audit_head": result.audit_head_digest,
        "instructions": system.kernel.machine.instructions,
        "isolation_checks": (auditor.cow_writes_checked, auditor.guard_checks)
        if auditor is not None else None,
    }, system.kernel.machine


class TestApplications:
    @pytest.mark.parametrize("app", APPS)
    @pytest.mark.parametrize("variant", list(Variant))
    def test_cell_is_identical_to_the_reference_run(self, app, variant):
        seen, machine = run_app(app, variant, False)
        expected, _ = run_app(app, variant, True)
        assert seen == expected
        assert machine.block_instructions > 0

    def test_second_cpu_cell_is_identical_to_the_reference_run(self):
        """Budget mode: the speculating thread runs on the second CPU."""
        seen, machine = run_app("gnuld", Variant.SPECULATING, False, ncpus=2)
        expected, _ = run_app("gnuld", Variant.SPECULATING, True, ncpus=2)
        assert seen == expected
        assert machine.block_instructions > 0

    def test_never_translated_cell_is_identical_to_the_reference_run(self):
        """No leader ever gets hot: every instruction is a single step."""
        seen, machine = run_app("gnuld", Variant.SPECULATING, False, hot_entries=NEVER)
        expected, _ = run_app("gnuld", Variant.SPECULATING, True)
        assert seen == expected
        assert machine.block_instructions == machine.blocks_translated == 0

    def test_most_speculating_instructions_retire_inside_blocks(self):
        """The ledger's claim as a count: at least 70 % of gnuld's
        instructions run as block code, and the total does not move."""
        _, machine = run_app("gnuld", Variant.SPECULATING, False)
        _, reference = run_app("gnuld", Variant.SPECULATING, True)
        assert machine.instructions == reference.instructions
        assert reference.block_instructions == reference.blocks_translated == 0
        assert machine.block_instructions >= 0.7 * machine.instructions
