"""Tests for the abstract-interpretation domain (intervals, pointers)."""

import pytest

from repro.analysis.absint import (
    NUM_ANY,
    AbsState,
    TOP,
    ValueKind,
    address_of,
    analyze_function,
    const,
    eval_alu,
    interval,
    join,
    range_avoids,
    refine_branch,
    solve_function,
    stack_ptr,
    step,
    widen,
)
from repro.analysis.cfg import build_cfg
from repro.analysis.fixtures import build_alu_fixture
from repro.vm.assembler import Assembler
from repro.vm.isa import Insn, Op, Reg, SYS_EXIT, SYS_READ, to_signed
from repro.vm.memory import DATA_BASE

from tests.conftest import make_system


class TestValues:
    def test_const_is_degenerate_interval(self):
        v = const(7)
        assert v.is_const and v.lo == v.hi == 7

    def test_join_widens_interval(self):
        assert join(const(1), const(5)) == interval(1, 5)

    def test_join_of_mismatched_kinds_is_top(self):
        assert join(const(1), stack_ptr(8)) is TOP

    def test_widen_jumps_unstable_bound_to_infinity(self):
        old, new = interval(0, 4), interval(0, 8)
        widened = widen(old, new)
        assert widened.lo == 0
        assert widened.hi is None  # upper bound unstable -> +inf
        # The stable direction survives widening.
        assert widen(interval(0, 4), interval(0, 4)) == interval(0, 4)

    def test_alu_interval_arithmetic(self):
        assert eval_alu(Op.ADD, interval(1, 3), const(10)) == interval(11, 13)
        assert eval_alu(Op.SUB, interval(5, 9), interval(1, 2)) == interval(3, 8)
        v = eval_alu(Op.ANDI, TOP, const(0xFF))
        assert v.kind is ValueKind.NUM and (v.lo, v.hi) == (0, 0xFF)

    def test_stack_pointer_arithmetic(self):
        v = eval_alu(Op.ADD, stack_ptr(-16), const(8))
        assert v.kind is ValueKind.STACK and v.delta == -8

    def test_range_predicates(self):
        assert range_avoids(interval(0, 99), 100, 200)
        assert not range_avoids(interval(50, 150), 100, 200)
        assert not range_avoids(TOP, 100, 200)


class TestStep:
    def test_store_to_stack_slot_then_load(self):
        state = AbsState()
        # store t0, -8(sp); load t1, -8(sp)
        state.set(int(Reg.t0), const(42))
        step(state, Insn(Op.STORE, int(Reg.t0), int(Reg.sp), -8))
        step(state, Insn(Op.LOAD, int(Reg.t1), int(Reg.sp), -8))
        assert state.get(int(Reg.t1)) == const(42)

    def test_unknown_store_clobbers_slots(self):
        state = AbsState()
        state.set(int(Reg.t0), const(1))
        step(state, Insn(Op.STORE, int(Reg.t0), int(Reg.sp), -8))
        assert state.slots
        # A store through an unconstrained pointer may alias the stack.
        step(state, Insn(Op.STORE, int(Reg.t0), int(Reg.t5), 0))
        assert not state.slots

    def test_call_clobbers_temporaries_not_sp(self):
        state = AbsState()
        state.set(int(Reg.t0), const(3))
        step(state, Insn(Op.CALL, 0, 0, 10))
        assert state.get(int(Reg.t0)) is TOP
        assert state.get(int(Reg.sp)).kind is ValueKind.STACK

    def test_read_syscall_into_stack_buffer_clears_slots(self):
        state = AbsState()
        state.set(int(Reg.t0), const(1))
        step(state, Insn(Op.STORE, int(Reg.t0), int(Reg.sp), -8))
        state.set(int(Reg.a1), TOP)  # buffer could be anywhere
        step(state, Insn(Op.SYSCALL, 0, 0, SYS_READ))
        assert not state.slots


class TestBranchRefinement:
    def test_blt_taken_narrows_upper_bound(self):
        state = AbsState()
        state.set(int(Reg.t0), interval(0, None))
        state.set(int(Reg.t1), const(10))
        insn = Insn(Op.BLT, int(Reg.t0), int(Reg.t1), 0)
        refined = refine_branch(state, insn, taken=True)
        assert refined.get(int(Reg.t0)) == interval(0, 9)
        fall = refine_branch(state, insn, taken=False)
        assert fall.get(int(Reg.t0)) == interval(10, None)

    def test_beq_taken_intersects(self):
        state = AbsState()
        state.set(int(Reg.t0), interval(0, 100))
        state.set(int(Reg.t1), const(7))
        insn = Insn(Op.BEQ, int(Reg.t0), int(Reg.t1), 0)
        refined = refine_branch(state, insn, taken=True)
        assert refined.get(int(Reg.t0)) == const(7)

    def test_infeasible_edge_is_none(self):
        state = AbsState()
        state.set(int(Reg.t0), const(1))
        state.set(int(Reg.t1), const(2))
        insn = Insn(Op.BEQ, int(Reg.t0), int(Reg.t1), 0)
        assert refine_branch(state, insn, taken=True) is None


def _facts_for(build):
    asm = Assembler("ai")
    asm.entry("main")
    with asm.function("main"):
        build(asm)
    binary = asm.finish()
    cfg = build_cfg(binary, binary.functions[0])
    return binary, analyze_function(binary, cfg)


def _store_address(binary, index):
    """Abstract target address of the STORE at ``index`` in the solved
    block-entry states of ``main``."""
    cfg = build_cfg(binary, binary.function("main"))
    in_states = solve_function(
        binary, cfg, AbsState(), lambda state, insn, _index: step(state, insn)
    )
    block = cfg.blocks[cfg.block_at[index]]
    state = in_states[block.block_id].copy()
    for i in range(block.start, index):
        step(state, binary.text[i])
    insn = binary.text[index]
    assert insn.op is Op.STORE
    return address_of(state.get(insn.b), insn.c)


class TestAnalyzeFunction:
    def test_data_segment_store_address_resolved(self):
        def body(asm):
            asm.data_word("cell")
            asm.la(Reg.t1, "cell")              # 0
            asm.li(Reg.t0, 5)                   # 1
            asm.store(Reg.t0, Reg.t1, 0)        # 2
            asm.syscall(SYS_EXIT)               # 3

        binary, _ = _facts_for(body)
        addr = _store_address(binary, 2)
        assert addr.is_const and addr.lo >= DATA_BASE

    def test_function_pointer_tracked_through_register(self):
        asm = Assembler("fp")
        asm.entry("main")
        with asm.function("callee"):
            asm.ret()
        with asm.function("main"):
            asm.la(Reg.t2, "callee")
            asm.callr(Reg.t2)
            asm.syscall(SYS_EXIT)
        binary = asm.finish()
        main = binary.functions[1]
        facts = analyze_function(binary, build_cfg(binary, main))
        (value,) = [facts.transfer_val[i] for i in facts.transfer_val]
        assert value.kind is ValueKind.FUNC
        assert value.entry == binary.functions[0].entry

    def test_jr_on_return_address(self):
        def body(asm):
            asm.jr(Reg.ra)  # 0

        binary, facts = _facts_for(body)
        assert facts.transfer_val[0].kind is ValueKind.RETADDR

    def test_loop_converges_with_widening(self):
        def body(asm):
            asm.data_space("arr", 256)
            asm.li(Reg.t0, 0)                      # 0
            asm.li(Reg.t1, 32)                     # 1
            asm.label("w_top")
            asm.la(Reg.t2, "arr")                  # 2
            asm.add(Reg.t2, Reg.t2, Reg.t0)        # 3
            asm.store(Reg.t0, Reg.t2, 0)           # 4
            asm.addi(Reg.t0, Reg.t0, 8)            # 5
            asm.blt(Reg.t0, Reg.t1, "w_top")       # 6
            asm.syscall(SYS_EXIT)                  # 7

        binary, _ = _facts_for(body)
        addr = _store_address(binary, 4)
        # Widening may lose the upper bound but the base stays provable.
        assert addr.kind is ValueKind.NUM
        assert addr.lo is not None and addr.lo >= DATA_BASE

    def test_nested_loops_converge_with_widening(self):
        # Two natural loops sharing state: the inner counter restarts
        # each outer iteration, the outer bound narrows the inner base.
        # Convergence here exercises widening at two loop heads at once.
        def body(asm):
            asm.data_space("arr", 4096)
            asm.li(Reg.t0, 0)                      # 0  i = 0
            asm.label("outer")
            asm.li(Reg.t1, 0)                      # 1  j = 0
            asm.label("inner")
            asm.la(Reg.t2, "arr")                  # 2
            asm.add(Reg.t2, Reg.t2, Reg.t1)        # 3
            asm.store(Reg.t1, Reg.t2, 0)           # 4
            asm.addi(Reg.t1, Reg.t1, 8)            # 5
            asm.li(Reg.at, 64)                     # 6
            asm.blt(Reg.t1, Reg.at, "inner")       # 7
            asm.addi(Reg.t0, Reg.t0, 1)            # 8
            asm.li(Reg.at, 16)                     # 9
            asm.blt(Reg.t0, Reg.at, "outer")       # 10
            asm.syscall(SYS_EXIT)                  # 11

        binary, _ = _facts_for(body)
        addr = _store_address(binary, 4)
        assert addr.kind is ValueKind.NUM
        # The inner store's base never leaves the data segment, and the
        # lower bound stays at the array base across both widenings.
        assert addr.lo is not None and addr.lo >= DATA_BASE

    def test_decreasing_counter_widens_lower_bound(self):
        # A count-down loop is the mirror case: the *lower* bound is the
        # unstable direction, so widening must drop it to -inf while the
        # stable upper bound survives.
        def body(asm):
            asm.li(Reg.t0, 64)                     # 0  n = 64
            asm.label("down")
            asm.addi(Reg.t0, Reg.t0, -8)           # 1  n -= 8
            asm.bge(Reg.t0, Reg.zero, "down")      # 2  while n >= 0
            asm.syscall(SYS_EXIT)                  # 3

        binary, facts = _facts_for(body)
        # Also check the widen operator directly in the decreasing
        # direction: lo unstable -> -inf, hi stable -> kept.
        widened = widen(interval(0, 64), interval(-8, 64))
        assert widened.lo is None
        assert widened.hi == 64
        # The analysis terminated (facts exist) despite the decreasing
        # counter — the loop body was actually visited.
        assert facts.transfer_val is not None


class TestAluTransfers:
    """Every abstract ALU transfer contains what the machine computes."""

    #: What the analysis proves of each result register of the ALU fixture.
    EXPECTED = {
        Reg.s2: interval(-765, 0),      # MULI by -3
        Reg.s3: const(0),               # MULI by 0
        Reg.s4: interval(0, 255 * 255),  # MUL of two intervals
        Reg.s5: interval(0, 63),        # SHRI by 2
        Reg.s6: interval(0, 85),        # DIV by the constant 3
        Reg.s7: interval(0, 255),       # AND of two non-negative intervals
        Reg.t4: interval(0, 255),       # OR of two non-negative intervals
        Reg.a1: const(12 & 10),
        Reg.a2: const(12 | 10),
        Reg.a3: const(12 ^ 10),
        Reg.a4: stack_ptr(-12),         # sp minus a constant
        Reg.a5: stack_ptr(12),          # a constant plus sp
    }

    def test_fixture_results_lie_in_their_abstract_values(self):
        binary = build_alu_fixture()
        cfg = build_cfg(binary, binary.function("main"))
        (state,) = solve_function(
            binary, cfg, AbsState(), lambda s, insn, _index: step(s, insn)).values()
        exit_at = max(i for i, insn in enumerate(binary.text) if insn.op is Op.LI)
        for insn in binary.text[:exit_at]:
            step(state, insn)

        system = make_system()
        process = system.kernel.spawn(binary)
        system.kernel.run()
        regs = process.original_thread
        sp = to_signed(regs.reg(Reg.sp))
        for reg, expected in self.EXPECTED.items():
            value, ran = state.get(int(reg)), to_signed(regs.reg(reg))
            assert value == expected, reg
            if value.kind is ValueKind.STACK:
                assert ran == sp + value.delta, reg
            else:
                assert value.lo <= ran <= value.hi, reg

    def test_what_no_bound_holds_for_is_unknown(self):
        negative, byte = interval(-765, 0), interval(0, 255)
        assert eval_alu(Op.SHR, negative, const(1)) == NUM_ANY
        assert eval_alu(Op.DIV, negative, const(3)) == NUM_ANY
        assert eval_alu(Op.AND, negative, byte) == NUM_ANY
        assert eval_alu(Op.AND, interval(0, None), byte) == byte
        assert eval_alu(Op.AND, interval(0, None), interval(0, None)) == NUM_ANY
        assert eval_alu(Op.OR, interval(0, None), byte) == NUM_ANY
        assert eval_alu(Op.MUL, NUM_ANY, byte) == NUM_ANY
        assert eval_alu(Op.MUL, stack_ptr(0), byte) is TOP
        assert eval_alu(Op.SHL, byte, byte) == NUM_ANY
        assert eval_alu(Op.SHL, stack_ptr(0), byte) is TOP
        assert eval_alu(Op.SUB, stack_ptr(0), byte) is TOP
        assert eval_alu(Op.MOD, byte, byte) == NUM_ANY
        assert eval_alu(Op.MOD, byte, const(8)) == interval(0, 7)


class TestStackSlots:
    def test_states_compare_only_with_states(self):
        assert AbsState() != "state"
        with pytest.raises(TypeError):
            hash(AbsState())

    def test_join_keeps_the_slots_both_sides_hold(self):
        left, right = AbsState(), AbsState()
        left.write_slot(-8, const(1), byte=False)
        left.write_slot(-16, const(1), byte=False)
        right.write_slot(-8, const(5), byte=False)
        assert left.join_with(right, widening=False).slots == {-8: interval(1, 5)}

    def test_a_byte_store_kills_the_slot_it_overlaps(self):
        state = AbsState()
        state.write_slot(-8, const(1), byte=False)
        state.write_slot(-6, const(2), byte=True)
        assert state.slots == {}

    def test_range_avoids_the_stack_and_what_lies_above(self):
        assert range_avoids(stack_ptr(-8), DATA_BASE, DATA_BASE + 100)
        assert range_avoids(interval(300, 400), 100, 200)

    def test_widening_across_kinds_is_the_join(self):
        assert widen(const(1), stack_ptr(0)) is TOP
