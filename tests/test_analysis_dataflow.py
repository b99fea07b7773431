"""Tests for register definitions and uses, and the reaching definitions
the taint lint's witnesses walk."""

from repro.analysis.cfg import build_cfg
from repro.analysis.dataflow import CALL_CLOBBERS, defs_uses
from repro.analysis.taint import reaching_definitions
from repro.vm.assembler import Assembler
from repro.vm.isa import Insn, Op, Reg, SYS_EXIT


class TestDefsUses:
    def test_li_defines_only(self):
        defs, uses = defs_uses(Insn(Op.LI, int(Reg.t0), 0, 5))
        assert defs == {int(Reg.t0)}
        assert uses == frozenset()

    def test_alu_three_reg(self):
        insn = Insn(Op.ADD, int(Reg.t0), int(Reg.t1), int(Reg.t2))
        defs, uses = defs_uses(insn)
        assert defs == {int(Reg.t0)}
        assert uses == {int(Reg.t1), int(Reg.t2)}

    def test_store_uses_value_and_base(self):
        insn = Insn(Op.STORE, int(Reg.t0), int(Reg.t1), 8)
        defs, uses = defs_uses(insn)
        assert defs == frozenset()
        assert uses == {int(Reg.t0), int(Reg.t1)}

    def test_load_defines_dest_uses_base(self):
        insn = Insn(Op.LOAD, int(Reg.t0), int(Reg.t1), 8)
        defs, uses = defs_uses(insn)
        assert defs == {int(Reg.t0)}
        assert uses == {int(Reg.t1)}

    def test_call_clobbers_caller_saved(self):
        defs, uses = defs_uses(Insn(Op.CALL, 0, 0, 42))
        assert defs == CALL_CLOBBERS
        assert int(Reg.ra) in defs
        assert int(Reg.sp) not in defs  # callee-saved survives
        assert int(Reg.sp) in uses

    def test_callr_also_uses_target_register(self):
        defs, uses = defs_uses(Insn(Op.CALLR, int(Reg.t5), 0, 0))
        assert int(Reg.t5) in uses
        assert defs == CALL_CLOBBERS

    def test_syscall_defines_v0(self):
        defs, uses = defs_uses(Insn(Op.SYSCALL, 0, 0, 4))
        assert defs == {int(Reg.v0)}
        assert uses == {int(Reg.a0), int(Reg.a1), int(Reg.a2)}


def _single_function(build):
    asm = Assembler("df")
    asm.entry("main")
    with asm.function("main"):
        build(asm)
    binary = asm.finish()
    return binary, build_cfg(binary, binary.functions[0])


class TestReachingDefinitions:
    def test_redefinition_kills(self):
        def body(asm):
            asm.li(Reg.t0, 1)        # 0
            asm.li(Reg.t0, 2)        # 1  kills def@0
            asm.mov(Reg.t1, Reg.t0)  # 2
            asm.syscall(SYS_EXIT)    # 3

        binary, cfg = _single_function(body)
        reach = reaching_definitions(binary, cfg)
        t0 = int(Reg.t0)
        assert (1, t0) in reach[2]
        assert (0, t0) not in reach[2]

    def test_defs_merge_over_branches(self):
        def body(asm):
            asm.li(Reg.t0, 1)                    # 0
            asm.beq(Reg.t1, Reg.t2, "skip")      # 1
            asm.li(Reg.t0, 2)                    # 2
            asm.label("skip")
            asm.mov(Reg.t3, Reg.t0)              # 3
            asm.syscall(SYS_EXIT)                # 4

        binary, cfg = _single_function(body)
        reach = reaching_definitions(binary, cfg)
        t0 = int(Reg.t0)
        # Both the fallthrough def and the branch-skipped def reach the join.
        assert (0, t0) in reach[3]
        assert (2, t0) in reach[3]

    def test_loop_carries_defs_backwards(self):
        def body(asm):
            asm.li(Reg.t0, 0)                    # 0
            asm.label("top")
            asm.addi(Reg.t0, Reg.t0, 1)          # 1
            asm.blt(Reg.t0, Reg.t1, "top")       # 2
            asm.syscall(SYS_EXIT)                # 3

        binary, cfg = _single_function(body)
        reach = reaching_definitions(binary, cfg)
        t0 = int(Reg.t0)
        # The loop-body def flows around the back edge to its own IN set.
        assert (1, t0) in reach[1]
        assert (0, t0) in reach[1]

    def test_no_edge_is_pruned(self):
        # The value domain proves the fall-through edge infeasible
        # (t0 == t1 == 1); reaching definitions ignore that refinement.
        def body(asm):
            asm.li(Reg.t0, 1)                    # 0
            asm.li(Reg.t1, 1)                    # 1
            asm.beq(Reg.t0, Reg.t1, "skip")      # 2
            asm.li(Reg.t2, 5)                    # 3
            asm.label("skip")
            asm.mov(Reg.t3, Reg.t2)              # 4
            asm.syscall(SYS_EXIT)                # 5

        binary, cfg = _single_function(body)
        reach = reaching_definitions(binary, cfg)
        assert (3, int(Reg.t2)) in reach[4]

    def test_unreachable_block_has_no_entry(self):
        def body(asm):
            asm.jmp("out")                       # 0
            asm.li(Reg.t0, 7)                    # 1  unreachable
            asm.label("out")
            asm.mov(Reg.t1, Reg.t0)              # 2
            asm.syscall(SYS_EXIT)                # 3

        binary, cfg = _single_function(body)
        reach = reaching_definitions(binary, cfg)
        assert 1 not in reach
        assert (1, int(Reg.t0)) not in reach[2]


def test_jr_uses_its_register_and_defines_nothing():
    defs, uses = defs_uses(Insn(Op.JR, int(Reg.t3), 0, 0))
    assert (set(defs), set(uses)) == (set(), {int(Reg.t3)})
