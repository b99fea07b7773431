"""Tests for the analysis CFG builder (blocks, edges) and its dominator
routine.

Includes the disassembly-semantics edge cases the lint pass reports:
a branch sitting on the last instruction of a function, and a function
whose last block can fall through into the next function.
"""

from repro.analysis.cfg import (
    build_cfg,
    build_cfgs,
    dominator_sets,
    falls_through,
    intra_successors,
    is_terminator,
)
from repro.vm.assembler import Assembler
from repro.vm.isa import SYS_EXIT, Reg


def _dominators(cfg):
    """Forward dominators of the reachable blocks, from the entry block."""
    live = cfg.reachable_blocks()
    return dominator_sets(cfg.entry_block, live, lambda b: [
        p for p in cfg.blocks[b].predecessors if p in live
    ])


def build_loop_binary():
    asm = Assembler("loop")
    asm.entry("main")
    with asm.function("main"):
        asm.li(Reg.t0, 0)           # 0
        asm.li(Reg.t1, 10)          # 1
        asm.label("loop_top")
        asm.addi(Reg.t0, Reg.t0, 1)  # 2
        asm.blt(Reg.t0, Reg.t1, "loop_top")  # 3
        asm.li(Reg.a0, 0)           # 4
        asm.syscall(SYS_EXIT)       # 5
    return asm.finish()


class TestBlocks:
    def test_leaders_split_on_branch_and_target(self):
        binary = build_loop_binary()
        cfg = build_cfg(binary, binary.functions[0])
        starts = [b.start for b in cfg.blocks]
        assert starts == [0, 2, 4]
        assert cfg.block_at[3] == 1
        assert cfg.blocks[1].terminator == 3

    def test_edges(self):
        binary = build_loop_binary()
        cfg = build_cfg(binary, binary.functions[0])
        assert cfg.blocks[0].successors == [1]
        assert sorted(cfg.blocks[1].successors) == [1, 2]
        assert cfg.blocks[2].successors == []
        assert sorted(cfg.blocks[1].predecessors) == [0, 1]

    def test_exit_syscall_terminates(self):
        binary = build_loop_binary()
        func = binary.functions[0]
        assert is_terminator(binary, 5)
        assert not falls_through(binary, 5)
        assert intra_successors(binary, 5, func) == ()


class TestDominatorsAndLoops:
    def test_entry_dominates_everything(self):
        binary = build_loop_binary()
        cfg = build_cfg(binary, binary.functions[0])
        dominators = _dominators(cfg)
        assert set(dominators) == {0, 1, 2}
        for block_id, doms in dominators.items():
            assert 0 in doms
            assert block_id in doms

    def test_natural_loop(self):
        """A natural loop's back edge is the one edge whose head dominates
        its tail: here block 1's branch back to itself."""
        binary = build_loop_binary()
        cfg = build_cfg(binary, binary.functions[0])
        dominators = _dominators(cfg)
        back_edges = [
            (block.block_id, succ) for block in cfg.blocks
            for succ in block.successors if succ in dominators[block.block_id]
        ]
        assert back_edges == [(1, 1)]
        assert dominators[2] == frozenset({0, 1, 2})

    def test_unreachable_block_excluded(self):
        asm = Assembler("dead")
        asm.entry("main")
        with asm.function("main"):
            asm.jmp("out")          # 0
            asm.li(Reg.t0, 7)       # 1 -- unreachable
            asm.label("out")
            asm.li(Reg.a0, 0)       # 2
            asm.syscall(SYS_EXIT)   # 3
        binary = asm.finish()
        cfg = build_cfg(binary, binary.functions[0])
        reachable = cfg.reachable_blocks()
        assert cfg.block_at[1] not in reachable
        assert cfg.block_at[2] in reachable


class TestFunctionBoundaryEdgeCases:
    def test_branch_at_last_instruction_of_function(self):
        """A branch on the function's final index has no fall successor
        (falling would leave the function) but still flags falls_off_end."""
        asm = Assembler("branch-last")
        asm.entry("main")
        with asm.function("spin"):
            asm.label("spin_top")
            asm.addi(Reg.t0, Reg.t0, 1)           # 0
            asm.blt(Reg.t0, Reg.t1, "spin_top")   # 1 -- last insn
        with asm.function("main"):
            asm.li(Reg.a0, 0)
            asm.syscall(SYS_EXIT)
        binary = asm.finish()
        spin = binary.functions[0]
        assert spin.end == 2
        assert intra_successors(binary, 1, spin) == (0,)
        cfg = build_cfg(binary, spin)
        assert len(cfg.blocks) == 1
        assert cfg.blocks[0].successors == [0]  # self loop only
        assert cfg.falls_off_end

    def test_fallthrough_into_next_function(self):
        """A function ending in a plain instruction can run off its end."""
        asm = Assembler("runs-off")
        asm.entry("main")
        with asm.function("broken"):
            asm.li(Reg.t0, 1)
        with asm.function("main"):
            asm.li(Reg.a0, 0)
            asm.syscall(SYS_EXIT)
        binary = asm.finish()
        cfgs = build_cfgs(binary)
        assert cfgs["broken"].falls_off_end
        assert not cfgs["main"].falls_off_end

    def test_returning_function_does_not_fall_off(self):
        asm = Assembler("clean")
        asm.entry("main")
        with asm.function("helper"):
            asm.li(Reg.v0, 1)
            asm.ret()
        with asm.function("main"):
            asm.li(Reg.a0, 0)
            asm.syscall(SYS_EXIT)
        binary = asm.finish()
        assert not build_cfgs(binary)["helper"].falls_off_end


class TestSwitchEdges:
    def test_switch_edges_go_to_table_targets(self):
        asm = Assembler("sw")
        asm.entry("main")
        with asm.function("main"):
            table = asm.jump_table(["case0", "case1"])
            asm.li(Reg.t0, 1)          # 0
            asm.switch(Reg.t0, table)  # 1
            asm.label("case0")
            asm.li(Reg.a0, 0)          # 2
            asm.syscall(SYS_EXIT)      # 3
            asm.label("case1")
            asm.li(Reg.a0, 1)          # 4
            asm.syscall(SYS_EXIT)      # 5
        binary = asm.finish()
        func = binary.functions[0]
        assert not falls_through(binary, 1)
        assert sorted(intra_successors(binary, 1, func)) == [2, 4]
        cfg = build_cfg(binary, func)
        succs = {cfg.blocks[b].start for b in cfg.blocks[cfg.block_at[1]].successors}
        assert succs == {2, 4}


def test_an_unknown_jump_table_has_no_targets():
    from repro.analysis.cfg import table_targets
    from repro.analysis.fixtures import build_safe_fixture

    binary = build_safe_fixture()
    assert not binary.jump_tables
    assert table_targets(binary, 7) == ()
    assert binary.secret_regions() == ()
