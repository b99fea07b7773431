"""Worklist dataflow engine (analysis stage 2).

A small, generic fixed-point solver over basic blocks plus the two
classic bit-vector problems the rest of the pipeline (and its tests)
use: reaching definitions and live registers.  Both treat calls with
the SpecVM calling convention: a call may define every caller-saved
register (``at``, ``v0``/``v1``, ``a0``–``a5``, ``t0``–``t9``, ``ra``)
and uses the argument registers and the stack pointer.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Tuple, TypeVar

from repro.analysis.cfg import CFG
from repro.vm.binary import Binary
from repro.vm.isa import BRANCH_OPS, Insn, Op, Reg

T = TypeVar("T")

RegSet = FrozenSet[int]
#: A definition site: (instruction index, register).
DefSite = Tuple[int, int]

_EMPTY: FrozenSet[int] = frozenset()

#: ``op rd, rs, rt`` and ``op rd, rs, imm`` ALU opcodes.
THREE_REG_ALU = frozenset(
    {Op.ADD, Op.SUB, Op.MUL, Op.DIV, Op.MOD, Op.AND, Op.OR, Op.XOR,
     Op.SHL, Op.SHR, Op.SLT}
)
IMM_ALU = frozenset(
    {Op.ADDI, Op.MULI, Op.ANDI, Op.ORI, Op.SHLI, Op.SHRI, Op.SLTI}
)

#: Registers a call may clobber under the SpecVM calling convention.
CALL_CLOBBERS: RegSet = frozenset(
    {int(Reg.at), int(Reg.v0), int(Reg.v1), int(Reg.ra)}
    | {int(r) for r in (Reg.a0, Reg.a1, Reg.a2, Reg.a3, Reg.a4, Reg.a5)}
    | {int(r) for r in (Reg.t0, Reg.t1, Reg.t2, Reg.t3, Reg.t4,
                        Reg.t5, Reg.t6, Reg.t7, Reg.t8, Reg.t9)}
)
_CALL_USES: RegSet = frozenset(
    {int(r) for r in (Reg.a0, Reg.a1, Reg.a2, Reg.a3, Reg.a4, Reg.a5)}
    | {int(Reg.sp)}
)
_SYSCALL_DEFS: RegSet = frozenset({int(Reg.v0)})
_SYSCALL_USES: RegSet = frozenset({int(Reg.a0), int(Reg.a1), int(Reg.a2)})


def defs_uses(insn: Insn) -> Tuple[RegSet, RegSet]:
    """(defined registers, used registers) of one instruction."""
    op = insn.op
    if op in (Op.LI, Op.LA):
        return frozenset({insn.a}), _EMPTY
    if op is Op.MOV:
        return frozenset({insn.a}), frozenset({insn.b})
    if op in THREE_REG_ALU:
        return frozenset({insn.a}), frozenset({insn.b, insn.c})
    if op in IMM_ALU:
        return frozenset({insn.a}), frozenset({insn.b})
    if op in (Op.LOAD, Op.LOADB):
        return frozenset({insn.a}), frozenset({insn.b})
    if op in (Op.STORE, Op.STOREB):
        return _EMPTY, frozenset({insn.a, insn.b})
    if op in BRANCH_OPS:
        return _EMPTY, frozenset({insn.a, insn.b})
    if op is Op.JR:
        return _EMPTY, frozenset({insn.a})
    if op is Op.CALL:
        return CALL_CLOBBERS, _CALL_USES
    if op is Op.CALLR:
        return CALL_CLOBBERS, _CALL_USES | frozenset({insn.a})
    if op is Op.SWITCH:
        return _EMPTY, frozenset({insn.a})
    if op is Op.SYSCALL:
        return _SYSCALL_DEFS, _SYSCALL_USES
    return _EMPTY, _EMPTY  # NOP, HALT, CWORK, JMP


def worklist_solve(
    cfg: CFG,
    transfer: Callable[[int, FrozenSet[T]], FrozenSet[T]],
    *,
    forward: bool,
    boundary: FrozenSet[T],
) -> Tuple[Dict[int, FrozenSet[T]], Dict[int, FrozenSet[T]]]:
    """Union-join fixed point of ``transfer`` over the blocks of ``cfg``.

    Returns (facts where the flow enters each block, facts where it leaves
    it).  Forward, that is (in, out) per block: ``in`` joined over
    predecessor ``out`` values, ``boundary`` seeding the entry block.
    Backward it is (out, in) with the roles of the edge directions swapped
    (``boundary`` seeds blocks with no successors).
    """
    blocks = cfg.blocks
    n = len(blocks)
    empty: FrozenSet[T] = frozenset()
    enter: Dict[int, FrozenSet[T]] = {b: empty for b in range(n)}
    leave: Dict[int, FrozenSet[T]] = {b: empty for b in range(n)}

    pending: List[int] = list(range(n))
    on_list = [True] * n
    while pending:
        block_id = pending.pop(0)
        on_list[block_id] = False
        block = blocks[block_id]
        if forward:
            sources, sinks = block.predecessors, block.successors
            seeded = block_id == cfg.entry_block
        else:
            sources, sinks = block.successors, block.predecessors
            seeded = not sources
        joined: FrozenSet[T] = boundary if seeded else empty
        for src in sources:
            joined |= leave[src]
        enter[block_id] = joined
        result = transfer(block_id, joined)
        if result != leave[block_id]:
            leave[block_id] = result
            for sink in sinks:
                if not on_list[sink]:
                    pending.append(sink)
                    on_list[sink] = True
    return enter, leave


def reaching_definitions(
    binary: Binary, cfg: CFG
) -> Dict[int, FrozenSet[DefSite]]:
    """Definition sites reaching each instruction (per-insn IN sets)."""
    text = binary.text
    block_gen: Dict[int, FrozenSet[DefSite]] = {}
    block_kill_regs: Dict[int, RegSet] = {}
    for block in cfg.blocks:
        gen: Dict[int, DefSite] = {}
        killed: FrozenSet[int] = frozenset()
        for index in block.indices():
            defs, _ = defs_uses(text[index])
            for reg in defs:
                gen[reg] = (index, reg)
            killed |= defs
        block_gen[block.block_id] = frozenset(gen.values())
        block_kill_regs[block.block_id] = killed

    def transfer(
        block_id: int, in_set: FrozenSet[DefSite]
    ) -> FrozenSet[DefSite]:
        killed = block_kill_regs[block_id]
        survivors = frozenset(d for d in in_set if d[1] not in killed)
        return survivors | block_gen[block_id]

    in_map, _ = worklist_solve(
        cfg, transfer, forward=True, boundary=frozenset()
    )

    result: Dict[int, FrozenSet[DefSite]] = {}
    for block in cfg.blocks:
        live: FrozenSet[DefSite] = in_map[block.block_id]
        for index in block.indices():
            result[index] = live
            defs, _ = defs_uses(text[index])
            if defs:
                live = frozenset(d for d in live if d[1] not in defs)
                live |= frozenset((index, reg) for reg in defs)
    return result


def live_out(binary: Binary, cfg: CFG) -> Dict[int, RegSet]:
    """Registers live immediately after each instruction."""
    text = binary.text
    block_use: Dict[int, RegSet] = {}
    block_def: Dict[int, RegSet] = {}
    for block in cfg.blocks:
        used: FrozenSet[int] = frozenset()
        defined: FrozenSet[int] = frozenset()
        for index in block.indices():
            defs, uses = defs_uses(text[index])
            used |= uses - defined
            defined |= defs
        block_use[block.block_id] = used
        block_def[block.block_id] = defined

    def transfer(block_id: int, out_set: RegSet) -> RegSet:
        return block_use[block_id] | (out_set - block_def[block_id])

    out_map, _ = worklist_solve(
        cfg, transfer, forward=False, boundary=frozenset()
    )

    result: Dict[int, RegSet] = {}
    for block in cfg.blocks:
        live: RegSet = out_map[block.block_id]
        for index in reversed(list(block.indices())):
            result[index] = live
            defs, uses = defs_uses(text[index])
            live = uses | (live - defs)
    return result
