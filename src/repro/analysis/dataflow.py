"""Register definitions and uses (analysis stage 2).

What each instruction defines and uses, under the SpecVM calling
convention: a call may define every caller-saved register (``at``,
``v0``/``v1``, ``a0``–``a5``, ``t0``–``t9``, ``ra``) and uses the
argument registers and the stack pointer.  The abstract interpreter
forgets :data:`CALL_CLOBBERS` at a call; the taint lint's reaching
definitions and witness chains read :func:`defs_uses`.  No fixpoint
runs here: :func:`repro.analysis.absint.solve_function` is the one
solver.
"""

from __future__ import annotations

from typing import FrozenSet, Tuple

from repro.vm.isa import BRANCH_OPS, Insn, Op, Reg

RegSet = FrozenSet[int]

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
