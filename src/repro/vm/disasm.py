"""Assembly-like text for SpecVM instructions.

:func:`format_insn` renders one instruction, resolving branch, call and
jump-table targets to function names when given the binary.  The
static-analysis reports use it for their per-function listings and lint
witnesses.
"""

from __future__ import annotations

from typing import Optional

from repro.vm.binary import Binary
from repro.vm.isa import Insn, Op, Reg, SYSCALL_NAMES


def _reg(index: int) -> str:
    return Reg(index).name


def format_insn(insn: Insn, binary: Optional[Binary] = None) -> str:
    """One instruction as assembly-like text."""
    op = insn.op
    if op in (Op.NOP, Op.HALT):
        return op.name.lower()
    if op in (Op.LI, Op.LA):
        return f"{op.name.lower():8s}{_reg(insn.a)}, {insn.c:#x}" \
            if op is Op.LA else f"li      {_reg(insn.a)}, {insn.c}"
    if op is Op.MOV:
        return f"mov     {_reg(insn.a)}, {_reg(insn.b)}"
    if op in (Op.ADD, Op.SUB, Op.MUL, Op.DIV, Op.MOD, Op.AND, Op.OR,
              Op.XOR, Op.SHL, Op.SHR, Op.SLT):
        return (f"{op.name.lower():8s}{_reg(insn.a)}, {_reg(insn.b)}, "
                f"{_reg(insn.c)}")
    if op in (Op.ADDI, Op.MULI, Op.ANDI, Op.ORI, Op.SHLI, Op.SHRI, Op.SLTI):
        return f"{op.name.lower():8s}{_reg(insn.a)}, {_reg(insn.b)}, {insn.c}"
    if op in (Op.LOAD, Op.LOADB, Op.COW_LOAD, Op.COW_LOADB):
        suffix = f"  ; +{insn.d}c cow" if insn.d else ""
        return (f"{op.name.lower():10s}{_reg(insn.a)}, "
                f"{insn.c}({_reg(insn.b)}){suffix}")
    if op in (Op.STORE, Op.STOREB, Op.COW_STORE, Op.COW_STOREB):
        suffix = f"  ; +{insn.d}c cow" if insn.d else ""
        return (f"{op.name.lower():10s}{_reg(insn.a)}, "
                f"{insn.c}({_reg(insn.b)}){suffix}")
    if op in (Op.BEQ, Op.BNE, Op.BLT, Op.BGE):
        return (f"{op.name.lower():8s}{_reg(insn.a)}, {_reg(insn.b)}, "
                f"{_label(insn.c, binary)}")
    if op is Op.JMP:
        return f"jmp     {_label(insn.c, binary)}"
    if op is Op.CALL:
        target = insn.get_meta("call_target")
        return f"call    {target or _label(insn.c, binary)}"
    if op in (Op.JR, Op.SPEC_JR):
        return f"{op.name.lower():8s}{_reg(insn.a)}"
    if op in (Op.CALLR, Op.SPEC_CALLR):
        return f"{op.name.lower():8s}{_reg(insn.a)}"
    if op in (Op.SWITCH, Op.SPEC_SWITCH):
        text = f"{op.name.lower():8s}{_reg(insn.a)}, table#{insn.c}"
        if binary is not None:
            table = binary.jump_table(insn.c)
            targets = ", ".join(
                _label(t, binary) for t in table.targets[:6]
            )
            if len(table.targets) > 6:
                targets += ", ..."
            tag = "" if table.recognized else "unrecognized; "
            text += f"  ; {tag}[{targets}]"
        return text
    if op in (Op.SYSCALL, Op.SPEC_SYSCALL):
        name = SYSCALL_NAMES.get(insn.c, str(insn.c))
        return f"{op.name.lower() + ' ':14s}{name}"
    if op is Op.SPEC_READ:
        return "spec_read         ; hint call substituted for read()"
    if op is Op.CWORK:
        return f"cwork   {insn.a}c (loads={insn.b}, stores={insn.c})"
    # The one opcode left (every opcode has a format).
    return f"scwork  {insn.a}c        ; cow-dilated computation"


def _label(target: int, binary: Optional[Binary]) -> str:
    if binary is not None:
        func = binary.function_at_entry(target)
        if func is not None:
            return func.name
    return f"@{target}"
