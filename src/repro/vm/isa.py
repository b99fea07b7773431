"""Instruction set of the SpecVM.

Design notes
------------

* 32 general-purpose 64-bit registers with MIPS/Alpha-flavoured conventions
  (``zero`` is hard-wired to 0, ``sp`` is the stack pointer, ``ra`` the link
  register).
* Text is a list of :class:`Insn`; the program counter is an index into it
  (a Harvard layout — self-modifying code is unsupported, matching the
  paper's stated limitation).
* ``CWORK cycles, nloads, nstores`` models a computation phase: it consumes
  ``cycles`` and *declares* its internal load/store mix.  SpecHint's
  transformation uses the declared mix to charge copy-on-write check cycles
  in shadow code, which is what produces the paper's per-application
  "dilation factor" without simulating every byte access.
* The ``SPEC_*`` and ``COW_*`` opcodes exist only in shadow code — they are
  emitted by the SpecHint transformation, never by the assembler.
"""

from __future__ import annotations

import enum
from typing import Any, Dict, Optional


class Reg(enum.IntEnum):
    """Register names (values are register-file indices)."""

    zero = 0
    at = 1
    v0 = 2
    v1 = 3
    a0 = 4
    a1 = 5
    a2 = 6
    a3 = 7
    a4 = 8
    a5 = 9
    t0 = 10
    t1 = 11
    t2 = 12
    t3 = 13
    t4 = 14
    t5 = 15
    t6 = 16
    t7 = 17
    t8 = 18
    t9 = 19
    s0 = 20
    s1 = 21
    s2 = 22
    s3 = 23
    s4 = 24
    s5 = 25
    s6 = 26
    s7 = 27
    gp = 28
    sp = 29
    fp = 30
    ra = 31


NUM_REGS = 32

#: 64-bit wraparound mask.
MASK64 = (1 << 64) - 1


def to_signed(value: int) -> int:
    """Interpret a 64-bit unsigned value as two's-complement signed."""
    return value - (1 << 64) if value >= (1 << 63) else value


class Op(enum.IntEnum):
    """Opcodes.  Order is stable; the machine dispatches on the int value."""

    NOP = 0
    HALT = 1

    # Register / immediate moves
    LI = 2          # a=rd, c=imm
    LA = 3          # a=rd, c=resolved address (data addr or function entry)
    MOV = 4         # a=rd, b=rs

    # Three-register ALU (a=rd, b=rs, c=rt)
    ADD = 5
    SUB = 6
    MUL = 7
    DIV = 8
    MOD = 9
    AND = 10
    OR = 11
    XOR = 12
    SHL = 13
    SHR = 14
    SLT = 15

    # Register-immediate ALU (a=rd, b=rs, c=imm)
    ADDI = 16
    MULI = 17
    ANDI = 18
    ORI = 19
    SHLI = 20
    SHRI = 21
    SLTI = 22

    # Memory (LOAD: a=rd, b=rbase, c=imm; STORE: a=rval, b=rbase, c=imm)
    LOAD = 23
    STORE = 24
    LOADB = 25
    STOREB = 26

    # Control (branches: a=rs, b=rt, c=target index)
    BEQ = 27
    BNE = 28
    BLT = 29
    BGE = 30
    JMP = 31        # c=target
    JR = 32         # a=rs
    CALL = 33       # c=target
    CALLR = 34      # a=rs
    SWITCH = 35     # a=rs (index), c=jump table id

    # System
    SYSCALL = 36    # c=syscall number
    CWORK = 37      # a=cycles, b=nloads, c=nstores

    # --- Shadow-code-only opcodes (emitted by the SpecHint transformation) ---
    COW_LOAD = 38   # like LOAD; d=check cycles
    COW_STORE = 39  # like STORE; d=check cycles
    COW_LOADB = 40
    COW_STOREB = 41
    SCWORK = 42     # a=total (dilated) cycles
    SPEC_READ = 43  # replaces SYSCALL(read) in shadow code
    SPEC_SYSCALL = 44  # other syscalls in shadow code (filtered at runtime)
    SPEC_JR = 45    # dynamic control transfer through the handling routine
    SPEC_CALLR = 46
    SPEC_SWITCH = 47  # switch via a jump table in an unrecognized format


#: Opcodes that may only appear in shadow code.
SHADOW_ONLY_OPS = frozenset(
    {
        Op.COW_LOAD,
        Op.COW_STORE,
        Op.COW_LOADB,
        Op.COW_STOREB,
        Op.SCWORK,
        Op.SPEC_READ,
        Op.SPEC_SYSCALL,
        Op.SPEC_JR,
        Op.SPEC_CALLR,
        Op.SPEC_SWITCH,
    }
)

#: Opcodes whose ``c`` operand is a text index (needing shadow remapping).
BRANCH_OPS = frozenset({Op.BEQ, Op.BNE, Op.BLT, Op.BGE})
TEXT_TARGET_OPS = frozenset({Op.BEQ, Op.BNE, Op.BLT, Op.BGE, Op.JMP, Op.CALL})


# System call numbers -----------------------------------------------------------

SYS_EXIT = 1
SYS_OPEN = 2
SYS_CLOSE = 3
SYS_READ = 4
SYS_WRITE = 5
SYS_LSEEK = 6
SYS_FSTAT = 7
SYS_SBRK = 8
SYS_HINT_SEG = 9
SYS_HINT_FD_SEG = 10
SYS_CANCEL_ALL = 11

SYSCALL_NAMES: Dict[int, str] = {
    SYS_EXIT: "exit",
    SYS_OPEN: "open",
    SYS_CLOSE: "close",
    SYS_READ: "read",
    SYS_WRITE: "write",
    SYS_LSEEK: "lseek",
    SYS_FSTAT: "fstat",
    SYS_SBRK: "sbrk",
    SYS_HINT_SEG: "hint_seg",
    SYS_HINT_FD_SEG: "hint_fd_seg",
    SYS_CANCEL_ALL: "cancel_all",
}

#: System calls the speculating thread is allowed to issue (Section 3.2.1:
#: hint calls, fstat and sbrk; open/close/lseek are *emulated in user space*
#: by the SpecHint runtime against its speculative fd table, never reaching
#: the kernel).
SPEC_ALLOWED_SYSCALLS = frozenset(
    {SYS_FSTAT, SYS_SBRK, SYS_HINT_SEG, SYS_HINT_FD_SEG, SYS_CANCEL_ALL}
)

#: lseek whence values.
SEEK_SET = 0
SEEK_CUR = 1
SEEK_END = 2


def seek_offset(current: int, size: int, offset: int, whence: int) -> Optional[int]:
    """The file offset an lseek moves to, clamped at 0; None for a bad whence.

    The one rule for the original thread's kernel lseek and the speculating
    thread's user-space one; each caller raises its own error on None.
    """
    if whence == SEEK_SET:
        base = 0
    elif whence == SEEK_CUR:
        base = current
    elif whence == SEEK_END:
        base = size
    else:
        return None
    return max(0, base + offset)


class Insn:
    """One instruction.

    Operand meaning depends on the opcode (see :class:`Op` comments).
    ``d`` carries transformation-computed extras (COW check cycle cost).
    ``meta`` holds assembler annotations used by the SpecHint tool:
    ``"stack"`` (base register is sp/fp — stack-relative accesses skip COW
    checks because the speculating thread works on a copied stack),
    ``"func"`` (enclosing function name), ``"call_target"`` (symbol name of
    a static call), ``"funcaddr"`` (an LA of a function address, i.e. a
    relocation the tool can see).
    """

    __slots__ = ("op", "a", "b", "c", "d", "meta")

    def __init__(
        self,
        op: Op,
        a: int = 0,
        b: int = 0,
        c: int = 0,
        d: int = 0,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.op = op
        self.a = a
        self.b = b
        self.c = c
        self.d = d
        self.meta = meta

    def clone(self) -> "Insn":
        """Shallow copy (meta dict is shared; transformations replace it)."""
        return Insn(self.op, self.a, self.b, self.c, self.d,
                    dict(self.meta) if self.meta else None)

    def get_meta(self, key: str, default: Any = None) -> Any:
        if self.meta is None:
            return default
        return self.meta.get(key, default)

    def __repr__(self) -> str:
        return f"Insn({self.op.name}, a={self.a}, b={self.b}, c={self.c}, d={self.d})"


# Default cycle costs per opcode class (simple in-order pipeline model).
ALU_COST = 1
MEM_COST = 2
BRANCH_COST = 1
CALL_COST = 2
SWITCH_COST = 3
