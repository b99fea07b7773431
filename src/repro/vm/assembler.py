"""Two-pass assembler / program builder for SpecVM binaries.

Programs are built through method calls rather than parsed from source —
one method per opcode, plus data directives, labels, functions, jump tables
and a few pseudo-instructions (``push``/``pop``/``ret``).  Label and symbol
references are recorded as strings and resolved in :meth:`Assembler.finish`.

The assembler also records the annotations the SpecHint tool relies on
(mirroring what a real tool recovers from relocation and symbol
information): enclosing function of each instruction, static call targets,
stack-relative memory accesses, and function-address constants.
"""

from __future__ import annotations

import contextlib
from typing import Dict, Iterator, List, Optional, Set, Union

from repro.errors import AssemblyError
from repro.vm.binary import Binary, Function, JumpTable
from repro.vm.isa import Insn, Op, Reg
from repro.vm.memory import DATA_BASE

RegLike = Union[Reg, str, int]


def _reg(r: RegLike) -> int:
    """Normalize a register reference (Reg, name string, or index)."""
    if isinstance(r, Reg):
        return int(r)
    if isinstance(r, str):
        try:
            return int(Reg[r])
        except KeyError:
            raise AssemblyError(f"unknown register {r!r}") from None
    if isinstance(r, int) and 0 <= r < 32:
        return r
    raise AssemblyError(f"bad register {r!r}")


def _wreg(r: RegLike) -> int:
    """Normalize a *destination* register; ``zero`` is not writable."""
    index = _reg(r)
    if index == int(Reg.zero):
        raise AssemblyError("the zero register is read-only")
    return index


class Assembler:
    """Builds one :class:`~repro.vm.binary.Binary`."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._text: List[Insn] = []
        self._data = bytearray()
        self._data_symbols: Dict[str, int] = {}
        self._labels: Dict[str, int] = {}
        self._functions: List[Function] = []
        self._open_function: Optional[str] = None
        self._open_function_start = 0
        self._jump_tables: List[JumpTable] = []
        self._jump_table_labels: List[List[str]] = []
        self._jump_table_recognized: List[bool] = []
        self._entry_label: Optional[str] = None
        self._output_routines: Set[str] = set()
        self._optimized_stdlib: Set[str] = set()
        self._secret_symbols: Set[str] = set()

    # -- data section ------------------------------------------------------------

    def _align(self, alignment: int) -> None:
        while len(self._data) % alignment:
            self._data.append(0)

    def data_word(self, name: str, value: int = 0, secret: bool = False) -> int:
        """An 8-byte global; returns its absolute address."""
        self._align(8)
        return self.data_bytes(
            name, (value & ((1 << 64) - 1)).to_bytes(8, "little"), secret=secret
        )

    def data_words(self, name: str, values: List[int], secret: bool = False) -> int:
        """An array of 8-byte words."""
        self._align(8)
        payload = b"".join((v & ((1 << 64) - 1)).to_bytes(8, "little") for v in values)
        return self.data_bytes(name, payload, secret=secret)

    def data_bytes(self, name: str, payload: bytes, secret: bool = False) -> int:
        """Raw initialized bytes; returns the absolute address.

        ``secret=True`` marks the symbol's bytes as secret: the security
        lint (``repro analyze --security``) proves no hint operand ever
        derives from them.
        """
        if name in self._data_symbols:
            raise AssemblyError(f"duplicate data symbol {name!r}")
        addr = DATA_BASE + len(self._data)
        self._data_symbols[name] = addr
        self._data.extend(payload)
        if secret:
            self._secret_symbols.add(name)
        return addr

    def data_asciiz(self, name: str, text: str, secret: bool = False) -> int:
        """A NUL-terminated string."""
        return self.data_bytes(name, text.encode("ascii") + b"\x00", secret=secret)

    def data_space(self, name: str, nbytes: int, secret: bool = False) -> int:
        """Zero-initialized space (buffers)."""
        self._align(8)
        return self.data_bytes(name, b"\x00" * nbytes, secret=secret)

    def data_addr(self, name: str) -> int:
        """Address of an existing data symbol."""
        addr = self._data_symbols.get(name)
        if addr is None:
            raise AssemblyError(f"unknown data symbol {name!r}")
        return addr

    # -- labels / functions ---------------------------------------------------------

    @property
    def here(self) -> int:
        """Index the next emitted instruction will occupy."""
        return len(self._text)

    def label(self, name: str) -> None:
        """Define a code label at the current position."""
        if name in self._labels:
            raise AssemblyError(f"duplicate label {name!r}")
        self._labels[name] = self.here

    @contextlib.contextmanager
    def function(
        self,
        name: str,
        output_routine: bool = False,
        optimized_stdlib: bool = False,
    ) -> Iterator[None]:
        """Delimit a function; its name becomes a code label too."""
        if self._open_function is not None:
            raise AssemblyError(
                f"function {name!r} opened inside {self._open_function!r}"
            )
        self.label(name)
        self._open_function = name
        self._open_function_start = self.here
        if output_routine:
            self._output_routines.add(name)
        if optimized_stdlib:
            self._optimized_stdlib.add(name)
        try:
            yield
        finally:
            self._functions.append(Function(name, self._open_function_start, self.here))
            self._open_function = None

    def entry(self, label: str) -> None:
        """Declare the program entry point."""
        self._entry_label = label

    def jump_table(self, target_labels: List[str], recognized: bool = True) -> int:
        """Create a jump table; returns its id for :meth:`switch`."""
        table_id = len(self._jump_table_labels)
        self._jump_table_labels.append(list(target_labels))
        self._jump_table_recognized.append(recognized)
        return table_id

    # -- emission core -----------------------------------------------------------------

    def _emit(self, op: Op, a: int = 0, b: int = 0, c: object = 0, **meta: object) -> Insn:
        full_meta: Dict[str, object] = dict(meta) if meta else {}
        if self._open_function is not None:
            full_meta["func"] = self._open_function
        # Unresolved targets are parked in meta and fixed up in finish().
        if isinstance(c, str):
            full_meta["fixup"] = c
            c = 0
        insn = Insn(op, a, b, int(c), 0, full_meta or None)  # type: ignore[arg-type]
        self._text.append(insn)
        return insn

    # -- instructions ----------------------------------------------------------------------

    def nop(self) -> None:
        self._emit(Op.NOP)

    def halt(self) -> None:
        self._emit(Op.HALT)

    def li(self, rd: RegLike, imm: int) -> None:
        self._emit(Op.LI, _wreg(rd), 0, imm)

    def la(self, rd: RegLike, symbol: str) -> None:
        """Load the address of a data symbol, or of a function (a
        function-address constant, visible to SpecHint via relocations)."""
        if symbol in self._data_symbols:
            self._emit(Op.LA, _wreg(rd), 0, self._data_symbols[symbol])
        else:
            # Assume a function/code label; resolved in finish().
            self._emit(Op.LA, _wreg(rd), 0, symbol, funcaddr=symbol)

    def mov(self, rd: RegLike, rs: RegLike) -> None:
        self._emit(Op.MOV, _wreg(rd), _reg(rs))

    # three-register ALU
    def add(self, rd: RegLike, rs: RegLike, rt: RegLike) -> None:
        self._emit(Op.ADD, _wreg(rd), _reg(rs), _reg(rt))

    def sub(self, rd: RegLike, rs: RegLike, rt: RegLike) -> None:
        self._emit(Op.SUB, _wreg(rd), _reg(rs), _reg(rt))

    def mul(self, rd: RegLike, rs: RegLike, rt: RegLike) -> None:
        self._emit(Op.MUL, _wreg(rd), _reg(rs), _reg(rt))

    def div(self, rd: RegLike, rs: RegLike, rt: RegLike) -> None:
        self._emit(Op.DIV, _wreg(rd), _reg(rs), _reg(rt))

    def mod(self, rd: RegLike, rs: RegLike, rt: RegLike) -> None:
        self._emit(Op.MOD, _wreg(rd), _reg(rs), _reg(rt))

    def and_(self, rd: RegLike, rs: RegLike, rt: RegLike) -> None:
        self._emit(Op.AND, _wreg(rd), _reg(rs), _reg(rt))

    def or_(self, rd: RegLike, rs: RegLike, rt: RegLike) -> None:
        self._emit(Op.OR, _wreg(rd), _reg(rs), _reg(rt))

    def xor(self, rd: RegLike, rs: RegLike, rt: RegLike) -> None:
        self._emit(Op.XOR, _wreg(rd), _reg(rs), _reg(rt))

    def shl(self, rd: RegLike, rs: RegLike, rt: RegLike) -> None:
        self._emit(Op.SHL, _wreg(rd), _reg(rs), _reg(rt))

    def shr(self, rd: RegLike, rs: RegLike, rt: RegLike) -> None:
        self._emit(Op.SHR, _wreg(rd), _reg(rs), _reg(rt))

    def slt(self, rd: RegLike, rs: RegLike, rt: RegLike) -> None:
        self._emit(Op.SLT, _wreg(rd), _reg(rs), _reg(rt))

    # register-immediate ALU
    def addi(self, rd: RegLike, rs: RegLike, imm: int) -> None:
        self._emit(Op.ADDI, _wreg(rd), _reg(rs), imm)

    def muli(self, rd: RegLike, rs: RegLike, imm: int) -> None:
        self._emit(Op.MULI, _wreg(rd), _reg(rs), imm)

    def andi(self, rd: RegLike, rs: RegLike, imm: int) -> None:
        self._emit(Op.ANDI, _wreg(rd), _reg(rs), imm)

    def ori(self, rd: RegLike, rs: RegLike, imm: int) -> None:
        self._emit(Op.ORI, _wreg(rd), _reg(rs), imm)

    def shli(self, rd: RegLike, rs: RegLike, imm: int) -> None:
        self._emit(Op.SHLI, _wreg(rd), _reg(rs), imm)

    def shri(self, rd: RegLike, rs: RegLike, imm: int) -> None:
        self._emit(Op.SHRI, _wreg(rd), _reg(rs), imm)

    def slti(self, rd: RegLike, rs: RegLike, imm: int) -> None:
        self._emit(Op.SLTI, _wreg(rd), _reg(rs), imm)

    # memory
    def _mem_meta(self, base: int) -> Dict[str, object]:
        return {"stack": True} if base in (int(Reg.sp), int(Reg.fp)) else {}

    def load(self, rd: RegLike, base: RegLike, imm: int = 0) -> None:
        b = _reg(base)
        self._emit(Op.LOAD, _wreg(rd), b, imm, **self._mem_meta(b))

    def store(self, rval: RegLike, base: RegLike, imm: int = 0) -> None:
        b = _reg(base)
        self._emit(Op.STORE, _reg(rval), b, imm, **self._mem_meta(b))

    def loadb(self, rd: RegLike, base: RegLike, imm: int = 0) -> None:
        b = _reg(base)
        self._emit(Op.LOADB, _wreg(rd), b, imm, **self._mem_meta(b))

    def storeb(self, rval: RegLike, base: RegLike, imm: int = 0) -> None:
        b = _reg(base)
        self._emit(Op.STOREB, _reg(rval), b, imm, **self._mem_meta(b))

    # control
    def beq(self, rs: RegLike, rt: RegLike, target: str) -> None:
        self._emit(Op.BEQ, _reg(rs), _reg(rt), target)

    def bne(self, rs: RegLike, rt: RegLike, target: str) -> None:
        self._emit(Op.BNE, _reg(rs), _reg(rt), target)

    def blt(self, rs: RegLike, rt: RegLike, target: str) -> None:
        self._emit(Op.BLT, _reg(rs), _reg(rt), target)

    def bge(self, rs: RegLike, rt: RegLike, target: str) -> None:
        self._emit(Op.BGE, _reg(rs), _reg(rt), target)

    def jmp(self, target: str) -> None:
        self._emit(Op.JMP, 0, 0, target)

    def jr(self, rs: RegLike) -> None:
        self._emit(Op.JR, _reg(rs))

    def call(self, target: str) -> None:
        self._emit(Op.CALL, 0, 0, target, call_target=target)

    def callr(self, rs: RegLike) -> None:
        self._emit(Op.CALLR, _reg(rs))

    def ret(self) -> None:
        """Pseudo: return through the link register."""
        self._emit(Op.JR, int(Reg.ra))

    def switch(self, rs: RegLike, table_id: int) -> None:
        self._emit(Op.SWITCH, _reg(rs), 0, table_id)

    # system / work
    def syscall(self, num: int) -> None:
        self._emit(Op.SYSCALL, 0, 0, num)

    def cwork(self, cycles: int, nloads: int = 0, nstores: int = 0) -> None:
        """A computation phase: consume ``cycles``, declaring its internal
        load/store mix for COW-dilation accounting (see isa.py)."""
        if cycles < 0 or nloads < 0 or nstores < 0:
            raise AssemblyError("cwork operands must be non-negative")
        self._emit(Op.CWORK, cycles, nloads, nstores)

    # stack pseudo-ops
    def push(self, rs: RegLike) -> None:
        self.addi(Reg.sp, Reg.sp, -8)
        self.store(rs, Reg.sp, 0)

    def pop(self, rd: RegLike) -> None:
        self.load(rd, Reg.sp, 0)
        self.addi(Reg.sp, Reg.sp, 8)

    # -- finish ----------------------------------------------------------------------------

    def finish(self) -> Binary:
        """Resolve fixups and produce the binary."""
        if self._open_function is not None:
            raise AssemblyError(f"function {self._open_function!r} never closed")
        if self._entry_label is None:
            raise AssemblyError(f"{self.name}: no entry point declared")

        for i, insn in enumerate(self._text):
            fixup = insn.get_meta("fixup")
            if fixup is not None:
                target = self._labels.get(fixup)
                if target is None:
                    raise AssemblyError(
                        f"{self.name}: instruction {i} references unknown label {fixup!r}"
                    )
                insn.c = target
                del insn.meta["fixup"]  # type: ignore[union-attr]

        jump_tables = []
        for table_id, labels in enumerate(self._jump_table_labels):
            targets = []
            for label in labels:
                target = self._labels.get(label)
                if target is None:
                    raise AssemblyError(
                        f"{self.name}: jump table {table_id} references {label!r}"
                    )
                targets.append(target)
            jump_tables.append(
                JumpTable(table_id, targets, self._jump_table_recognized[table_id])
            )

        entry = self._labels.get(self._entry_label)
        if entry is None:
            raise AssemblyError(f"{self.name}: unknown entry label {self._entry_label!r}")

        return Binary(
            name=self.name,
            text=self._text,
            data=bytes(self._data),
            data_symbols=dict(self._data_symbols),
            functions=self._functions,
            jump_tables=jump_tables,
            entry_point=entry,
            output_routines=self._output_routines,
            optimized_stdlib=self._optimized_stdlib,
            secret_symbols=self._secret_symbols,
        )
