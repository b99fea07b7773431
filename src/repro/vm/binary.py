"""SpecVM binary format.

Carries exactly the structural information the paper's SpecHint tool needs
from an Alpha executable: the text section, initialized data with a symbol
table, function boundaries, jump tables (with a "recognized format" bit —
SpecHint only understands a few compiler-dependent formats), and relocation
availability.  Size accounting models Alpha encodings (4-byte instructions)
so the Table 3 statistics are comparable.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import AssemblyError
from repro.vm.isa import Insn, Op
from repro.vm.memory import DATA_BASE

#: Alpha instructions are 4 bytes.
INSN_BYTES = 4


class SecretRegion:
    """A data-segment region the program declares secret.

    Mirrors what a real tool would recover from an annotated section
    (``.secret``) or an mlock/MADV_DONTDUMP-style marking: a named
    ``[base, end)`` byte range whose contents must never influence the
    (ino, offset, length) operands of a disclosed I/O hint — the hint
    queue and the resulting prefetch pattern are observable.
    """

    __slots__ = ("name", "base", "end")

    def __init__(self, name: str, base: int, end: int) -> None:
        self.name = name
        self.base = base
        #: One past the last secret byte.
        self.end = end

    @property
    def size(self) -> int:
        return self.end - self.base


class Function:
    """A function's extent in the text section."""

    __slots__ = ("name", "entry", "end")

    def __init__(self, name: str, entry: int, end: int) -> None:
        self.name = name
        #: First instruction index.
        self.entry = entry
        #: One past the last instruction index.
        self.end = end

    def contains(self, index: int) -> bool:
        return self.entry <= index < self.end


class JumpTable:
    """A jump table (switch statement dispatch target list).

    ``recognized`` models whether SpecHint's tool understands the compiler's
    table format; unrecognized tables force the speculating thread through
    the dynamic handling routine, which can only map *function* addresses
    and therefore usually halts speculation (Section 3.2.1).
    """

    __slots__ = ("table_id", "targets", "recognized")

    def __init__(self, table_id: int, targets: Sequence[int], recognized: bool = True) -> None:
        self.table_id = table_id
        self.targets = tuple(targets)
        self.recognized = recognized


class Binary:
    """An executable SpecVM program.

    Nothing writes a binary once it is built: its text and jump-table
    targets are tuples, its data image is ``bytes`` (a process copies it
    into its own address space), and no code assigns an instruction's
    fields after the assembler or the SpecHint tool made it.  So one
    binary serves every process that runs the program, and so does the
    generated code hanging off it (:attr:`translations`).
    """

    def __init__(
        self,
        name: str,
        text: Sequence[Insn],
        data: bytes,
        data_symbols: Dict[str, int],
        functions: List[Function],
        jump_tables: List[JumpTable],
        entry_point: int,
        output_routines: Optional[Set[str]] = None,
        optimized_stdlib: Optional[Set[str]] = None,
        has_relocations: bool = True,
        single_threaded: bool = True,
        statically_linked: bool = True,
        secret_symbols: Optional[Set[str]] = None,
    ) -> None:
        self.name = name
        self.text: Tuple[Insn, ...] = tuple(text)
        self.data = bytes(data)
        #: Data symbol name -> absolute address in the address space.
        self.data_symbols = data_symbols
        self.functions = functions
        self.jump_tables = jump_tables
        self.entry_point = entry_point
        #: Standard-library output routines SpecHint strips from shadow code
        #: (printf/fprintf/flsbuf in the paper).
        self.output_routines = output_routines or set()
        #: Routines with hand-optimized shadow versions (strncpy/memcpy in
        #: the paper) whose COW checks are loop-optimized.
        self.optimized_stdlib = optimized_stdlib or set()
        self.has_relocations = has_relocations
        self.single_threaded = single_threaded
        self.statically_linked = statically_linked
        #: Data symbols whose contents are declared secret (taint sources).
        self.secret_symbols = secret_symbols or set()

        self._function_by_name = {f.name: f for f in functions}
        self._function_by_entry = {f.entry: f for f in functions}
        self._validate()
        #: The program's generated code, one ``repro.vm.blocks.Translation``
        #: per way a process binds it (``blocks.BlockTable`` finds or makes
        #: the one it needs).
        self.translations: Dict[Tuple[object, ...], object] = {}

    # -- queries -----------------------------------------------------------------

    def function(self, name: str) -> Function:
        found = self._function_by_name.get(name)
        if found is None:
            raise AssemblyError(f"unknown function {name!r} in {self.name}")
        return found

    def function_at_entry(self, index: int) -> Optional[Function]:
        """The function whose entry point is exactly ``index``, if any."""
        return self._function_by_entry.get(index)

    def function_containing(self, index: int) -> Optional[Function]:
        for f in self.functions:
            if f.contains(index):
                return f
        return None

    def jump_table(self, table_id: int) -> JumpTable:
        if table_id < 0 or table_id >= len(self.jump_tables):
            raise AssemblyError(f"unknown jump table {table_id} in {self.name}")
        return self.jump_tables[table_id]

    def function_entries(self) -> Dict[int, Function]:
        """Entry index -> function, for every function in the binary.

        This is exactly the set of targets the SpecHint handling routine
        can map at runtime, which makes it the static analysis's universe
        for unresolved computed transfers.
        """
        return dict(self._function_by_entry)

    def is_function_entry(self, index: int) -> bool:
        return index in self._function_by_entry

    def secret_regions(self) -> Tuple[SecretRegion, ...]:
        """Byte ranges of every secret-marked data symbol, address order.

        A symbol's extent runs to the next symbol's address (or to the end
        of the data section) — alignment padding is charged to the
        preceding symbol, which only ever widens a secret region.
        """
        if not self.secret_symbols:
            return ()
        bounds = sorted(self.data_symbols.values())
        bounds.append(DATA_BASE + len(self.data))
        regions = []
        for name in sorted(self.secret_symbols):
            base = self.data_symbols.get(name)
            if base is None:
                raise AssemblyError(
                    f"{self.name}: secret symbol {name!r} is not a data symbol"
                )
            nxt = min((b for b in bounds if b > base),
                      default=DATA_BASE + len(self.data))
            regions.append(SecretRegion(name, base, max(nxt, base + 1)))
        regions.sort(key=lambda r: r.base)
        return tuple(regions)

    # -- size accounting (Table 3) --------------------------------------------------

    @property
    def text_bytes(self) -> int:
        return len(self.text) * INSN_BYTES

    @property
    def data_bytes(self) -> int:
        return len(self.data)

    @property
    def size_bytes(self) -> int:
        """Executable size: text + data + a fixed header/loader overhead."""
        return self.text_bytes + self.data_bytes + 4096

    # -- validation -------------------------------------------------------------------

    def _validate(self) -> None:
        n = len(self.text)
        if not 0 <= self.entry_point < n:
            raise AssemblyError(
                f"{self.name}: entry point {self.entry_point} outside text of {n}"
            )
        for i, insn in enumerate(self.text):
            if insn.op in (Op.BEQ, Op.BNE, Op.BLT, Op.BGE, Op.JMP, Op.CALL):
                if not 0 <= insn.c < n:
                    raise AssemblyError(
                        f"{self.name}: instruction {i} targets {insn.c} outside text"
                    )
            elif insn.op in (Op.SWITCH, Op.SPEC_SWITCH):
                table = self.jump_table(insn.c)
                for t in table.targets:
                    if not 0 <= t < n:
                        raise AssemblyError(
                            f"{self.name}: jump table {insn.c} targets {t} outside text"
                        )
