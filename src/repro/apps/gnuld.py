"""Gnuld (v2.5.2 in the paper): the object code linker.

"Gnuld first reads each object file's file header, symbol header, symbol
tables and string tables.  The location of each file's symbol header is
stored in its file header, and the locations of its symbol and string
tables are stored in its symbol header.  Gnuld then makes up to nine small,
non-sequential reads in each object file to gather debugging information.
The locations of these reads are determined from the symbol tables.
Finally, Gnuld loops through the different non-debugging sections that
appear in an object file, reading the corresponding section from each of
the object files."

The pass-1 reads form per-file dependence chains (each read's location
comes from the previous read's data), which is exactly what limits the
speculating Gnuld: restarted speculation reads a stale buffer, computes a
garbage offset, and issues erroneous hints — the paper's 2,336 inaccurate
hints.  The pass-2 (debug) and pass-3 (section) reads take their locations
from tables pass 1 stored in memory, so speculation can run ahead there.

The *manual* variant mirrors Patterson's restructured Gnuld: the passes are
reorganized so that batches of hints can be disclosed before each group of
reads.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.datasets import (
    OBJ_HEADER_BYTES,
    OBJ_SYMHDR_BYTES,
    generate_gnuld_objects,
    gnuld_path,
)
from repro.fs.filesystem import FileSystem
from repro.vm.assembler import Assembler
from repro.vm.binary import Binary
from repro.vm.isa import (
    SEEK_SET,
    SYS_EXIT,
    SYS_HINT_FD_SEG,
    SYS_HINT_SEG,
    SYS_LSEEK,
    SYS_OPEN,
    SYS_READ,
    SYS_WRITE,
    Reg,
)
from repro.vm.stdlib import emit_stdlib

#: Paper Gnuld binary size (derived from Table 3: 2408 KB at +349%).
PAPER_ORIGINAL_SIZE = 536 * 1024

#: What the static-analysis pass (``repro analyze``) and the SpecHint tool
#: are expected to find in this binary.  Its pass dispatch loads
#: ``process_fn`` from memory, so the CALLR target is unprovable and
#: speculation may enter any function: one unresolved-transfer warning.
ANALYSIS_EXPECTATIONS = {
    "wrapped_stores": 15,
    "resolved_transfers": 0,
    "lint_errors": 0,
    "lint_warnings": 1,       # the unresolved CALLR in the pass loop
}

MAX_SECTIONS = 9
MAX_DEBUG = 9

SYMTAB_BUF_BYTES = 4096
STRTAB_BUF_BYTES = 2048
DEBUG_BUF_BYTES = 512
SECTION_BUF_BYTES = 16384


@dataclass(frozen=True)
class GnuldWorkload:
    """Scaled-down version of the paper's 562-binary kernel link."""

    nfiles: int = 72
    seed: int = 7
    #: Pass-1 per-file processing (symbol resolution bookkeeping).
    pass1_cycles: int = 20_000
    pass1_loads: int = 2_400
    pass1_stores: int = 500
    #: Pass-2 per-debug-read processing.
    debug_cycles: int = 6_000
    debug_loads: int = 720
    debug_stores: int = 150
    #: Pass-3 per-section processing (relocation + output production).
    section_cycles: int = 32_000
    section_loads: int = 3_840
    section_stores: int = 800

    def scaled(self, factor: float) -> "GnuldWorkload":
        return GnuldWorkload(
            nfiles=max(4, int(self.nfiles * factor)),
            seed=self.seed,
            pass1_cycles=self.pass1_cycles,
            pass1_loads=self.pass1_loads,
            pass1_stores=self.pass1_stores,
            debug_cycles=self.debug_cycles,
            debug_loads=self.debug_loads,
            debug_stores=self.debug_stores,
            section_cycles=self.section_cycles,
            section_loads=self.section_loads,
            section_stores=self.section_stores,
        )


def build_gnuld_files(fs: FileSystem, workload: GnuldWorkload) -> None:
    """Create the object files Gnuld links, and its empty output, in ``fs``."""
    generate_gnuld_objects(
        fs, workload.nfiles, workload.seed, max_sections=MAX_SECTIONS
    )
    fs.create("out/kernel", b"")


def build_gnuld_program(workload: GnuldWorkload, manual_hints: bool = False) -> Binary:
    """Assemble the Gnuld binary that links the objects of ``workload``."""
    return _GnuldBuilder(workload, manual_hints).build()


class _GnuldBuilder:
    """Assembles the (long) Gnuld program."""

    def __init__(self, workload: GnuldWorkload, manual_hints: bool) -> None:
        self.wl = workload
        self.manual = manual_hints
        self.asm = Assembler("gnuld-manual" if manual_hints else "gnuld")

    # -- data layout ---------------------------------------------------------

    def _emit_data(self) -> None:
        asm = self.asm
        path_addrs = [
            asm.data_asciiz(f"objpath{i}", gnuld_path(i))
            for i in range(self.wl.nfiles)
        ]
        asm.data_words("paths", path_addrs)
        asm.data_asciiz("outpath", "out/kernel")
        n = self.wl.nfiles
        asm.data_words("fds", [0] * n)
        asm.data_words("nsect_arr", [0] * n)
        asm.data_words("ndbg_arr", [0] * n)
        asm.data_words("symhdr_off_arr", [0] * n)
        asm.data_words("symtab_off_arr", [0] * n)
        asm.data_words("symtab_len_arr", [0] * n)
        asm.data_words("strtab_off_arr", [0] * n)
        asm.data_words("strtab_len_arr", [0] * n)
        asm.data_words("sect_off_arr", [0] * (n * MAX_SECTIONS))
        asm.data_words("sect_len_arr", [0] * (n * MAX_SECTIONS))
        asm.data_words("dbg_off_arr", [0] * (n * MAX_DEBUG))
        asm.data_words("dbg_len_arr", [0] * (n * MAX_DEBUG))
        asm.data_words("reloc_off_arr", [0] * (n * MAX_SECTIONS))
        asm.data_words("reloc_len_arr", [0] * (n * MAX_SECTIONS))
        asm.data_space("hdrbuf", 32)
        asm.data_space("symhdrbuf", 64)
        asm.data_space("symtabbuf", SYMTAB_BUF_BYTES)
        asm.data_space("strtabbuf", STRTAB_BUF_BYTES)
        asm.data_space("dbgbuf", DEBUG_BUF_BYTES)
        asm.data_space("sectbuf", SECTION_BUF_BYTES)
        asm.data_space("relocbuf", 2048)

    # -- common emission helpers -----------------------------------------------

    def _load_elem(self, array: str, index_reg: Reg, dest: Reg) -> None:
        """dest = array[index_reg] (8-byte elements)."""
        asm = self.asm
        asm.la(Reg.t8, array)
        asm.shli(Reg.t9, index_reg, 3)
        asm.add(Reg.t8, Reg.t8, Reg.t9)
        asm.load(dest, Reg.t8, 0)

    def _store_elem(self, array: str, index_reg: Reg, src: Reg) -> None:
        """array[index_reg] = src."""
        asm = self.asm
        asm.la(Reg.t8, array)
        asm.shli(Reg.t9, index_reg, 3)
        asm.add(Reg.t8, Reg.t8, Reg.t9)
        asm.store(src, Reg.t8, 0)

    def _index_2d(self, file_reg: Reg, inner_reg: Reg, width: int, dest: Reg) -> None:
        """dest = file_reg * width + inner_reg (flat 2-D index)."""
        asm = self.asm
        asm.muli(dest, file_reg, width)
        asm.add(dest, dest, inner_reg)

    def _lseek(self, fd: Reg, offset: Reg) -> None:
        asm = self.asm
        asm.mov(Reg.a0, fd)
        asm.mov(Reg.a1, offset)
        asm.li(Reg.a2, SEEK_SET)
        asm.syscall(SYS_LSEEK)

    def _read(self, fd: Reg, buf_symbol: str, length_reg: Reg) -> None:
        asm = self.asm
        asm.mov(Reg.a0, fd)
        asm.la(Reg.a1, buf_symbol)
        asm.mov(Reg.a2, length_reg)
        asm.syscall(SYS_READ)

    def _read_imm(self, fd: Reg, buf_symbol: str, length: int) -> None:
        asm = self.asm
        asm.mov(Reg.a0, fd)
        asm.la(Reg.a1, buf_symbol)
        asm.li(Reg.a2, length)
        asm.syscall(SYS_READ)

    # -- program -------------------------------------------------------------------

    def build(self) -> Binary:
        asm = self.asm
        emit_stdlib(asm)
        self._emit_data()
        asm.entry("main")

        with asm.function("process_section"):
            # Section processing behind a function pointer (exercises the
            # dynamic control-transfer handling routine during speculation).
            asm.cwork(self.wl.section_cycles, self.wl.section_loads,
                      self.wl.section_stores)
            asm.load(Reg.t0, Reg.a0, 0)  # touch the section buffer
            asm.ret()

        asm.data_word("process_fn", 0)

        with asm.function("main"):
            self._emit_prologue()
            if self.manual:
                self._emit_manual_header_hints()
                self._emit_pass1_manual()
            else:
                self._emit_pass1()
            self._emit_pass2()
            if self.manual:
                self._emit_pass3_manual()
            else:
                self._emit_pass3()
            self._emit_epilogue()

        binary = asm.finish()
        binary.declared_size_bytes = PAPER_ORIGINAL_SIZE
        binary.declared_text_fraction = 0.75
        return binary

    # -- program sections -------------------------------------------------------------

    def _emit_prologue(self) -> None:
        asm = self.asm
        # Stash the section-processing function's address (a function
        # pointer flowing through memory, as relocation info would show).
        asm.la(Reg.t0, "process_section")
        asm.la(Reg.t1, "process_fn")
        asm.store(Reg.t0, Reg.t1, 0)
        # Open the output file.
        asm.la(Reg.a0, "outpath")
        asm.syscall(SYS_OPEN)
        asm.mov(Reg.s6, Reg.v0)  # s6 = output fd for the whole run

    def _emit_manual_header_hints(self) -> None:
        """Manual variant: disclose every file header up front."""
        asm = self.asm
        asm.li(Reg.s0, 0)
        asm.label("mh_loop")
        asm.li(Reg.at, self.wl.nfiles)
        asm.bge(Reg.s0, Reg.at, "mh_done")
        self._load_elem("paths", Reg.s0, Reg.a0)
        asm.li(Reg.a1, 0)
        asm.li(Reg.a2, OBJ_HEADER_BYTES)
        asm.syscall(SYS_HINT_SEG)
        asm.addi(Reg.s0, Reg.s0, 1)
        asm.jmp("mh_loop")
        asm.label("mh_done")

    def _emit_pass1(self) -> None:
        """Per file: header -> symbol header -> symbol table -> string
        table, parsing each into memory tables."""
        asm = self.asm
        wl = self.wl

        asm.li(Reg.s0, 0)  # file index
        asm.label("p1_loop")
        asm.li(Reg.at, wl.nfiles)
        asm.bge(Reg.s0, Reg.at, "p1_done")

        # open
        self._load_elem("paths", Reg.s0, Reg.a0)
        asm.syscall(SYS_OPEN)
        asm.mov(Reg.s1, Reg.v0)
        self._store_elem("fds", Reg.s0, Reg.s1)

        # read the file header at offset 0
        self._read_imm(Reg.s1, "hdrbuf", OBJ_HEADER_BYTES)
        asm.la(Reg.t0, "hdrbuf")
        asm.load(Reg.s2, Reg.t0, 8)  # symhdr_off (data dependence!)
        self._store_elem("symhdr_off_arr", Reg.s0, Reg.s2)

        # read the symbol header at symhdr_off
        self._lseek(Reg.s1, Reg.s2)
        self._read_imm(Reg.s1, "symhdrbuf", OBJ_SYMHDR_BYTES)
        asm.la(Reg.t0, "symhdrbuf")
        asm.load(Reg.s2, Reg.t0, 0)   # symtab_off
        asm.load(Reg.s3, Reg.t0, 8)   # symtab_bytes
        asm.load(Reg.s4, Reg.t0, 16)  # strtab_off
        asm.load(Reg.s5, Reg.t0, 24)  # strtab_bytes
        asm.load(Reg.t1, Reg.t0, 32)  # nsections
        self._store_elem("nsect_arr", Reg.s0, Reg.t1)
        asm.load(Reg.t1, Reg.t0, 40)  # ndebug
        self._store_elem("ndbg_arr", Reg.s0, Reg.t1)

        # read the symbol table (location from the symbol header)
        self._lseek(Reg.s1, Reg.s2)
        self._read(Reg.s1, "symtabbuf", Reg.s3)

        # parse section and debug records from symtabbuf
        self._emit_parse_symtab("p1")

        # read the string table (location from the symbol header)
        self._lseek(Reg.s1, Reg.s4)
        self._read(Reg.s1, "strtabbuf", Reg.s5)

        # per-file symbol processing
        asm.cwork(wl.pass1_cycles, wl.pass1_loads, wl.pass1_stores)

        asm.addi(Reg.s0, Reg.s0, 1)
        asm.jmp("p1_loop")
        asm.label("p1_done")

    def _emit_parse_symtab(self, prefix: str) -> None:
        """Parse symtabbuf for file s0 into the 2-D section/debug arrays."""
        asm = self.asm
        # section records
        asm.li(Reg.s7, 0)  # s
        asm.label(f"{prefix}_sections")
        self._load_elem("nsect_arr", Reg.s0, Reg.at)
        asm.bge(Reg.s7, Reg.at, f"{prefix}_sections_done")
        asm.la(Reg.t0, "symtabbuf")
        asm.shli(Reg.t1, Reg.s7, 4)  # s * 16
        asm.add(Reg.t0, Reg.t0, Reg.t1)
        asm.load(Reg.t2, Reg.t0, 0)  # section offset
        asm.load(Reg.t3, Reg.t0, 8)  # section length
        self._index_2d(Reg.s0, Reg.s7, MAX_SECTIONS, Reg.t4)
        self._store_elem("sect_off_arr", Reg.t4, Reg.t2)
        self._index_2d(Reg.s0, Reg.s7, MAX_SECTIONS, Reg.t4)
        self._store_elem("sect_len_arr", Reg.t4, Reg.t3)
        asm.addi(Reg.s7, Reg.s7, 1)
        asm.jmp(f"{prefix}_sections")
        asm.label(f"{prefix}_sections_done")

        # debug records
        asm.li(Reg.s7, 0)  # d
        asm.label(f"{prefix}_debug")
        self._load_elem("ndbg_arr", Reg.s0, Reg.at)
        asm.bge(Reg.s7, Reg.at, f"{prefix}_debug_done")
        self._load_elem("nsect_arr", Reg.s0, Reg.t5)
        asm.add(Reg.t5, Reg.t5, Reg.s7)  # nsect + d
        asm.la(Reg.t0, "symtabbuf")
        asm.shli(Reg.t1, Reg.t5, 4)
        asm.add(Reg.t0, Reg.t0, Reg.t1)
        asm.load(Reg.t2, Reg.t0, 0)
        asm.load(Reg.t3, Reg.t0, 8)
        self._index_2d(Reg.s0, Reg.s7, MAX_DEBUG, Reg.t4)
        self._store_elem("dbg_off_arr", Reg.t4, Reg.t2)
        self._index_2d(Reg.s0, Reg.s7, MAX_DEBUG, Reg.t4)
        self._store_elem("dbg_len_arr", Reg.t4, Reg.t3)
        asm.addi(Reg.s7, Reg.s7, 1)
        asm.jmp(f"{prefix}_debug")
        asm.label(f"{prefix}_debug_done")

    def _emit_pass1_manual(self) -> None:
        """The restructured pass 1 of the manually hinted Gnuld.

        Patterson's Gnuld involved "significantly restructuring the code so
        that hints could be issued earlier": the dependence chain is broken
        into sub-passes over *all* files, and after each sub-pass the next
        round of reads (whose locations are now known) is disclosed as a
        batch of hints.
        """
        asm = self.asm
        wl = self.wl

        # p1a: open every file and read its header (headers were hinted up
        # front by _emit_manual_header_hints).
        asm.li(Reg.s0, 0)
        asm.label("m1a_loop")
        asm.li(Reg.at, wl.nfiles)
        asm.bge(Reg.s0, Reg.at, "m1a_done")
        self._load_elem("paths", Reg.s0, Reg.a0)
        asm.syscall(SYS_OPEN)
        asm.mov(Reg.s1, Reg.v0)
        self._store_elem("fds", Reg.s0, Reg.s1)
        self._read_imm(Reg.s1, "hdrbuf", OBJ_HEADER_BYTES)
        asm.la(Reg.t0, "hdrbuf")
        asm.load(Reg.s2, Reg.t0, 8)
        self._store_elem("symhdr_off_arr", Reg.s0, Reg.s2)
        asm.addi(Reg.s0, Reg.s0, 1)
        asm.jmp("m1a_loop")
        asm.label("m1a_done")

        # hint every symbol header (locations now in memory)
        asm.li(Reg.s0, 0)
        asm.label("m1a_hints")
        asm.li(Reg.at, wl.nfiles)
        asm.bge(Reg.s0, Reg.at, "m1a_hints_done")
        self._load_elem("fds", Reg.s0, Reg.a0)
        self._load_elem("symhdr_off_arr", Reg.s0, Reg.a1)
        asm.li(Reg.a2, OBJ_SYMHDR_BYTES)
        asm.syscall(SYS_HINT_FD_SEG)
        asm.addi(Reg.s0, Reg.s0, 1)
        asm.jmp("m1a_hints")
        asm.label("m1a_hints_done")

        # p1b: read every symbol header; record table locations.
        asm.li(Reg.s0, 0)
        asm.label("m1b_loop")
        asm.li(Reg.at, wl.nfiles)
        asm.bge(Reg.s0, Reg.at, "m1b_done")
        self._load_elem("fds", Reg.s0, Reg.s1)
        self._load_elem("symhdr_off_arr", Reg.s0, Reg.s2)
        self._lseek(Reg.s1, Reg.s2)
        self._read_imm(Reg.s1, "symhdrbuf", OBJ_SYMHDR_BYTES)
        asm.la(Reg.t0, "symhdrbuf")
        asm.load(Reg.t1, Reg.t0, 0)
        self._store_elem("symtab_off_arr", Reg.s0, Reg.t1)
        asm.load(Reg.t1, Reg.t0, 8)
        self._store_elem("symtab_len_arr", Reg.s0, Reg.t1)
        asm.load(Reg.t1, Reg.t0, 16)
        self._store_elem("strtab_off_arr", Reg.s0, Reg.t1)
        asm.load(Reg.t1, Reg.t0, 24)
        self._store_elem("strtab_len_arr", Reg.s0, Reg.t1)
        asm.load(Reg.t1, Reg.t0, 32)
        self._store_elem("nsect_arr", Reg.s0, Reg.t1)
        asm.load(Reg.t1, Reg.t0, 40)
        self._store_elem("ndbg_arr", Reg.s0, Reg.t1)
        asm.addi(Reg.s0, Reg.s0, 1)
        asm.jmp("m1b_loop")
        asm.label("m1b_done")

        # hint every symbol table and string table
        asm.li(Reg.s0, 0)
        asm.label("m1b_hints")
        asm.li(Reg.at, wl.nfiles)
        asm.bge(Reg.s0, Reg.at, "m1b_hints_done")
        self._load_elem("fds", Reg.s0, Reg.a0)
        self._load_elem("symtab_off_arr", Reg.s0, Reg.a1)
        self._load_elem("symtab_len_arr", Reg.s0, Reg.a2)
        asm.syscall(SYS_HINT_FD_SEG)
        self._load_elem("fds", Reg.s0, Reg.a0)
        self._load_elem("strtab_off_arr", Reg.s0, Reg.a1)
        self._load_elem("strtab_len_arr", Reg.s0, Reg.a2)
        asm.syscall(SYS_HINT_FD_SEG)
        asm.addi(Reg.s0, Reg.s0, 1)
        asm.jmp("m1b_hints")
        asm.label("m1b_hints_done")

        # p1c: read + parse every symbol table, then the string table.
        asm.li(Reg.s0, 0)
        asm.label("m1c_loop")
        asm.li(Reg.at, wl.nfiles)
        asm.bge(Reg.s0, Reg.at, "m1c_done")
        self._load_elem("fds", Reg.s0, Reg.s1)
        self._load_elem("symtab_off_arr", Reg.s0, Reg.s2)
        self._load_elem("symtab_len_arr", Reg.s0, Reg.s3)
        self._lseek(Reg.s1, Reg.s2)
        self._read(Reg.s1, "symtabbuf", Reg.s3)
        self._emit_parse_symtab("m1c")
        self._load_elem("strtab_off_arr", Reg.s0, Reg.s4)
        self._load_elem("strtab_len_arr", Reg.s0, Reg.s5)
        self._lseek(Reg.s1, Reg.s4)
        self._read(Reg.s1, "strtabbuf", Reg.s5)
        asm.cwork(wl.pass1_cycles, wl.pass1_loads, wl.pass1_stores)
        asm.addi(Reg.s0, Reg.s0, 1)
        asm.jmp("m1c_loop")
        asm.label("m1c_done")

    def _emit_pass2(self) -> None:
        """Per file: up to nine small non-sequential debug reads whose
        locations come from the in-memory tables built in pass 1."""
        asm = self.asm
        wl = self.wl

        if self.manual:
            # The restructured Gnuld hints the whole debug pass up front.
            self._emit_2d_hint_loop("mh2", "ndbg_arr", "dbg_off_arr",
                                    "dbg_len_arr", MAX_DEBUG)

        asm.li(Reg.s0, 0)
        asm.label("p2_loop")
        asm.li(Reg.at, wl.nfiles)
        asm.bge(Reg.s0, Reg.at, "p2_done")
        self._load_elem("fds", Reg.s0, Reg.s1)

        asm.li(Reg.s7, 0)  # debug record index
        asm.label("p2_inner")
        self._load_elem("ndbg_arr", Reg.s0, Reg.at)
        asm.bge(Reg.s7, Reg.at, "p2_inner_done")
        self._index_2d(Reg.s0, Reg.s7, MAX_DEBUG, Reg.t4)
        self._load_elem("dbg_off_arr", Reg.t4, Reg.s2)
        self._index_2d(Reg.s0, Reg.s7, MAX_DEBUG, Reg.t4)
        self._load_elem("dbg_len_arr", Reg.t4, Reg.s3)
        self._lseek(Reg.s1, Reg.s2)
        self._read(Reg.s1, "dbgbuf", Reg.s3)
        asm.cwork(wl.debug_cycles, wl.debug_loads, wl.debug_stores)
        asm.addi(Reg.s7, Reg.s7, 1)
        asm.jmp("p2_inner")
        asm.label("p2_inner_done")

        asm.addi(Reg.s0, Reg.s0, 1)
        asm.jmp("p2_loop")
        asm.label("p2_done")

    def _emit_pass3(self) -> None:
        """Section-major pass: for each section index, read that section
        from every file, process it (through a function pointer), and
        write output for every other section."""
        asm = self.asm
        wl = self.wl

        asm.li(Reg.s7, 0)  # section index (outer loop: section-major!)
        asm.label("p3_loop")
        asm.li(Reg.at, MAX_SECTIONS)
        asm.bge(Reg.s7, Reg.at, "p3_done")

        asm.li(Reg.s0, 0)  # file index
        asm.label("p3_files")
        asm.li(Reg.at, wl.nfiles)
        asm.bge(Reg.s0, Reg.at, "p3_files_done")
        self._load_elem("nsect_arr", Reg.s0, Reg.at)
        asm.bge(Reg.s7, Reg.at, "p3_skip")

        self._load_elem("fds", Reg.s0, Reg.s1)
        self._index_2d(Reg.s0, Reg.s7, MAX_SECTIONS, Reg.t4)
        self._load_elem("sect_off_arr", Reg.t4, Reg.s2)
        self._index_2d(Reg.s0, Reg.s7, MAX_SECTIONS, Reg.t4)
        self._load_elem("sect_len_arr", Reg.t4, Reg.s3)
        self._lseek(Reg.s1, Reg.s2)
        self._read(Reg.s1, "sectbuf", Reg.s3)

        # The section's first two words locate its relocation blob — a
        # data dependence that persists through the whole section pass,
        # which is what keeps the speculating Gnuld from running ahead
        # here (Section 4.8: "data dependencies ... prevent speculative
        # execution from using the additional cycles").
        asm.la(Reg.t0, "sectbuf")
        asm.load(Reg.s4, Reg.t0, 0)  # reloc offset
        asm.load(Reg.s5, Reg.t0, 8)  # reloc length

        # process the section through the function pointer
        asm.la(Reg.t0, "process_fn")
        asm.load(Reg.t1, Reg.t0, 0)
        asm.la(Reg.a0, "sectbuf")
        asm.push(Reg.ra)
        asm.push(Reg.s3)
        asm.callr(Reg.t1)
        asm.pop(Reg.s3)
        asm.pop(Reg.ra)

        # apply the relocations
        self._lseek(Reg.s1, Reg.s4)
        self._read(Reg.s1, "relocbuf", Reg.s5)
        asm.cwork(self.wl.debug_cycles, self.wl.debug_loads,
                  self.wl.debug_stores)

        # write output for every other section index
        asm.andi(Reg.t0, Reg.s7, 1)
        asm.bne(Reg.t0, Reg.zero, "p3_skip")
        asm.mov(Reg.a0, Reg.s6)
        asm.la(Reg.a1, "sectbuf")
        asm.mov(Reg.a2, Reg.s3)
        asm.syscall(SYS_WRITE)

        asm.label("p3_skip")
        asm.addi(Reg.s0, Reg.s0, 1)
        asm.jmp("p3_files")
        asm.label("p3_files_done")

        asm.addi(Reg.s7, Reg.s7, 1)
        asm.jmp("p3_loop")
        asm.label("p3_done")

    def _emit_pass3_manual(self) -> None:
        """The restructured section pass of the manually hinted Gnuld.

        For each section index, (a) read and process that section from
        every file while recording the relocation pointers the data
        reveals, (b) disclose the whole batch of relocation reads, then
        (c) perform them.  This is the kind of reorganization the paper
        attributes to the manually modified Gnuld.
        """
        asm = self.asm
        wl = self.wl

        asm.li(Reg.s7, 0)  # section index
        asm.label("m3_loop")
        asm.li(Reg.at, MAX_SECTIONS)
        asm.bge(Reg.s7, Reg.at, "m3_done")

        # Disclose this section index's reads (in access order — TIP's
        # hint queues are ordered disclosures of future accesses).
        asm.li(Reg.s0, 0)
        asm.label("m3h_hints")
        asm.li(Reg.at, wl.nfiles)
        asm.bge(Reg.s0, Reg.at, "m3h_done")
        self._load_elem("nsect_arr", Reg.s0, Reg.at)
        asm.bge(Reg.s7, Reg.at, "m3h_skip")
        self._load_elem("fds", Reg.s0, Reg.a0)
        self._index_2d(Reg.s0, Reg.s7, MAX_SECTIONS, Reg.t4)
        self._load_elem("sect_off_arr", Reg.t4, Reg.a1)
        self._index_2d(Reg.s0, Reg.s7, MAX_SECTIONS, Reg.t4)
        self._load_elem("sect_len_arr", Reg.t4, Reg.a2)
        asm.syscall(SYS_HINT_FD_SEG)
        asm.label("m3h_skip")
        asm.addi(Reg.s0, Reg.s0, 1)
        asm.jmp("m3h_hints")
        asm.label("m3h_done")

        # (a) read + process every file's section s7
        asm.li(Reg.s0, 0)
        asm.label("m3a_files")
        asm.li(Reg.at, wl.nfiles)
        asm.bge(Reg.s0, Reg.at, "m3a_done")
        self._load_elem("nsect_arr", Reg.s0, Reg.at)
        asm.bge(Reg.s7, Reg.at, "m3a_skip")

        self._load_elem("fds", Reg.s0, Reg.s1)
        self._index_2d(Reg.s0, Reg.s7, MAX_SECTIONS, Reg.t4)
        self._load_elem("sect_off_arr", Reg.t4, Reg.s2)
        self._index_2d(Reg.s0, Reg.s7, MAX_SECTIONS, Reg.t4)
        self._load_elem("sect_len_arr", Reg.t4, Reg.s3)
        self._lseek(Reg.s1, Reg.s2)
        self._read(Reg.s1, "sectbuf", Reg.s3)

        # record the relocation pointer the section data reveals
        asm.la(Reg.t0, "sectbuf")
        asm.load(Reg.s4, Reg.t0, 0)
        asm.load(Reg.s5, Reg.t0, 8)
        self._index_2d(Reg.s0, Reg.s7, MAX_SECTIONS, Reg.t4)
        self._store_elem("reloc_off_arr", Reg.t4, Reg.s4)
        self._index_2d(Reg.s0, Reg.s7, MAX_SECTIONS, Reg.t4)
        self._store_elem("reloc_len_arr", Reg.t4, Reg.s5)

        # process the section through the function pointer
        asm.la(Reg.t0, "process_fn")
        asm.load(Reg.t1, Reg.t0, 0)
        asm.la(Reg.a0, "sectbuf")
        asm.push(Reg.ra)
        asm.push(Reg.s3)
        asm.callr(Reg.t1)
        asm.pop(Reg.s3)
        asm.pop(Reg.ra)

        # write output for every other section index
        asm.andi(Reg.t0, Reg.s7, 1)
        asm.bne(Reg.t0, Reg.zero, "m3a_skip")
        asm.mov(Reg.a0, Reg.s6)
        asm.la(Reg.a1, "sectbuf")
        asm.mov(Reg.a2, Reg.s3)
        asm.syscall(SYS_WRITE)

        asm.label("m3a_skip")
        asm.addi(Reg.s0, Reg.s0, 1)
        asm.jmp("m3a_files")
        asm.label("m3a_done")

        # (b) disclose the whole batch of relocation reads
        asm.li(Reg.s0, 0)
        asm.label("m3b_hints")
        asm.li(Reg.at, wl.nfiles)
        asm.bge(Reg.s0, Reg.at, "m3b_done")
        self._load_elem("nsect_arr", Reg.s0, Reg.at)
        asm.bge(Reg.s7, Reg.at, "m3b_skip")
        self._load_elem("fds", Reg.s0, Reg.a0)
        self._index_2d(Reg.s0, Reg.s7, MAX_SECTIONS, Reg.t4)
        self._load_elem("reloc_off_arr", Reg.t4, Reg.a1)
        self._index_2d(Reg.s0, Reg.s7, MAX_SECTIONS, Reg.t4)
        self._load_elem("reloc_len_arr", Reg.t4, Reg.a2)
        asm.syscall(SYS_HINT_FD_SEG)
        asm.label("m3b_skip")
        asm.addi(Reg.s0, Reg.s0, 1)
        asm.jmp("m3b_hints")
        asm.label("m3b_done")

        # (c) apply the relocations
        asm.li(Reg.s0, 0)
        asm.label("m3c_files")
        asm.li(Reg.at, wl.nfiles)
        asm.bge(Reg.s0, Reg.at, "m3c_done")
        self._load_elem("nsect_arr", Reg.s0, Reg.at)
        asm.bge(Reg.s7, Reg.at, "m3c_skip")
        self._load_elem("fds", Reg.s0, Reg.s1)
        self._index_2d(Reg.s0, Reg.s7, MAX_SECTIONS, Reg.t4)
        self._load_elem("reloc_off_arr", Reg.t4, Reg.s4)
        self._index_2d(Reg.s0, Reg.s7, MAX_SECTIONS, Reg.t4)
        self._load_elem("reloc_len_arr", Reg.t4, Reg.s5)
        self._lseek(Reg.s1, Reg.s4)
        self._read(Reg.s1, "relocbuf", Reg.s5)
        asm.cwork(wl.debug_cycles, wl.debug_loads, wl.debug_stores)
        asm.label("m3c_skip")
        asm.addi(Reg.s0, Reg.s0, 1)
        asm.jmp("m3c_files")
        asm.label("m3c_done")

        asm.addi(Reg.s7, Reg.s7, 1)
        asm.jmp("m3_loop")
        asm.label("m3_done")

    def _emit_2d_hint_loop(
        self,
        prefix: str,
        count_array: str,
        off_array: str,
        len_array: str,
        width: int,
    ) -> None:
        """File-major hint batch over a (count, offsets, lengths) table."""
        asm = self.asm
        asm.li(Reg.s0, 0)
        asm.label(f"{prefix}_loop")
        asm.li(Reg.at, self.wl.nfiles)
        asm.bge(Reg.s0, Reg.at, f"{prefix}_done")
        asm.li(Reg.s7, 0)
        asm.label(f"{prefix}_inner")
        self._load_elem(count_array, Reg.s0, Reg.at)
        asm.bge(Reg.s7, Reg.at, f"{prefix}_inner_done")
        self._load_elem("fds", Reg.s0, Reg.a0)
        self._index_2d(Reg.s0, Reg.s7, width, Reg.t4)
        self._load_elem(off_array, Reg.t4, Reg.a1)
        self._index_2d(Reg.s0, Reg.s7, width, Reg.t4)
        self._load_elem(len_array, Reg.t4, Reg.a2)
        asm.syscall(SYS_HINT_FD_SEG)
        asm.addi(Reg.s7, Reg.s7, 1)
        asm.jmp(f"{prefix}_inner")
        asm.label(f"{prefix}_inner_done")
        asm.addi(Reg.s0, Reg.s0, 1)
        asm.jmp(f"{prefix}_loop")
        asm.label(f"{prefix}_done")

    def _emit_epilogue(self) -> None:
        asm = self.asm
        asm.li(Reg.a0, self.wl.nfiles)
        asm.call("print_num")
        asm.li(Reg.a0, 0)
        asm.syscall(SYS_EXIT)
