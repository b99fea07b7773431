"""Agrep (v2.04 in the paper): full-text search over many files.

"The application loops through the files specified on its command line,
opening and reading each file sequentially.  Therefore, the arguments to
Agrep completely specify the stream of read accesses it will perform."

The search loop is byte-granular and load-dense, which is why Agrep has the
paper's largest dilation factor (~7.5): every load in the shadow code pays
a COW check.  We model the search inner loop with chunked ``CWORK``
declaring that load density.

The *manual* variant mirrors Patterson's hand-hinted Agrep: since argv
fully determines the accesses, it discloses every file up front with
``TIPIO_SEG`` hints before starting to search.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.datasets import agrep_path, generate_agrep_corpus
from repro.fs.filesystem import FileSystem
from repro.vm.assembler import Assembler
from repro.vm.binary import Binary
from repro.vm.isa import (
    SYS_CLOSE,
    SYS_EXIT,
    SYS_HINT_SEG,
    SYS_OPEN,
    SYS_READ,
    Reg,
)
from repro.vm.stdlib import emit_stdlib

#: Paper Agrep binary size (derived from Table 3: 1648 KB at +610%).
PAPER_ORIGINAL_SIZE = 232 * 1024

#: What the static-analysis pass (``repro analyze``) is expected to prove
#: about this binary.  The counts are structural (workload-scale
#: independent); tests and ``benchmarks/bench_analysis.py`` assert them.
ANALYSIS_EXPECTATIONS = {
    "wrapped_stores": 6,      # all in spec-unreachable stdlib routines
    "elidable_stores": 6,     # ...so every COW store wrapper is elidable
    "resolved_transfers": 0,
    "lint_errors": 0,
    "lint_warnings": 0,
}


@dataclass(frozen=True)
class AgrepWorkload:
    """Scaled-down version of the paper's 1349-file kernel-source grep."""

    nfiles: int = 160
    seed: int = 42
    #: Search cost per KB of scanned text (cycles of pure computation).
    search_cycles_per_kb: int = 1500
    #: Loads the search loop performs per KB (drives the dilation factor).
    search_loads_per_kb: int = 1950
    #: Stores per KB (match bookkeeping).
    search_stores_per_kb: int = 30

    def scaled(self, factor: float) -> "AgrepWorkload":
        """A workload with the file count scaled by ``factor``."""
        return AgrepWorkload(
            nfiles=max(4, int(self.nfiles * factor)),
            seed=self.seed,
            search_cycles_per_kb=self.search_cycles_per_kb,
            search_loads_per_kb=self.search_loads_per_kb,
            search_stores_per_kb=self.search_stores_per_kb,
        )


def build_agrep_files(fs: FileSystem, workload: AgrepWorkload) -> None:
    """Create the corpus Agrep searches in ``fs``."""
    generate_agrep_corpus(fs, workload.nfiles, workload.seed, min_kb=4)


def build_agrep_program(workload: AgrepWorkload, manual_hints: bool = False) -> Binary:
    """Assemble the Agrep binary that searches the corpus of ``workload``."""
    asm = Assembler("agrep-manual" if manual_hints else "agrep")
    emit_stdlib(asm)

    path_addrs = []
    for i in range(workload.nfiles):
        path_addrs.append(asm.data_asciiz(f"path{i}", agrep_path(i)))
    asm.data_words("paths", path_addrs)
    asm.data_space("buf", 8192)

    asm.entry("main")
    with asm.function("main"):
        if manual_hints:
            # Disclose the entire access stream up front: one TIPIO_SEG
            # hint per file (argv fully determines the reads).
            asm.li(Reg.s0, 0)
            asm.label("hint_loop")
            asm.li(Reg.at, workload.nfiles)
            asm.bge(Reg.s0, Reg.at, "hint_done")
            asm.la(Reg.t0, "paths")
            asm.shli(Reg.t1, Reg.s0, 3)
            asm.add(Reg.t0, Reg.t0, Reg.t1)
            asm.load(Reg.a0, Reg.t0, 0)
            asm.li(Reg.a1, 0)
            asm.li(Reg.a2, 1 << 30)  # whole file (TIP clamps to size)
            asm.syscall(SYS_HINT_SEG)
            asm.addi(Reg.s0, Reg.s0, 1)
            asm.jmp("hint_loop")
            asm.label("hint_done")

        asm.li(Reg.s0, 0)  # file index
        asm.li(Reg.s5, 0)  # total bytes scanned

        asm.label("files_loop")
        asm.li(Reg.at, workload.nfiles)
        asm.bge(Reg.s0, Reg.at, "done")
        asm.la(Reg.t0, "paths")
        asm.shli(Reg.t1, Reg.s0, 3)
        asm.add(Reg.t0, Reg.t0, Reg.t1)
        asm.load(Reg.a0, Reg.t0, 0)
        asm.syscall(SYS_OPEN)
        asm.mov(Reg.s1, Reg.v0)

        asm.label("read_loop")
        asm.mov(Reg.a0, Reg.s1)
        asm.la(Reg.a1, "buf")
        asm.li(Reg.a2, 8192)
        asm.syscall(SYS_READ)
        asm.beq(Reg.v0, Reg.zero, "file_done")
        asm.add(Reg.s5, Reg.s5, Reg.v0)

        # Pattern search over the buffer, one CWORK per KB chunk.  The
        # occasional real loads keep the buffer pages demonstrably touched.
        asm.mov(Reg.t3, Reg.v0)
        asm.la(Reg.t4, "buf")
        asm.label("search_loop")
        asm.slti(Reg.at, Reg.t3, 1)
        asm.bne(Reg.at, Reg.zero, "read_loop")
        asm.cwork(
            workload.search_cycles_per_kb,
            workload.search_loads_per_kb,
            workload.search_stores_per_kb,
        )
        asm.loadb(Reg.t5, Reg.t4, 0)
        asm.addi(Reg.t4, Reg.t4, 1024)
        asm.addi(Reg.t3, Reg.t3, -1024)
        asm.jmp("search_loop")

        asm.label("file_done")
        asm.mov(Reg.a0, Reg.s1)
        asm.syscall(SYS_CLOSE)
        asm.addi(Reg.s0, Reg.s0, 1)
        asm.jmp("files_loop")

        asm.label("done")
        asm.mov(Reg.a0, Reg.s5)
        asm.call("print_num")
        asm.li(Reg.a0, 0)
        asm.syscall(SYS_EXIT)

    binary = asm.finish()
    binary.declared_size_bytes = PAPER_ORIGINAL_SIZE
    binary.declared_text_fraction = 0.75
    return binary
