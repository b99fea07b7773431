"""XDataSlice (v2.2 in the paper): out-of-core 3-D slice visualization.

"XDataSlice ... allows users to view a false-color representation of
arbitrary slices through a three-dimensional data set ... the benchmark
retrieves 25 random slices through a data set ... that resides in
[disk]."  The dataset vastly exceeds the file cache, reads are short
strided scanlines with almost no reuse, and the slice coordinates fully
determine the read stream (no data dependence) — which is why the
speculating XDataSlice hints 97.5 % of its reads and the stock sequential
read-ahead wastes 58 % of everything it prefetches.

Slice axes are dispatched through a **jump table** (a switch statement in a
format the SpecHint tool recognizes and remaps into the shadow code).

The *manual* variant mirrors Patterson's modified XDataSlice: each slice's
scanline reads are disclosed as a batch of hints when the slice is
requested, just before reading it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.datasets import XDS_PATH, generate_xds_dataset, xds_slice_plan
from repro.fs.filesystem import FileSystem
from repro.vm.assembler import Assembler
from repro.vm.binary import Binary
from repro.vm.isa import (
    SEEK_SET,
    SYS_EXIT,
    SYS_HINT_FD_SEG,
    SYS_LSEEK,
    SYS_OPEN,
    SYS_READ,
    Reg,
)
from repro.vm.stdlib import emit_stdlib

#: Paper XDataSlice binary size (derived from Table 3: 10792 KB at +138%).
PAPER_ORIGINAL_SIZE = 4534 * 1024

#: What the static-analysis pass (``repro analyze``) and the SpecHint tool
#: are expected to find in this binary.  ``tests/test_analysis_driver.py``
#: asserts these structural (scale-independent) counts.
ANALYSIS_EXPECTATIONS = {
    "wrapped_stores": 6,      # all in spec-unreachable stdlib routines
    "resolved_transfers": 0,
    "lint_errors": 0,
    "lint_warnings": 0,
}

VOXEL_BYTES = 4


@dataclass(frozen=True)
class XdsWorkload:
    """Scaled-down version of the paper's 25 slices of a 512^3 volume."""

    dim: int = 128
    nslices: int = 25
    seed: int = 11
    #: Rendering cost per scanline (false-coloring the voxels).
    render_cycles: int = 24_000
    render_loads: int = 1_600
    render_stores: int = 160

    def scaled(self, factor: float) -> "XdsWorkload":
        return XdsWorkload(
            dim=self.dim,
            nslices=max(2, int(self.nslices * factor)),
            seed=self.seed,
            render_cycles=self.render_cycles,
            render_loads=self.render_loads,
            render_stores=self.render_stores,
        )

    @property
    def scanline_bytes(self) -> int:
        return self.dim * VOXEL_BYTES


def build_xdataslice_files(fs: FileSystem, workload: XdsWorkload) -> None:
    """Create the voxel volume XDataSlice renders in ``fs``."""
    generate_xds_dataset(fs, workload.dim, workload.seed)


def build_xdataslice_program(workload: XdsWorkload, manual_hints: bool = False) -> Binary:
    """Assemble the XDataSlice binary that renders the slices of ``workload``."""
    plan = xds_slice_plan(workload.dim, workload.nslices, workload.seed)

    dim = workload.dim
    line = workload.scanline_bytes
    plane = dim * dim * VOXEL_BYTES

    asm = Assembler("xds-manual" if manual_hints else "xds")
    emit_stdlib(asm)

    asm.data_asciiz("volpath", XDS_PATH)
    asm.data_words("plan", plan)
    asm.data_space("linebuf", max(line, 64))

    # Axis dispatch jump table (a recognized-format switch).
    axis_table = asm.jump_table(["slice_x", "slice_y", "slice_z"])

    asm.entry("main")
    with asm.function("render_line"):
        asm.cwork(workload.render_cycles, workload.render_loads,
                  workload.render_stores)
        asm.load(Reg.t0, Reg.a0, 0)  # sample the scanline
        asm.ret()

    def emit_scanline(offset_reg: Reg) -> None:
        """lseek + read + render one scanline at ``offset_reg``."""
        asm.mov(Reg.a0, Reg.s1)
        asm.mov(Reg.a1, offset_reg)
        asm.li(Reg.a2, SEEK_SET)
        asm.syscall(SYS_LSEEK)
        asm.mov(Reg.a0, Reg.s1)
        asm.la(Reg.a1, "linebuf")
        asm.li(Reg.a2, line)
        asm.syscall(SYS_READ)
        asm.push(Reg.ra)
        asm.la(Reg.a0, "linebuf")
        asm.call("render_line")
        asm.pop(Reg.ra)

    def emit_hint(offset_reg: Reg) -> None:
        """One TIPIO_FD_SEG hint for the scanline at ``offset_reg``."""
        asm.mov(Reg.a0, Reg.s1)
        asm.mov(Reg.a1, offset_reg)
        asm.li(Reg.a2, line)
        asm.syscall(SYS_HINT_FD_SEG)

    with asm.function("main"):
        asm.la(Reg.a0, "volpath")
        asm.syscall(SYS_OPEN)
        asm.mov(Reg.s1, Reg.v0)

        asm.li(Reg.s0, 0)  # slice index
        asm.label("slices_loop")
        asm.li(Reg.at, workload.nslices)
        asm.bge(Reg.s0, Reg.at, "done")

        # axis = plan[2*i]; pos = plan[2*i+1]
        asm.la(Reg.t0, "plan")
        asm.shli(Reg.t1, Reg.s0, 4)  # 2 words per slice
        asm.add(Reg.t0, Reg.t0, Reg.t1)
        asm.load(Reg.s2, Reg.t0, 0)  # axis
        asm.load(Reg.s3, Reg.t0, 8)  # position
        asm.switch(Reg.s2, axis_table)

        # x slice: one scanline-sized run per z plane (the blocks holding
        # the needed x column); same I/O shape as a y slice here.
        asm.label("slice_x")
        if manual_hints:
            asm.li(Reg.s4, 0)
            asm.label("hx_loop")
            asm.li(Reg.at, dim)
            asm.bge(Reg.s4, Reg.at, "hx_done")
            asm.muli(Reg.s5, Reg.s4, plane)
            asm.muli(Reg.t2, Reg.s3, VOXEL_BYTES)
            asm.add(Reg.s5, Reg.s5, Reg.t2)
            emit_hint(Reg.s5)
            asm.addi(Reg.s4, Reg.s4, 1)
            asm.jmp("hx_loop")
            asm.label("hx_done")
        asm.li(Reg.s4, 0)  # z
        asm.label("x_loop")
        asm.li(Reg.at, dim)
        asm.bge(Reg.s4, Reg.at, "slice_done")
        asm.muli(Reg.s5, Reg.s4, plane)       # z * plane
        asm.muli(Reg.t2, Reg.s3, VOXEL_BYTES)  # + x * voxel
        asm.add(Reg.s5, Reg.s5, Reg.t2)
        emit_scanline(Reg.s5)
        asm.addi(Reg.s4, Reg.s4, 1)
        asm.jmp("x_loop")
        asm.jmp("slice_done")

        # y slice: one scanline per z plane at row `pos`.
        asm.label("slice_y")
        if manual_hints:
            asm.li(Reg.s4, 0)
            asm.label("hy_loop")
            asm.li(Reg.at, dim)
            asm.bge(Reg.s4, Reg.at, "hy_done")
            asm.muli(Reg.s5, Reg.s4, plane)
            asm.muli(Reg.t2, Reg.s3, line)
            asm.add(Reg.s5, Reg.s5, Reg.t2)
            emit_hint(Reg.s5)
            asm.addi(Reg.s4, Reg.s4, 1)
            asm.jmp("hy_loop")
            asm.label("hy_done")
        asm.li(Reg.s4, 0)  # z
        asm.label("y_loop")
        asm.li(Reg.at, dim)
        asm.bge(Reg.s4, Reg.at, "slice_done")
        asm.muli(Reg.s5, Reg.s4, plane)   # z * plane
        asm.muli(Reg.t2, Reg.s3, line)    # + y * line
        asm.add(Reg.s5, Reg.s5, Reg.t2)
        emit_scanline(Reg.s5)
        asm.addi(Reg.s4, Reg.s4, 1)
        asm.jmp("y_loop")
        asm.jmp("slice_done")

        # z slice: one contiguous plane, read scanline by scanline.
        asm.label("slice_z")
        if manual_hints:
            # A z slice is one contiguous extent: a single batched hint.
            asm.mov(Reg.a0, Reg.s1)
            asm.muli(Reg.a1, Reg.s3, plane)
            asm.li(Reg.a2, plane)
            asm.syscall(SYS_HINT_FD_SEG)
        asm.li(Reg.s4, 0)  # row
        asm.label("z_loop")
        asm.li(Reg.at, dim)
        asm.bge(Reg.s4, Reg.at, "slice_done")
        asm.muli(Reg.s5, Reg.s3, plane)   # z * plane
        asm.muli(Reg.t2, Reg.s4, line)    # + row * line
        asm.add(Reg.s5, Reg.s5, Reg.t2)
        emit_scanline(Reg.s5)
        asm.addi(Reg.s4, Reg.s4, 1)
        asm.jmp("z_loop")

        asm.label("slice_done")
        asm.addi(Reg.s0, Reg.s0, 1)
        asm.jmp("slices_loop")

        asm.label("done")
        asm.li(Reg.a0, workload.nslices)
        asm.call("print_num")
        asm.li(Reg.a0, 0)
        asm.syscall(SYS_EXIT)

    binary = asm.finish()
    binary.declared_size_bytes = PAPER_ORIGINAL_SIZE
    binary.declared_text_fraction = 0.8
    return binary
