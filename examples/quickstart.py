#!/usr/bin/env python3
"""Quickstart: transform a program with SpecHint and watch it get faster.

This walks the whole pipeline on a small custom program:

1. create a simulated file system with some files;
2. write a disk-bound program against the SpecVM assembler;
3. run it unmodified on a simulated 4-disk machine under TIP;
4. run it through the SpecHint binary modification tool and run the
   speculating executable on an identical machine;
5. compare: identical output, fewer stalls, shorter elapsed time.

Run:  python examples/quickstart.py
"""

from repro.fs.filesystem import FileSystem
from repro.harness.runner import build_system
from repro.params import BLOCK_SIZE, CPU_HZ, SystemConfig
from repro.spechint.tool import SpecHintTool
from repro.vm.assembler import Assembler
from repro.vm.isa import SYS_CLOSE, SYS_EXIT, SYS_OPEN, SYS_READ, Reg
from repro.vm.stdlib import emit_stdlib

NFILES = 10
BLOCKS_PER_FILE = 4


def make_files() -> FileSystem:
    """A fresh simulated file system with ten 32 KB files."""
    fs = FileSystem(allocation_jitter_blocks=16, seed=7)
    for i in range(NFILES):
        payload = bytes((i + j) % 256 for j in range(BLOCKS_PER_FILE * BLOCK_SIZE))
        fs.create(f"data/file{i}", payload)
    return fs


def make_program():
    """A mini text-search: read every file, sum a byte per block, print."""
    asm = Assembler("quickstart")
    emit_stdlib(asm)  # print_num, memcpy, ... (printf analogues are
    #                   registered as output routines SpecHint strips)
    paths = [asm.data_asciiz(f"p{i}", f"data/file{i}") for i in range(NFILES)]
    asm.data_words("paths", paths)
    asm.data_space("buf", BLOCK_SIZE)

    asm.entry("main")
    with asm.function("main"):
        asm.li(Reg.s0, 0)   # file index
        asm.li(Reg.s5, 0)   # checksum
        asm.label("files")
        asm.li(Reg.at, NFILES)
        asm.bge(Reg.s0, Reg.at, "done")
        # open(paths[s0])
        asm.la(Reg.t0, "paths")
        asm.shli(Reg.t1, Reg.s0, 3)
        asm.add(Reg.t0, Reg.t0, Reg.t1)
        asm.load(Reg.a0, Reg.t0, 0)
        asm.syscall(SYS_OPEN)
        asm.mov(Reg.s1, Reg.v0)
        # while read(fd, buf, 8192) > 0: process
        asm.label("reads")
        asm.mov(Reg.a0, Reg.s1)
        asm.la(Reg.a1, "buf")
        asm.li(Reg.a2, BLOCK_SIZE)
        asm.syscall(SYS_READ)
        asm.beq(Reg.v0, Reg.zero, "next")
        asm.la(Reg.t2, "buf")
        asm.loadb(Reg.t3, Reg.t2, 100)
        asm.add(Reg.s5, Reg.s5, Reg.t3)
        asm.cwork(30_000, 800, 60)  # "search" the block
        asm.jmp("reads")
        asm.label("next")
        asm.mov(Reg.a0, Reg.s1)
        asm.syscall(SYS_CLOSE)
        asm.addi(Reg.s0, Reg.s0, 1)
        asm.jmp("files")
        asm.label("done")
        asm.mov(Reg.a0, Reg.s5)
        asm.call("print_num")
        asm.li(Reg.a0, 0)
        asm.syscall(SYS_EXIT)
    return asm.finish()


def run(binary):
    fs = make_files()
    system = build_system(SystemConfig(), fs)
    process = system.kernel.spawn(binary)
    system.kernel.run()
    return system, process


def main() -> None:
    print("SpecHint quickstart")
    print("===================")

    # 1) The original program.
    original_system, original_proc = run(make_program())
    original_s = original_system.clock.seconds(CPU_HZ)
    print(f"\noriginal:     {original_s * 1000:8.2f} ms simulated, "
          f"{original_system.stats.get('app.read_stalls')} read stalls, "
          f"output={bytes(original_proc.output).strip().decode()}")

    # 2) Transform it.
    tool = SpecHintTool()
    speculating_binary = tool.transform(make_program())
    report = speculating_binary.spec_meta.report
    print(f"\nSpecHint transformation: {report.loads_wrapped} loads and "
          f"{report.stores_wrapped} stores wrapped with COW checks, "
          f"{report.reads_substituted} read substituted with a hint call, "
          f"{report.output_calls_stripped} output call stripped "
          f"(+{report.size_increase_pct:.0f}% executable size)")

    # 3) The speculating executable on an identical machine.
    spec_system, spec_proc = run(speculating_binary)
    spec_s = spec_system.clock.seconds(CPU_HZ)
    print(f"\nspeculating:  {spec_s * 1000:8.2f} ms simulated, "
          f"{spec_system.stats.get('app.read_stalls')} read stalls, "
          f"output={bytes(spec_proc.output).strip().decode()}")
    print(f"              {spec_system.stats.get('spec.hints_issued')} hints issued, "
          f"{spec_system.stats.get('spec.restarts')} speculation restart(s), "
          f"{spec_system.stats.get('tip.prefetches_issued')} hinted "
          f"prefetches")

    assert bytes(spec_proc.output) == bytes(original_proc.output), \
        "transformed program must produce identical output"
    speedup = original_s / spec_s
    print(f"\nidentical output, {100 * (1 - spec_s / original_s):.0f}% less "
          f"time ({speedup:.2f}x)")


if __name__ == "__main__":
    main()
