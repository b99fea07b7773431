"""Hand-built binaries exercising analysis edge cases.

The shipped example applications are all speculation-clean, so the lint
error paths (`unmappable-transfer`, `unknown-syscall`, ...) need crafted
inputs.  These fixtures are reachable from the CLI (``repro analyze
unsafe-fixture --lint``) and from the test suite.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.fs.filesystem import FileSystem
from repro.vm.assembler import Assembler
from repro.vm.binary import Binary
from repro.vm.isa import (
    SEEK_SET,
    SYS_EXIT,
    SYS_LSEEK,
    SYS_OPEN,
    SYS_READ,
    Reg,
)


def build_unsafe_fixture() -> Binary:
    """A binary speculation cannot safely pre-execute.

    After its blocking read it (a) jumps through a register holding a
    constant that is *not* a function entry — the handling routine can
    never map it, so speculation parks forever — and (b) issues a
    syscall number the runtime has no policy for.  ``repro analyze
    --lint`` must exit non-zero on this binary.
    """
    asm = Assembler("unsafe-fixture")
    asm.data_space("buf", 64)

    with asm.function("main"):
        asm.li(Reg.a0, 0)
        asm.la(Reg.a1, "buf")
        asm.li(Reg.a2, 64)
        asm.syscall(SYS_READ)
        asm.push(Reg.ra)
        asm.call("tail")
        asm.pop(Reg.ra)
        # Computed jump to a provable non-entry constant: unmappable.
        asm.li(Reg.t0, 2)
        asm.jr(Reg.t0)

    with asm.function("tail"):
        # Speculation-reachable syscall with no runtime policy.
        asm.syscall(99)
        asm.ret()

    asm.entry("main")
    return asm.finish()


def build_safe_fixture() -> Binary:
    """A minimal binary that passes ``--lint`` cleanly."""
    asm = Assembler("safe-fixture")
    asm.data_space("buf", 64)

    with asm.function("main"):
        asm.li(Reg.a0, 0)
        asm.la(Reg.a1, "buf")
        asm.li(Reg.a2, 64)
        asm.syscall(SYS_READ)
        asm.li(Reg.a0, 0)
        asm.syscall(SYS_EXIT)
        asm.halt()

    asm.entry("main")
    return asm.finish()


def build_alu_fixture() -> Binary:
    """The ALU operators no shipped app emits, over interval inputs.

    Two data bytes load as ``[0, 255]`` to the analysis (200 and 7 when
    run).  The program multiplies one by a negative constant, by zero and
    by the other; shifts and divides it by constants; masks and combines
    the two and two constants; and offsets the stack pointer by a
    constant, so each abstract transfer can be checked against the value
    the machine computes.
    """
    asm = Assembler("alu-fixture")
    asm.data_bytes("bytes", bytes([200, 7]))

    with asm.function("main"):
        asm.la(Reg.t0, "bytes")
        asm.loadb(Reg.s0, Reg.t0, 0)
        asm.loadb(Reg.s1, Reg.t0, 1)
        asm.muli(Reg.s2, Reg.s0, -3)
        asm.muli(Reg.s3, Reg.s0, 0)
        asm.mul(Reg.s4, Reg.s0, Reg.s1)
        asm.shri(Reg.s5, Reg.s0, 2)
        asm.li(Reg.t1, 3)
        asm.div(Reg.s6, Reg.s0, Reg.t1)
        asm.and_(Reg.s7, Reg.s0, Reg.s1)
        asm.or_(Reg.t4, Reg.s0, Reg.s1)
        asm.li(Reg.t2, 12)
        asm.li(Reg.t3, 10)
        asm.and_(Reg.a1, Reg.t2, Reg.t3)
        asm.or_(Reg.a2, Reg.t2, Reg.t3)
        asm.xor(Reg.a3, Reg.t2, Reg.t3)
        asm.sub(Reg.a4, Reg.sp, Reg.t2)
        asm.add(Reg.a5, Reg.t2, Reg.sp)
        asm.li(Reg.a0, 0)
        asm.syscall(SYS_EXIT)
        asm.halt()

    asm.entry("main")
    return asm.finish()


# -- speculation-security (taint) fixtures ------------------------------------
#
# Each taint fixture declares a secret data region and issues at least two
# reads: the first is the blocking read speculation restarts from, so the
# *second* read site is speculation-reachable and becomes a SPEC_READ hint
# disclosure in shadow code.  The leaky variants route a secret-derived
# value into one of the hint operands; the safe variants prove the lint's
# precision (using a secret is fine, *disclosing* it is not).  Builders
# optionally populate a FileSystem so the same binaries run end-to-end in
# the runtime correlation test.

#: Stride the table-walk fixture steps the file offset by (half a file
#: block: secrets 0..7 land on fs blocks 0..3, so distinct high bits of
#: the masked secret produce distinct disclosed hint keys).
TAINT_FIXTURE_BLOCK = 4096

#: Files the taint fixtures open, with their sizes.
_TAINT_FIXTURE_FILES = {
    "pub.dat": 4 * TAINT_FIXTURE_BLOCK,
    "walk.dat": 8 * TAINT_FIXTURE_BLOCK,
    "branch-a.dat": 2 * TAINT_FIXTURE_BLOCK,
    "branch-b.dat": 2 * TAINT_FIXTURE_BLOCK,
}


def populate_taint_fixture_fs(fs: FileSystem) -> None:
    """Create the files every taint fixture may open."""
    for path, size in _TAINT_FIXTURE_FILES.items():
        payload = bytes((i * 7 + len(path)) & 0xFF for i in range(size))
        fs.create(path, payload)


def _open_and_block(asm: Assembler, path_symbol: str) -> None:
    """open(path) -> s1, then the blocking read speculation resumes after."""
    asm.la(Reg.a0, path_symbol)
    asm.syscall(SYS_OPEN)
    asm.mov(Reg.s1, Reg.v0)
    asm.mov(Reg.a0, Reg.s1)
    asm.la(Reg.a1, "buf")
    asm.li(Reg.a2, 16)
    asm.syscall(SYS_READ)


def build_taint_safe_fixture(fs: Optional[FileSystem] = None) -> Binary:
    """Secret present and *used*, but never disclosed: constant-index scan.

    The secret byte is loaded, summed into a scratch cell, even compared
    against — all with the hint operands (fd, offset, length) staying
    constant.  ``--security`` must pass this clean: mere use of a secret
    is not a leak.
    """
    if fs is not None:
        populate_taint_fixture_fs(fs)
    asm = Assembler("taint-safe-fixture")
    asm.data_bytes("secret", bytes(range(1, 9)), secret=True)
    asm.data_word("sum", 0)
    asm.data_asciiz("pub_path", "pub.dat")
    asm.data_space("buf", TAINT_FIXTURE_BLOCK)

    with asm.function("main"):
        _open_and_block(asm, "pub_path")
        # Constant-index scan over the secret: taints t2 and the "sum"
        # cell, but nothing that reaches a hint operand.
        asm.la(Reg.t0, "secret")
        asm.loadb(Reg.t1, Reg.t0, 0)
        asm.loadb(Reg.t2, Reg.t0, 3)
        asm.add(Reg.t2, Reg.t2, Reg.t1)
        asm.la(Reg.t3, "sum")
        asm.store(Reg.t2, Reg.t3, 0)
        # Two more sequential reads with constant operands: both sites are
        # speculation-reachable, neither operand is secret-derived.
        asm.label("scan_loop")
        asm.mov(Reg.a0, Reg.s1)
        asm.la(Reg.a1, "buf")
        asm.li(Reg.a2, TAINT_FIXTURE_BLOCK)
        asm.syscall(SYS_READ)
        asm.bne(Reg.v0, Reg.zero, "scan_loop")
        asm.li(Reg.a0, 0)
        asm.syscall(SYS_EXIT)
        asm.halt()

    asm.entry("main")
    return asm.finish()


def build_taint_table_fixture(
    fs: Optional[FileSystem] = None, secret_byte: int = 5
) -> Binary:
    """Leaky: a secret-indexed table walk drives the read offset.

    The secret byte (masked to stay inside the file) selects which block
    of ``walk.dat`` is read next — the disclosed hint's *offset* is a
    function of the secret, which is exactly the access-pattern leak the
    speculative-execution literature warns about.  ``--security`` must
    flag the second read's ``offset`` channel.
    """
    if fs is not None:
        populate_taint_fixture_fs(fs)
    asm = Assembler("taint-table-fixture")
    asm.data_bytes("secret", bytes([secret_byte & 0xFF]), secret=True)
    asm.data_asciiz("walk_path", "walk.dat")
    asm.data_space("buf", TAINT_FIXTURE_BLOCK)

    with asm.function("main"):
        _open_and_block(asm, "walk_path")
        # offset = (secret & 7) * BLOCK: secret-derived, file-bounded.
        asm.la(Reg.t0, "secret")
        asm.loadb(Reg.t1, Reg.t0, 0)
        asm.andi(Reg.t1, Reg.t1, 7)
        asm.shli(Reg.t2, Reg.t1, 12)
        asm.mov(Reg.a0, Reg.s1)
        asm.mov(Reg.a1, Reg.t2)
        asm.li(Reg.a2, SEEK_SET)
        asm.syscall(SYS_LSEEK)
        # The disclosed hint for this read carries the secret in its offset.
        asm.mov(Reg.a0, Reg.s1)
        asm.la(Reg.a1, "buf")
        asm.li(Reg.a2, TAINT_FIXTURE_BLOCK)
        asm.syscall(SYS_READ)
        asm.li(Reg.a0, 0)
        asm.syscall(SYS_EXIT)
        asm.halt()

    asm.entry("main")
    return asm.finish()


def build_taint_branch_fixture(
    fs: Optional[FileSystem] = None, secret_byte: int = 1
) -> Binary:
    """Leaky: a secret-conditioned branch discloses different files.

    Neither arm touches the secret *value* — the leak is purely implicit:
    which path string ends up in ``a0`` (and therefore which inode the
    hint discloses) is decided by branching on the secret.  ``--security``
    must flag the read through the ``ino`` channel via the implicit-flow
    rule.
    """
    if fs is not None:
        populate_taint_fixture_fs(fs)
    asm = Assembler("taint-branch-fixture")
    asm.data_bytes("secret", bytes([secret_byte & 0xFF]), secret=True)
    asm.data_asciiz("pub_path", "pub.dat")
    asm.data_asciiz("path_a", "branch-a.dat")
    asm.data_asciiz("path_b", "branch-b.dat")
    asm.data_space("buf", TAINT_FIXTURE_BLOCK)

    with asm.function("main"):
        _open_and_block(asm, "pub_path")
        asm.la(Reg.t0, "secret")
        asm.loadb(Reg.t1, Reg.t0, 0)
        asm.andi(Reg.t1, Reg.t1, 1)
        asm.beq(Reg.t1, Reg.zero, "pick_a")
        asm.la(Reg.a0, "path_b")
        asm.jmp("open_it")
        asm.label("pick_a")
        asm.la(Reg.a0, "path_a")
        asm.label("open_it")
        asm.syscall(SYS_OPEN)
        asm.mov(Reg.s2, Reg.v0)
        # The hint discloses whichever inode the secret selected.
        asm.mov(Reg.a0, Reg.s2)
        asm.la(Reg.a1, "buf")
        asm.li(Reg.a2, TAINT_FIXTURE_BLOCK)
        asm.syscall(SYS_READ)
        asm.li(Reg.a0, 0)
        asm.syscall(SYS_EXIT)
        asm.halt()

    asm.entry("main")
    return asm.finish()


def build_taint_sanitized_fixture(fs: Optional[FileSystem] = None) -> Binary:
    """False-positive probe: a sanitized copy of the secret is harmless.

    The secret is copied byte-for-byte into a scratch cell (the copy *is*
    tracked: the scratch bucket carries the taint), reloaded, then masked
    with ``andi x, copy, 0`` — a provably constant result.  The constant-
    sanitization rule must clear the data taint, so the read built from it
    stays clean.  A lint without value information would flag this.
    """
    if fs is not None:
        populate_taint_fixture_fs(fs)
    asm = Assembler("taint-sanitized-fixture")
    asm.data_bytes("secret", bytes([42]), secret=True)
    asm.data_space("scratch", 8)
    asm.data_asciiz("pub_path", "pub.dat")
    asm.data_space("buf", TAINT_FIXTURE_BLOCK)

    with asm.function("main"):
        _open_and_block(asm, "pub_path")
        # Copy the secret (the scratch bucket becomes tainted)...
        asm.la(Reg.t0, "secret")
        asm.loadb(Reg.t1, Reg.t0, 0)
        asm.la(Reg.t2, "scratch")
        asm.storeb(Reg.t1, Reg.t2, 0)
        # ...reload the copy, then sanitize it to a provable constant.
        asm.loadb(Reg.t3, Reg.t2, 0)
        asm.andi(Reg.t4, Reg.t3, 0)
        asm.addi(Reg.a2, Reg.t4, TAINT_FIXTURE_BLOCK)
        asm.mov(Reg.a0, Reg.s1)
        asm.la(Reg.a1, "buf")
        asm.syscall(SYS_READ)
        asm.li(Reg.a0, 0)
        asm.syscall(SYS_EXIT)
        asm.halt()

    asm.entry("main")
    return asm.finish()


#: CLI-visible fixture registry: name -> zero-argument builder.
FIXTURES: Dict[str, Callable[[], Binary]] = {
    "unsafe-fixture": build_unsafe_fixture,
    "safe-fixture": build_safe_fixture,
    "alu-fixture": build_alu_fixture,
    "taint-safe-fixture": build_taint_safe_fixture,
    "taint-table-fixture": build_taint_table_fixture,
    "taint-branch-fixture": build_taint_branch_fixture,
    "taint-sanitized-fixture": build_taint_sanitized_fixture,
}

#: Fixtures ``--security --lint`` must fail on (and the others pass).
LEAKY_FIXTURES = ("taint-table-fixture", "taint-branch-fixture")

