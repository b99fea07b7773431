"""End-to-end tests of the SpecHint runtime: correctness, hint generation,
the restart protocol, side-effect suppression, and signals."""


from repro.fs.filesystem import FileSystem
from repro.params import BLOCK_SIZE, SpecHintParams
from repro.spechint.tool import SpecHintTool
from repro.vm.assembler import Assembler
from repro.vm.isa import (
    SYS_CLOSE,
    SYS_EXIT,
    SYS_OPEN,
    SYS_READ,
    SYS_WRITE,
    Reg,
)
from repro.vm.stdlib import emit_stdlib

from tests.conftest import make_system, small_system_config


def corpus_fs(nfiles=6, blocks_each=3):
    fs = FileSystem(allocation_jitter_blocks=8, seed=1)
    for i in range(nfiles):
        payload = bytes((i * 7 + j) % 256 for j in range(blocks_each * BLOCK_SIZE))
        fs.create(f"in{i}", payload)
    return fs


def reader_binary(nfiles=6, per_block_cycles=20_000, name="reader"):
    """A mini-Agrep: read every file sequentially, sum first bytes, print."""
    asm = Assembler(name)
    emit_stdlib(asm)
    paths = [asm.data_asciiz(f"p{i}", f"in{i}") for i in range(nfiles)]
    asm.data_words("paths", paths)
    asm.data_space("buf", BLOCK_SIZE)
    asm.entry("main")
    with asm.function("main"):
        asm.li(Reg.s0, 0)
        asm.li(Reg.s5, 0)
        asm.label("files")
        asm.li(Reg.at, nfiles)
        asm.bge(Reg.s0, Reg.at, "done")
        asm.la(Reg.t0, "paths")
        asm.shli(Reg.t1, Reg.s0, 3)
        asm.add(Reg.t0, Reg.t0, Reg.t1)
        asm.load(Reg.a0, Reg.t0, 0)
        asm.syscall(SYS_OPEN)
        asm.mov(Reg.s1, Reg.v0)
        asm.label("reads")
        asm.mov(Reg.a0, Reg.s1)
        asm.la(Reg.a1, "buf")
        asm.li(Reg.a2, BLOCK_SIZE)
        asm.syscall(SYS_READ)
        asm.beq(Reg.v0, Reg.zero, "next")
        asm.la(Reg.t2, "buf")
        asm.loadb(Reg.t3, Reg.t2, 0)
        asm.add(Reg.s5, Reg.s5, Reg.t3)
        asm.cwork(per_block_cycles, 500, 50)
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


def run_binary(binary, fs):
    system = make_system(fs, small_system_config(cache_blocks=48))
    process = system.kernel.spawn(binary)
    system.kernel.run()
    return system, process


def run_pair(make_binary, make_fs=corpus_fs, spechint_params=None, **tool_kwargs):
    """Run original and transformed variants on identical file systems."""
    original_system, original_proc = run_binary(make_binary(), make_fs())
    tool = SpecHintTool(params=spechint_params or SpecHintParams(), **tool_kwargs)
    transformed = tool.transform(make_binary())
    spec_system, spec_proc = run_binary(transformed, make_fs())
    return (original_system, original_proc), (spec_system, spec_proc)


class TestCorrectness:
    """Design goal 1 (Section 3.1): results must match the original."""

    def test_output_identical(self):
        (o_sys, o_proc), (s_sys, s_proc) = run_pair(reader_binary)
        assert bytes(s_proc.output) == bytes(o_proc.output)
        assert s_proc.exit_code == o_proc.exit_code

    def test_speculation_actually_happened(self):
        _, (s_sys, s_proc) = run_pair(reader_binary)
        assert s_proc.spec is not None
        assert s_sys.stats.get("spec.restarts") >= 1
        assert s_sys.stats.get("spec.hints_issued") > 0

    def test_transformed_is_faster_with_hints(self):
        (o_sys, _), (s_sys, _) = run_pair(reader_binary)
        assert s_sys.clock.now < o_sys.clock.now

    def test_original_memory_not_corrupted_by_garbage_speculation(self):
        """Dependent-read program: speculation computes garbage, the
        program's final answer must still be exact."""
        (o_sys, o_proc), (s_sys, s_proc) = run_pair(chained_binary, chain_fs)
        assert bytes(s_proc.output) == bytes(o_proc.output)


class TestHintGeneration:
    def test_hints_reach_tip(self):
        _, (s_sys, s_proc) = run_pair(reader_binary)
        assert s_sys.stats.get("tip.hinted_blocks") > 0
        assert s_sys.stats.get("tip.prefetches_issued") > 0

    def test_hinted_reads_counted(self):
        _, (s_sys, _) = run_pair(reader_binary)
        assert s_sys.stats.get("tip.hinted_read_calls") > 0

    def test_spec_open_produces_by_name_hints(self):
        """Files the original thread has not opened yet are hinted via
        TIPIO_SEG through the speculative fd table."""
        _, (s_sys, s_proc) = run_pair(reader_binary)
        # The speculating thread opened files ahead of normal execution.
        assert s_proc.spec.predictions > 0
        assert s_sys.stats.get("app.hint_calls") > 0

    def test_eof_reads_predicted_but_not_hinted(self):
        _, (s_sys, s_proc) = run_pair(reader_binary)
        assert s_proc.spec.predictions > s_sys.stats.get("spec.hints_issued")


class TestRestartProtocol:
    def test_independent_reads_stay_on_track(self):
        """A program with no data-dependent reads should restart once
        (the initial restart) or very few times."""
        _, (s_sys, s_proc) = run_pair(reader_binary)
        assert s_sys.stats.get("spec.restarts") <= 3

    def test_dependent_reads_cause_restarts(self):
        _, (s_sys, s_proc) = run_pair(chained_binary, chain_fs)
        # Every chained read strays speculation off track.
        assert s_sys.stats.get("spec.restarts") >= 4

    def test_cancel_called_on_mismatch_restarts(self):
        _, (s_sys, s_proc) = run_pair(chained_binary, chain_fs)
        assert s_sys.stats.get("spec.cancel_calls") == s_sys.stats.get("spec.restarts")
        assert s_sys.stats.get("tip.hints_cancelled") > 0

    def test_erroneous_hints_recorded(self):
        _, (s_sys, s_proc) = run_pair(chained_binary, chain_fs)
        cancelled = s_sys.stats.get("tip.hints_cancelled")
        unconsumed = s_sys.stats.get("tip.hints_unconsumed_at_end")
        assert cancelled + unconsumed > 0


class TestSideEffectSuppression:
    def test_spec_writes_suppressed(self):
        """Output must not be duplicated by the speculating thread."""
        (o_sys, o_proc), (s_sys, s_proc) = run_pair(writer_binary)
        assert bytes(s_proc.output) == bytes(o_proc.output)

    def test_output_routine_stripped_not_executed(self):
        _, (s_sys, s_proc) = run_pair(reader_binary)
        # print_num is only called once (by the original thread at exit).
        assert bytes(s_proc.output).count(b"\n") == 1


class TestSignals:
    def test_garbage_division_becomes_signal(self):
        (o_sys, o_proc), (s_sys, s_proc) = run_pair(divider_binary, chain_fs)
        assert bytes(s_proc.output) == bytes(o_proc.output)
        # Speculation divided by a stale (zero) value at least once.
        assert s_sys.stats.get("spec.signals") >= 1

    def test_signals_do_not_crash_the_run(self):
        _, (s_sys, s_proc) = run_pair(divider_binary, chain_fs)
        assert s_proc.exited
        assert s_proc.exit_code == 0


class TestThrottleIntegration:
    def test_throttle_reduces_cancels(self):
        params = SpecHintParams(throttle_cancel_limit=2, throttle_disable_reads=16)
        _, (s_sys_throttled, _) = run_pair(
            chained_binary, chain_fs, spechint_params=params
        )
        _, (s_sys_free, _) = run_pair(chained_binary, chain_fs)
        assert s_sys_throttled.stats.get("spec.throttle_suppressed") >= 1
        assert (s_sys_throttled.stats.get("spec.cancel_calls")
                < s_sys_free.stats.get("spec.cancel_calls"))


class TestMapAllAddresses:
    def test_default_parks_on_unmappable_return(self):
        _, (s_sys, s_proc) = run_pair(deep_return_binary, chain_fs)
        assert s_sys.stats.get("spec.park.left_shadow") > 0

    def test_map_all_extension_survives(self):
        _, (s_sys, s_proc) = run_pair(
            deep_return_binary, chain_fs, map_all_addresses=True
        )
        assert s_sys.stats.get("spec.park.left_shadow") == 0


# ---------------------------------------------------------------------------
# Helper programs
# ---------------------------------------------------------------------------

def chain_fs():
    """Files forming a pointer chain: each block's first word is the
    offset of the next read."""
    fs = FileSystem(allocation_jitter_blocks=8, seed=2)
    nblocks = 40
    blob = bytearray(nblocks * BLOCK_SIZE)
    offsets = [((i * 17) % nblocks) * BLOCK_SIZE for i in range(1, 13)]
    cursor = 0
    for next_offset in offsets:
        blob[cursor:cursor + 8] = next_offset.to_bytes(8, "little")
        cursor = next_offset
    fs.create("chain", bytes(blob))
    return fs


def _chain_prologue(asm):
    asm.data_asciiz("path", "chain")
    asm.data_space("buf", 512)
    asm.la(Reg.a0, "path")
    asm.syscall(SYS_OPEN)
    asm.mov(Reg.s1, Reg.v0)
    asm.li(Reg.s2, 0)  # current offset
    asm.li(Reg.s3, 0)  # iteration count
    asm.li(Reg.s5, 0)  # checksum


def _chain_loop(asm, iterations, body_between=None):
    asm.label("chain_loop")
    asm.li(Reg.at, iterations)
    asm.bge(Reg.s3, Reg.at, "chain_done")
    asm.mov(Reg.a0, Reg.s1)
    asm.mov(Reg.a1, Reg.s2)
    asm.li(Reg.a2, 0)
    asm.syscall(6)  # SYS_LSEEK / SEEK_SET
    asm.mov(Reg.a0, Reg.s1)
    asm.la(Reg.a1, "buf")
    asm.li(Reg.a2, 512)
    asm.syscall(SYS_READ)
    asm.la(Reg.t0, "buf")
    asm.load(Reg.s2, Reg.t0, 0)  # next offset: data dependence!
    asm.add(Reg.s5, Reg.s5, Reg.s2)
    if body_between is not None:
        body_between(asm)
    asm.cwork(8000, 200, 40)
    asm.addi(Reg.s3, Reg.s3, 1)
    asm.jmp("chain_loop")
    asm.label("chain_done")


def chained_binary():
    asm = Assembler("chained")
    emit_stdlib(asm)
    asm.entry("main")
    with asm.function("main"):
        _chain_prologue(asm)
        _chain_loop(asm, 12)
        asm.mov(Reg.a0, Reg.s5)
        asm.call("print_num")
        asm.li(Reg.a0, 0)
        asm.syscall(SYS_EXIT)
    return asm.finish()


def divider_binary():
    """Chained reader that divides by a value read from disk; speculation
    sees a stale zero and faults."""

    def divide(asm):
        asm.la(Reg.t0, "buf")
        asm.load(Reg.t1, Reg.t0, 0)  # real chain offsets are never zero,
        asm.li(Reg.t2, 1000)         # but the stale buffer starts as zeros
        asm.div(Reg.t4, Reg.t2, Reg.t1)
        asm.add(Reg.s5, Reg.s5, Reg.t4)

    asm = Assembler("divider")
    emit_stdlib(asm)
    asm.entry("main")
    with asm.function("main"):
        _chain_prologue(asm)
        _chain_loop(asm, 12, body_between=divide)
        asm.mov(Reg.a0, Reg.s5)
        asm.call("print_num")
        asm.li(Reg.a0, 0)
        asm.syscall(SYS_EXIT)
    return asm.finish()


def writer_binary():
    """Reads files and writes a line of output per file."""
    asm = Assembler("writer")
    emit_stdlib(asm)
    nfiles = 4
    paths = [asm.data_asciiz(f"p{i}", f"in{i}") for i in range(nfiles)]
    asm.data_words("paths", paths)
    asm.data_space("buf", BLOCK_SIZE)
    asm.data_asciiz("line", "done\n")
    asm.entry("main")
    with asm.function("main"):
        asm.li(Reg.s0, 0)
        asm.label("files")
        asm.li(Reg.at, nfiles)
        asm.bge(Reg.s0, Reg.at, "done")
        asm.la(Reg.t0, "paths")
        asm.shli(Reg.t1, Reg.s0, 3)
        asm.add(Reg.t0, Reg.t0, Reg.t1)
        asm.load(Reg.a0, Reg.t0, 0)
        asm.syscall(SYS_OPEN)
        asm.mov(Reg.s1, Reg.v0)
        asm.mov(Reg.a0, Reg.s1)
        asm.la(Reg.a1, "buf")
        asm.li(Reg.a2, BLOCK_SIZE)
        asm.syscall(SYS_READ)
        # Raw write syscall (not via an output routine): the speculating
        # thread must suppress it.
        asm.li(Reg.a0, 1)
        asm.la(Reg.a1, "line")
        asm.li(Reg.a2, 5)
        asm.syscall(SYS_WRITE)
        asm.mov(Reg.a0, Reg.s1)
        asm.syscall(SYS_CLOSE)
        asm.addi(Reg.s0, Reg.s0, 1)
        asm.cwork(5000, 100, 10)
        asm.jmp("files")
        asm.label("done")
        asm.li(Reg.a0, 0)
        asm.syscall(SYS_EXIT)
    return asm.finish()


def deep_return_binary():
    """The read happens inside a helper function; after a restart the
    speculating thread eventually returns *above* the restart frame
    through a stale (original-text) return address, which the handling
    routine cannot map unless map_all_addresses is enabled."""
    asm = Assembler("deep")
    emit_stdlib(asm)
    asm.data_asciiz("path", "chain")
    asm.data_space("buf", 512)
    asm.entry("main")
    with asm.function("read_one"):
        # a0 = fd, a1 = offset
        asm.push(Reg.ra)
        asm.mov(Reg.t5, Reg.a0)
        asm.li(Reg.a2, 0)
        asm.syscall(6)  # lseek SEEK_SET
        asm.mov(Reg.a0, Reg.t5)
        asm.la(Reg.a1, "buf")
        asm.li(Reg.a2, 512)
        asm.syscall(SYS_READ)
        asm.pop(Reg.ra)
        asm.ret()
    with asm.function("main"):
        asm.la(Reg.a0, "path")
        asm.syscall(SYS_OPEN)
        asm.mov(Reg.s1, Reg.v0)
        asm.li(Reg.s3, 0)
        asm.label("loop")
        asm.li(Reg.at, 8)
        asm.bge(Reg.s3, Reg.at, "done")
        asm.mov(Reg.a0, Reg.s1)
        asm.muli(Reg.a1, Reg.s3, BLOCK_SIZE)
        asm.call("read_one")
        asm.cwork(4000, 80, 10)
        asm.addi(Reg.s3, Reg.s3, 1)
        asm.jmp("loop")
        asm.label("done")
        asm.li(Reg.a0, 0)
        asm.syscall(SYS_EXIT)
    return asm.finish()
