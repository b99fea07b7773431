"""Tests for the kernel system-call layer using small real programs."""

import pytest

from repro.errors import InvalidSyscall
from repro.fs.filesystem import FileSystem
from repro.params import BLOCK_SIZE
from repro.vm.isa import (
    SEEK_CUR,
    SEEK_END,
    SEEK_SET,
    SYS_CANCEL_ALL,
    SYS_CLOSE,
    SYS_FSTAT,
    SYS_HINT_FD_SEG,
    SYS_HINT_SEG,
    SYS_LSEEK,
    SYS_OPEN,
    SYS_READ,
    SYS_WRITE,
    Reg,
)

from tests.conftest import make_populated_fs, run_program


def open_f0(asm):
    asm.data_asciiz("path", "f0.dat")
    asm.la(Reg.a0, "path")
    asm.syscall(SYS_OPEN)
    asm.mov(Reg.s1, Reg.v0)


class TestOpenClose:
    def test_open_returns_fd(self):
        def body(asm):
            open_f0(asm)
            asm.mov(Reg.s0, Reg.s1)

        system, process = run_program(body, fs=make_populated_fs())
        assert process.original_thread.reg(Reg.s0) == 3  # first fd after stdio

    def test_open_missing_returns_minus_one(self):
        def body(asm):
            asm.data_asciiz("path", "missing")
            asm.la(Reg.a0, "path")
            asm.syscall(SYS_OPEN)
            asm.mov(Reg.s0, Reg.v0)

        system, process = run_program(body, fs=make_populated_fs())
        assert process.original_thread.reg(Reg.s0) == (1 << 64) - 1

    def test_close_frees_fd(self):
        def body(asm):
            open_f0(asm)
            asm.mov(Reg.a0, Reg.s1)
            asm.syscall(SYS_CLOSE)
            asm.mov(Reg.s0, Reg.v0)

        system, process = run_program(body, fs=make_populated_fs())
        assert process.original_thread.reg(Reg.s0) == 0
        assert 3 not in process.fds

    def test_close_bad_fd_returns_minus_one(self):
        def body(asm):
            asm.li(Reg.a0, 55)
            asm.syscall(SYS_CLOSE)
            asm.mov(Reg.s0, Reg.v0)

        system, process = run_program(body)
        assert process.original_thread.reg(Reg.s0) == (1 << 64) - 1


class TestRead:
    def test_read_returns_data(self):
        def body(asm):
            asm.data_space("buf", 64)
            open_f0(asm)
            asm.mov(Reg.a0, Reg.s1)
            asm.la(Reg.a1, "buf")
            asm.li(Reg.a2, 16)
            asm.syscall(SYS_READ)
            asm.mov(Reg.s0, Reg.v0)
            asm.la(Reg.t0, "buf")
            asm.loadb(Reg.s2, Reg.t0, 1)

        fs = make_populated_fs()
        expected = fs.lookup("f0.dat").read_at(1, 1)[0]
        system, process = run_program(body, fs=fs)
        thread = process.original_thread
        assert thread.reg(Reg.s0) == 16
        assert thread.reg(Reg.s2) == expected

    def test_read_advances_offset(self):
        def body(asm):
            asm.data_space("buf", 64)
            open_f0(asm)
            for _ in range(2):
                asm.mov(Reg.a0, Reg.s1)
                asm.la(Reg.a1, "buf")
                asm.li(Reg.a2, 10)
                asm.syscall(SYS_READ)
            asm.la(Reg.t0, "buf")
            asm.loadb(Reg.s2, Reg.t0, 0)

        fs = make_populated_fs()
        expected = fs.lookup("f0.dat").read_at(10, 1)[0]
        system, process = run_program(body, fs=fs)
        assert process.original_thread.reg(Reg.s2) == expected

    def test_read_at_eof_returns_zero(self):
        def body(asm):
            asm.data_space("buf", 64)
            open_f0(asm)
            asm.mov(Reg.a0, Reg.s1)
            asm.li(Reg.a1, 1 << 62)  # never used: lseek to end first
            asm.mov(Reg.a0, Reg.s1)
            asm.li(Reg.a1, 0)
            asm.li(Reg.a2, SEEK_END)
            asm.syscall(SYS_LSEEK)
            asm.mov(Reg.a0, Reg.s1)
            asm.la(Reg.a1, "buf")
            asm.li(Reg.a2, 32)
            asm.syscall(SYS_READ)
            asm.mov(Reg.s0, Reg.v0)

        system, process = run_program(body, fs=make_populated_fs())
        assert process.original_thread.reg(Reg.s0) == 0

    def test_read_blocks_and_consumes_disk_time(self):
        def body(asm):
            asm.data_space("buf", BLOCK_SIZE)
            open_f0(asm)
            asm.mov(Reg.a0, Reg.s1)
            asm.la(Reg.a1, "buf")
            asm.li(Reg.a2, BLOCK_SIZE)
            asm.syscall(SYS_READ)

        system, process = run_program(body, fs=make_populated_fs())
        assert system.stats.get("app.read_stalls") == 1
        # At least one disk positioning time elapsed.
        assert system.clock.now > 100_000

    def test_cached_reread_does_not_stall(self):
        def body(asm):
            asm.data_space("buf", BLOCK_SIZE)
            open_f0(asm)
            for _ in range(2):
                asm.mov(Reg.a0, Reg.s1)
                asm.li(Reg.a1, 0)
                asm.li(Reg.a2, SEEK_SET)
                asm.syscall(SYS_LSEEK)
                asm.mov(Reg.a0, Reg.s1)
                asm.la(Reg.a1, "buf")
                asm.li(Reg.a2, 512)
                asm.syscall(SYS_READ)

        system, process = run_program(body, fs=make_populated_fs())
        assert system.stats.get("app.read_stalls") == 1
        assert system.stats.get("cache.block_reuses") == 1


class TestLseekFstat:
    def test_lseek_set_cur_end(self):
        def body(asm):
            open_f0(asm)
            asm.mov(Reg.a0, Reg.s1)
            asm.li(Reg.a1, 100)
            asm.li(Reg.a2, SEEK_SET)
            asm.syscall(SYS_LSEEK)
            asm.mov(Reg.s0, Reg.v0)
            asm.mov(Reg.a0, Reg.s1)
            asm.li(Reg.a1, -50)
            asm.li(Reg.a2, SEEK_CUR)
            asm.syscall(SYS_LSEEK)
            asm.mov(Reg.s2, Reg.v0)
            asm.mov(Reg.a0, Reg.s1)
            asm.li(Reg.a1, 0)
            asm.li(Reg.a2, SEEK_END)
            asm.syscall(SYS_LSEEK)
            asm.mov(Reg.s3, Reg.v0)

        fs = make_populated_fs()
        size = fs.lookup("f0.dat").size
        system, process = run_program(body, fs=fs)
        t = process.original_thread
        assert t.reg(Reg.s0) == 100
        assert t.reg(Reg.s2) == 50
        assert t.reg(Reg.s3) == size

    @pytest.mark.parametrize("whence, offset, expected", [
        (SEEK_SET, 100, lambda size: 100),
        (SEEK_CUR, -50, lambda size: 78),
        (SEEK_CUR, -1000, lambda size: 0),
        (SEEK_END, -10, lambda size: size - 10),
        (SEEK_END, -(1 << 40), lambda size: 0),
    ])
    def test_lseek_from_128_clamps_at_zero(self, whence, offset, expected):
        def body(asm):
            open_f0(asm)
            asm.mov(Reg.a0, Reg.s1)
            asm.li(Reg.a1, 128)
            asm.li(Reg.a2, SEEK_SET)
            asm.syscall(SYS_LSEEK)
            asm.mov(Reg.a0, Reg.s1)
            asm.li(Reg.a1, offset)
            asm.li(Reg.a2, whence)
            asm.syscall(SYS_LSEEK)
            asm.mov(Reg.s0, Reg.v0)

        fs = make_populated_fs()
        size = fs.lookup("f0.dat").size
        system, process = run_program(body, fs=fs)
        assert process.original_thread.reg(Reg.s0) == expected(size)
        assert process.fd(process.original_thread.reg(Reg.s1)).offset == expected(size)

    def test_lseek_bad_whence_is_invalid_syscall(self):
        def body(asm):
            open_f0(asm)
            asm.mov(Reg.a0, Reg.s1)
            asm.li(Reg.a1, 0)
            asm.li(Reg.a2, 3)
            asm.syscall(SYS_LSEEK)

        with pytest.raises(InvalidSyscall, match="lseek whence 3"):
            run_program(body, fs=make_populated_fs())

    def test_fstat_returns_size(self):
        def body(asm):
            open_f0(asm)
            asm.mov(Reg.a0, Reg.s1)
            asm.syscall(SYS_FSTAT)
            asm.mov(Reg.s0, Reg.v0)

        fs = make_populated_fs()
        system, process = run_program(body, fs=fs)
        assert process.original_thread.reg(Reg.s0) == fs.lookup("f0.dat").size


class TestWrite:
    def test_write_to_stdout_collected(self):
        def body(asm):
            asm.data_asciiz("msg", "hello")
            asm.li(Reg.a0, 1)
            asm.la(Reg.a1, "msg")
            asm.li(Reg.a2, 5)
            asm.syscall(SYS_WRITE)

        system, process = run_program(body)
        assert bytes(process.output) == b"hello"

    def test_write_to_file_updates_contents(self):
        def body(asm):
            asm.data_asciiz("path", "out")
            asm.data_asciiz("msg", "abc")
            asm.la(Reg.a0, "path")
            asm.syscall(SYS_OPEN)
            asm.mov(Reg.a0, Reg.v0)
            asm.la(Reg.a1, "msg")
            asm.li(Reg.a2, 3)
            asm.syscall(SYS_WRITE)

        fs = FileSystem()
        fs.create("out", b"")
        system, process = run_program(body, fs=fs)
        assert bytes(fs.lookup("out").data) == b"abc"

    def test_write_is_nonblocking(self):
        """Write-behind: no disk stall for writes."""
        def body(asm):
            asm.data_asciiz("path", "out")
            asm.data_space("big", 8192)
            asm.la(Reg.a0, "path")
            asm.syscall(SYS_OPEN)
            asm.mov(Reg.a0, Reg.v0)
            asm.la(Reg.a1, "big")
            asm.li(Reg.a2, 8192)
            asm.syscall(SYS_WRITE)

        fs = FileSystem()
        fs.create("out", b"")
        system, process = run_program(body, fs=fs)
        assert system.stats.get("app.read_stalls") == 0


class TestHintSyscalls:
    def test_hint_fd_seg_on_a_closed_fd_is_unresolvable(self):
        def body(asm):
            asm.li(Reg.a0, 99)
            asm.li(Reg.a1, 0)
            asm.li(Reg.a2, BLOCK_SIZE)
            asm.syscall(SYS_HINT_FD_SEG)
            asm.mov(Reg.s0, Reg.v0)

        system, process = run_program(body, fs=make_populated_fs())
        assert process.original_thread.reg(Reg.s0) == 0
        assert system.stats.get("app.hint_calls_unresolvable") == 1
        assert system.stats.get("tip.hinted_blocks") == 0

    def test_hint_seg_by_name(self):
        def body(asm):
            asm.data_asciiz("path", "f0.dat")
            asm.la(Reg.a0, "path")
            asm.li(Reg.a1, 0)
            asm.li(Reg.a2, BLOCK_SIZE)
            asm.syscall(SYS_HINT_SEG)

        system, process = run_program(body, fs=make_populated_fs())
        assert system.stats.get("tip.hinted_blocks") == 1

    def test_hint_fd_seg(self):
        def body(asm):
            open_f0(asm)
            asm.mov(Reg.a0, Reg.s1)
            asm.li(Reg.a1, 0)
            asm.li(Reg.a2, 2 * BLOCK_SIZE)
            asm.syscall(SYS_HINT_FD_SEG)

        system, process = run_program(body, fs=make_populated_fs())
        assert system.stats.get("tip.hinted_blocks") == 2

    def test_hint_unknown_file_ignored(self):
        def body(asm):
            asm.data_asciiz("path", "missing")
            asm.la(Reg.a0, "path")
            asm.li(Reg.a1, 0)
            asm.li(Reg.a2, BLOCK_SIZE)
            asm.syscall(SYS_HINT_SEG)

        system, process = run_program(body)
        assert system.stats.get("tip.hinted_blocks") == 0
        assert system.stats.get("app.hint_calls_unresolvable") == 1

    def test_cancel_all_returns_count(self):
        def body(asm):
            open_f0(asm)
            asm.mov(Reg.a0, Reg.s1)
            asm.li(Reg.a1, 0)
            asm.li(Reg.a2, 3 * BLOCK_SIZE)
            asm.syscall(SYS_HINT_FD_SEG)
            asm.syscall(SYS_CANCEL_ALL)
            asm.mov(Reg.s0, Reg.v0)

        system, process = run_program(body, fs=make_populated_fs())
        assert process.original_thread.reg(Reg.s0) == 3


class TestMisc:
    def test_unknown_syscall_raises(self):
        def body(asm):
            asm.syscall(99)

        with pytest.raises(InvalidSyscall):
            run_program(body)

    def test_exit_code_recorded(self):
        def body(asm):
            asm.li(Reg.a0, 3)
            asm.syscall(1)  # SYS_EXIT

        system, process = run_program(body)
        assert process.exited
        assert process.exit_code == 3
