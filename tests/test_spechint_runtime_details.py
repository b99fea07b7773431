"""Focused tests of SpecProcessState internals: the speculative fd table,
user-space syscall emulation, the restart handshake, and peek-copy."""

import pytest

from repro.fs.filesystem import FileSystem
from repro.kernel.thread import ThreadState
from repro.params import BLOCK_SIZE
from repro.spechint.tool import SpecHintTool
from repro.vm.assembler import Assembler
from repro.vm.isa import (
    SEEK_CUR,
    SEEK_END,
    SEEK_SET,
    SYS_CANCEL_ALL,
    SYS_CLOSE,
    SYS_EXIT,
    SYS_FSTAT,
    SYS_LSEEK,
    SYS_OPEN,
    SYS_READ,
    SYS_SBRK,
    Reg,
)

from repro.vm.machine import SpeculationFault

from tests.conftest import make_system, small_system_config


def simple_fs():
    fs = FileSystem()
    fs.create("a", bytes(range(256)) * 64)  # 2 blocks
    fs.create("b", b"\x55" * BLOCK_SIZE)
    return fs


def spawn_spec(binary_builder, fs=None):
    """Spawn a transformed binary; returns (system, process) WITHOUT
    running, so tests can drive the runtime directly."""
    system = make_system(fs or simple_fs(), small_system_config())
    binary = SpecHintTool().transform(binary_builder())
    process = system.kernel.spawn(binary)
    return system, process


def trivial_binary():
    asm = Assembler("trivial")
    asm.data_space("buf", BLOCK_SIZE)
    asm.data_asciiz("path_a", "a")
    asm.entry("main")
    with asm.function("main"):
        asm.la(Reg.a0, "path_a")
        asm.syscall(SYS_OPEN)
        asm.mov(Reg.s1, Reg.v0)
        asm.mov(Reg.a0, Reg.s1)
        asm.la(Reg.a1, "buf")
        asm.li(Reg.a2, 64)
        asm.syscall(SYS_READ)
        asm.li(Reg.a0, 0)
        asm.syscall(SYS_EXIT)
    return asm.finish()


class TestBeforeRead:
    def test_first_read_requests_restart(self):
        system, process = spawn_spec(trivial_binary)
        spec = process.spec
        thread = process.original_thread
        fdstate = process.open_fd(system.fs.lookup("a"), "a")

        cost = spec.before_read(thread, fdstate.fd, 64)
        assert spec.restart_flag
        assert cost > system.config.cpu.hintlog_check_cycles
        assert process.spec_thread.state is ThreadState.RUNNABLE

    def test_matching_log_entry_keeps_on_track(self):
        system, process = spawn_spec(trivial_binary)
        spec = process.spec
        thread = process.original_thread
        inode = system.fs.lookup("a")
        fdstate = process.open_fd(inode, "a")

        spec.hint_log.append(inode.ino, 0, 64, hinted=True)
        cost = spec.before_read(thread, fdstate.fd, 64)
        assert not spec.restart_flag
        assert cost == system.config.cpu.hintlog_check_cycles

    def test_mismatching_entry_requests_restart(self):
        system, process = spawn_spec(trivial_binary)
        spec = process.spec
        thread = process.original_thread
        inode = system.fs.lookup("a")
        fdstate = process.open_fd(inode, "a")

        spec.hint_log.append(inode.ino, 512, 64, hinted=True)  # wrong offset
        spec.before_read(thread, fdstate.fd, 64)
        assert spec.restart_flag

    def test_throttle_suppresses_restart(self):
        system, process = spawn_spec(trivial_binary)
        spec = process.spec
        spec.gate.cancel_limit = 1
        spec.gate.disable_reads = 10
        spec.gate.on_cancel(5)
        thread = process.original_thread
        fdstate = process.open_fd(system.fs.lookup("a"), "a")
        spec.before_read(thread, fdstate.fd, 64)
        assert not spec.restart_flag


class TestPerformRestart:
    def _request_and_restart(self, system, process, length=64):
        spec = process.spec
        thread = process.original_thread
        thread.regs[int(Reg.sp)] = process.mem.stack_top - 64
        fdstate = process.open_fd(system.fs.lookup("a"), "a")
        spec.before_read(thread, fdstate.fd, length)
        cost = spec.perform_restart(process.spec_thread)
        return spec, fdstate, cost

    def test_restart_resumes_in_shadow(self):
        system, process = spawn_spec(trivial_binary)
        spec, fdstate, cost = self._request_and_restart(system, process)
        spec_thread = process.spec_thread
        meta = process.binary.spec_meta
        assert spec_thread.pc >= meta.shadow_base
        assert not spec.restart_flag
        assert cost >= spec.params.restart_fixed_cycles

    def test_restart_sets_predicted_return_value(self):
        system, process = spawn_spec(trivial_binary)
        spec, _, _ = self._request_and_restart(system, process, length=64)
        assert process.spec_thread.regs[int(Reg.v0)] == 64

    def test_restart_builds_spec_fd_table(self):
        system, process = spawn_spec(trivial_binary)
        spec, fdstate, _ = self._request_and_restart(system, process)
        sfd = spec.spec_fds[fdstate.fd]
        assert sfd.inode is fdstate.inode
        # Offset reflects the predicted completion of the blocked read.
        assert sfd.offset == 64

    def test_restart_copies_stack(self):
        system, process = spawn_spec(trivial_binary)
        spec, _, _ = self._request_and_restart(system, process)
        sp = process.spec_thread.regs[int(Reg.sp)]
        assert spec.cow.is_copied(sp)

    def test_restart_clears_cow_and_log(self):
        system, process = spawn_spec(trivial_binary)
        spec = process.spec
        spec.cow.store_word(process.mem.data_start, 1)
        spec.hint_log.append(1, 0, 1, hinted=True)
        self._request_and_restart(system, process)
        assert spec.cow.copied_regions >= 0  # cleared then stack re-copied
        assert spec.hint_log.unconsumed == 0


class TestSpecSyscalls:
    def _spec_thread(self, system, process):
        thread = process.spec_thread
        thread.pc = process.binary.spec_meta.shadow_base
        return thread

    def test_spec_open_creates_pseudo_fd(self):
        system, process = spawn_spec(trivial_binary)
        thread = self._spec_thread(system, process)
        path_addr = process.binary.data_symbols["path_a"]
        thread.regs[int(Reg.a0)] = path_addr
        process.spec.spec_syscall(thread, SYS_OPEN)
        fd = thread.regs[int(Reg.v0)]
        assert fd >= 1000  # pseudo-fd space
        assert process.spec.spec_fds[fd].pseudo
        assert fd not in process.fds  # invisible to the real fd table

    def test_spec_open_missing_returns_minus_one(self):
        system, process = spawn_spec(trivial_binary)
        thread = self._spec_thread(system, process)
        # Point at a NUL byte: empty path.
        process.mem.store_byte(process.mem.data_start + 4000, 0)
        thread.regs[int(Reg.a0)] = process.mem.data_start + 4000
        process.spec.spec_syscall(thread, SYS_OPEN)
        assert thread.regs[int(Reg.v0)] == (1 << 64) - 1

    def test_spec_open_of_a_non_ascii_path_returns_minus_one(self):
        system, process = spawn_spec(trivial_binary)
        thread = self._spec_thread(system, process)
        addr = process.mem.data_start + 4000
        process.mem.store_byte(addr, 0xC3)
        process.mem.store_byte(addr + 1, 0)
        thread.regs[int(Reg.a0)] = addr
        process.spec.spec_syscall(thread, SYS_OPEN)
        assert thread.regs[int(Reg.v0)] == (1 << 64) - 1

    def test_spec_hint_ioctls_go_to_the_kernel(self):
        system, process = spawn_spec(trivial_binary)
        thread = self._spec_thread(system, process)
        pc = thread.pc
        cycles = process.spec.spec_syscall(thread, SYS_CANCEL_ALL)
        assert cycles == system.kernel._sys_cancel_all(thread)  # the kernel's cost
        assert thread.pc == pc + 2
        assert thread.regs[int(Reg.v0)] == 0

    def test_spec_close_removes_fd(self):
        system, process = spawn_spec(trivial_binary)
        thread = self._spec_thread(system, process)
        thread.regs[int(Reg.a0)] = process.binary.data_symbols["path_a"]
        process.spec.spec_syscall(thread, SYS_OPEN)
        fd = thread.regs[int(Reg.v0)]
        thread.regs[int(Reg.a0)] = fd
        process.spec.spec_syscall(thread, SYS_CLOSE)
        assert fd not in process.spec.spec_fds

    def test_spec_lseek_and_fstat(self):
        system, process = spawn_spec(trivial_binary)
        thread = self._spec_thread(system, process)
        thread.regs[int(Reg.a0)] = process.binary.data_symbols["path_a"]
        process.spec.spec_syscall(thread, SYS_OPEN)
        fd = thread.regs[int(Reg.v0)]

        thread.regs[int(Reg.a0)] = fd
        thread.regs[int(Reg.a1)] = 128
        thread.regs[int(Reg.a2)] = SEEK_SET
        process.spec.spec_syscall(thread, SYS_LSEEK)
        assert process.spec.spec_fds[fd].offset == 128

        thread.regs[int(Reg.a0)] = fd
        process.spec.spec_syscall(thread, SYS_FSTAT)
        assert thread.regs[int(Reg.v0)] == system.fs.lookup("a").size

    @pytest.mark.parametrize("whence, offset, expected", [
        (SEEK_SET, 100, lambda size: 100),
        (SEEK_CUR, -50, lambda size: 78),
        (SEEK_CUR, -1000, lambda size: 0),
        (SEEK_END, -10, lambda size: size - 10),
        (SEEK_END, -(1 << 40), lambda size: 0),
    ])
    def test_spec_lseek_from_128_clamps_at_zero(self, whence, offset, expected):
        system, process = spawn_spec(trivial_binary)
        thread = self._spec_thread(system, process)
        thread.regs[int(Reg.a0)] = process.binary.data_symbols["path_a"]
        process.spec.spec_syscall(thread, SYS_OPEN)
        fd = thread.regs[int(Reg.v0)]
        for move, whence_ in ((128, SEEK_SET), (offset, whence)):
            thread.regs[int(Reg.a0)] = fd
            thread.regs[int(Reg.a1)] = move & ((1 << 64) - 1)
            thread.regs[int(Reg.a2)] = whence_
            process.spec.spec_syscall(thread, SYS_LSEEK)
        size = system.fs.lookup("a").size
        assert thread.regs[int(Reg.v0)] == expected(size)
        assert process.spec.spec_fds[fd].offset == expected(size)

    def test_spec_lseek_bad_whence_is_a_speculation_fault(self):
        system, process = spawn_spec(trivial_binary)
        thread = self._spec_thread(system, process)
        thread.regs[int(Reg.a0)] = process.binary.data_symbols["path_a"]
        process.spec.spec_syscall(thread, SYS_OPEN)
        thread.regs[int(Reg.a0)] = thread.regs[int(Reg.v0)]
        thread.regs[int(Reg.a1)] = 0
        thread.regs[int(Reg.a2)] = 3
        with pytest.raises(SpeculationFault, match="speculative lseek whence 3"):
            process.spec.spec_syscall(thread, SYS_LSEEK)

    @pytest.mark.parametrize("num, name", [(SYS_LSEEK, "lseek"), (SYS_FSTAT, "fstat")])
    def test_spec_call_on_an_unknown_fd_is_a_speculation_fault(self, num, name):
        system, process = spawn_spec(trivial_binary)
        thread = self._spec_thread(system, process)
        thread.regs[int(Reg.a0)] = 77
        with pytest.raises(SpeculationFault, match=f"speculative {name} on fd 77"):
            process.spec.spec_syscall(thread, num)

    def test_spec_sbrk_uses_private_heap(self):
        system, process = spawn_spec(trivial_binary)
        thread = self._spec_thread(system, process)
        old_brk = process.mem.brk
        thread.regs[int(Reg.a0)] = 4096
        process.spec.spec_syscall(thread, SYS_SBRK)
        assert process.mem.brk == old_brk  # process heap untouched
        assert process.mem.spec_brk > 0x0090_0000

    def test_forbidden_syscall_parks(self):
        system, process = spawn_spec(trivial_binary)
        thread = self._spec_thread(system, process)
        result = process.spec.spec_syscall(thread, SYS_OPEN + 90)
        assert result == -1
        assert thread.state is ThreadState.SPEC_IDLE

    def test_spec_exit_parks(self):
        system, process = spawn_spec(trivial_binary)
        thread = self._spec_thread(system, process)
        process.spec.spec_syscall(thread, SYS_EXIT)
        assert thread.state is ThreadState.SPEC_IDLE
        assert not process.exited  # real exit must not happen


class TestResolveControlTarget:
    def test_shadow_addresses_pass_through(self):
        system, process = spawn_spec(trivial_binary)
        meta = process.binary.spec_meta
        target = meta.shadow_base + 3
        assert process.spec.resolve_control_target(target) == target

    def test_function_entries_map(self):
        system, process = spawn_spec(trivial_binary)
        meta = process.binary.spec_meta
        entry = next(iter(meta.function_map))
        assert process.spec.resolve_control_target(entry) == \
            meta.function_map[entry]

    def test_mid_function_addresses_unmappable(self):
        system, process = spawn_spec(trivial_binary)
        meta = process.binary.spec_meta
        mid = max(meta.function_map) + 1  # inside some function's body
        if mid not in meta.function_map and mid < meta.original_text_len:
            assert process.spec.resolve_control_target(mid) is None

    def test_wild_addresses_unmappable(self):
        system, process = spawn_spec(trivial_binary)
        assert process.spec.resolve_control_target(1 << 40) is None
