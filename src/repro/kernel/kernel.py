"""The kernel proper: scheduling loop and system call layer.

Scheduling is strict-priority preemptive, which is all the paper's design
asks of the OS: the speculating thread (priority 1) runs only when the
original thread (priority 10) is stalled on I/O.  With ``ncpus=2`` the
Section 5 multiprocessor extension is enabled: the speculating thread runs
on a second CPU, modelled by granting it a cycle *budget* equal to elapsed
wall time and interleaving its execution in fixed-size slices.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import FaultInjector

from repro.errors import BadFileDescriptor, InvalidSyscall, SimulationError
from repro.fs.filesystem import FileSystem, Inode
from repro.kernel.process import Process
from repro.kernel.thread import Thread, ThreadState
from repro.params import BLOCK_SIZE, HINT_CALL_CYCLES, NAMEI_CYCLES, SystemConfig
from repro.sim import metrics
from repro.sim.clock import SimClock
from repro.sim.engine import EventEngine
from repro.sim.stats import StatRegistry
from repro.spechint.runtime import SpecProcessState
from repro.storage.striping import StripedArray
from repro.trace.tracer import (
    CAT_KERNEL,
    CAT_SCHED,
    NULL_TRACER,
    TID_ORIGINAL,
    TID_SPECULATING,
    Tracer,
)
from repro.tip.manager import TipManager
from repro.vm.isa import (
    SYS_CANCEL_ALL,
    SYS_CLOSE,
    SYS_EXIT,
    SYS_FSTAT,
    SYS_HINT_FD_SEG,
    SYS_HINT_SEG,
    SYS_LSEEK,
    SYS_OPEN,
    SYS_READ,
    SYS_SBRK,
    SYS_WRITE,
    SYSCALL_NAMES,
    Reg,
    seek_offset,
    to_signed,
)
from repro.vm.machine import Machine

_STOPPED = -1

#: Multiprocessor-mode interleave slice, in cycles.
MP_SLICE = 32_768

#: Cycles per byte for write() data copies (write-behind: no disk wait).
WRITE_COPY_CYCLES_PER_BYTE = 0.5

V0 = int(Reg.v0)
A0 = int(Reg.a0)
A1 = int(Reg.a1)
A2 = int(Reg.a2)
A3 = int(Reg.a3)


class Kernel:
    """Owns processes, the machine, and the system call table."""

    def __init__(
        self,
        config: SystemConfig,
        fs: FileSystem,
        manager: TipManager,
        array: StripedArray,
        engine: EventEngine,
        clock: SimClock,
        stats: StatRegistry,
        injector: Optional["FaultInjector"] = None,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        self.config = config
        self.fs = fs
        self.manager = manager
        self.array = array
        self.engine = engine
        self.clock = clock
        self.stats = stats
        #: Fault oracle shared with the storage stack; None = fault-free.
        self.injector = injector
        #: Event tracer (the shared NULL_TRACER when tracing is off).
        self.tracer = tracer
        self.machine = Machine(self)
        self.processes: List[Process] = []
        self._next_pid = 1
        self._last_thread: Optional[Thread] = None

        self._syscalls = {
            SYS_EXIT: self._sys_exit,
            SYS_OPEN: self._sys_open,
            SYS_CLOSE: self._sys_close,
            SYS_READ: self._sys_read,
            SYS_WRITE: self._sys_write,
            SYS_LSEEK: self._sys_lseek,
            SYS_FSTAT: self._sys_fstat,
            SYS_SBRK: self._sys_sbrk,
            SYS_HINT_SEG: self._sys_hint_seg,
            SYS_HINT_FD_SEG: self._sys_hint_fd_seg,
            SYS_CANCEL_ALL: self._sys_cancel_all,
        }

    # -- process management -----------------------------------------------------

    def spawn(self, binary) -> Process:
        """Create a process for ``binary``.

        If the binary is a SpecHint speculating executable (it carries
        ``spec_meta``), the SpecHint initialization routine is modelled:
        its cycle cost is charged to the original thread and the
        speculating thread is created (idle until the first restart).
        """
        process = Process(self._next_pid, binary)
        self._next_pid += 1
        self.processes.append(process)

        spec_meta = getattr(binary, "spec_meta", None)
        if spec_meta is not None:
            spec_thread = process.add_spec_thread()
            process.spec = SpecProcessState(self, process, spec_thread, spec_meta)
            process.original_thread.pending_cost += self.config.cpu.spec_init_cycles
        return process

    # -- run loops ------------------------------------------------------------------

    def run(self, cycle_limit: int = 1 << 52) -> None:
        """Run until every process has exited."""
        if self.config.ncpus >= 2:
            self._run_mp(cycle_limit)
        else:
            self._run_up(cycle_limit)
        self.stats.bump(metrics.KERNEL_RUNS)

    def _alive(self) -> bool:
        return any(not p.exited for p in self.processes)

    def _run_up(self, cycle_limit: int) -> None:
        while self._alive():
            if self.clock.now > cycle_limit:
                raise SimulationError(f"cycle limit {cycle_limit} exceeded")
            thread = self._pick_thread()
            if thread is None:
                if not self.engine.advance_to_next():
                    raise SimulationError(
                        "deadlock: no runnable threads and no pending events"
                    )
                continue
            self._charge_switch(thread)
            # Cap execution at the cycle limit so runaway programs (no
            # events pending) still return control to this loop.
            self.machine.execute(thread, until=cycle_limit + 1)
            self.engine.dispatch_due()

    def _run_mp(self, cycle_limit: int) -> None:
        """Two CPUs: the speculating thread consumes a budget equal to wall
        time, interleaved with normal execution in MP_SLICE chunks."""
        budget = 0
        last_grant = self.clock.now
        while self._alive():
            if self.clock.now > cycle_limit:
                raise SimulationError(f"cycle limit {cycle_limit} exceeded")
            now = self.clock.now
            budget += now - last_grant
            last_grant = now

            original = self._pick_thread(spec_ok=False)
            if original is not None:
                self._charge_switch(original)
                self.machine.execute(original, until=now + MP_SLICE)
                self.engine.dispatch_due()
                continue

            spec_thread = self._pick_thread(spec_only=True)
            if spec_thread is not None and budget > 0:
                self.machine.execute(spec_thread, budget=budget)
                left = spec_thread.pending_budget
                budget = left if left is not None and left > 0 else 0
                self.engine.dispatch_due()
                continue

            if not self.engine.advance_to_next():
                raise SimulationError(
                    "deadlock: no runnable threads and no pending events"
                )

    def _pick_thread(
        self, spec_ok: bool = True, spec_only: bool = False
    ) -> Optional[Thread]:
        best: Optional[Thread] = None
        for process in self.processes:
            if process.exited:
                continue
            for thread in process.threads:
                if thread.state is not ThreadState.RUNNABLE:
                    continue
                if spec_only and not thread.is_spec:
                    continue
                if not spec_ok and thread.is_spec:
                    continue
                if best is None or thread.priority > best.priority:
                    best = thread
        return best

    def _charge_switch(self, thread: Thread) -> None:
        if self._last_thread is not thread and self._last_thread is not None:
            self.clock.advance(self.config.cpu.context_switch_cycles)
            self.stats.bump(metrics.KERNEL_CONTEXT_SWITCHES)
            if self.tracer.enabled:
                self.tracer.instant(
                    CAT_SCHED, "ctx_switch",
                    tid=TID_SPECULATING if thread.is_spec else TID_ORIGINAL,
                    to_thread=thread.name,
                )
        self._last_thread = thread

    # -- syscall dispatch ---------------------------------------------------------------

    def syscall(self, thread: Thread, num: int) -> int:
        """Dispatch a system call.  Returns the cycle cost, or -1 when the
        kernel already charged the clock and stopped the thread."""
        handler = self._syscalls.get(num)
        if handler is None:
            raise InvalidSyscall(f"syscall {num} at pc={thread.pc}")
        if self.tracer.enabled:
            self.tracer.instant(
                CAT_KERNEL, f"sys.{SYSCALL_NAMES.get(num, num)}",
                tid=TID_SPECULATING if thread.is_spec else TID_ORIGINAL,
                pid=thread.process.pid,
            )
        return handler(thread)

    def handle_exit(self, thread: Thread, code: int) -> int:
        thread.process.exit(code)
        thread.stop_reason = "exited"
        return _STOPPED

    # -- individual syscalls ------------------------------------------------------------------

    def _sys_exit(self, thread: Thread) -> int:
        return self.handle_exit(thread, to_signed(thread.regs[A0]))

    def _sys_open(self, thread: Thread) -> int:
        proc = thread.process
        path = proc.mem.read_cstring(thread.regs[A0]).decode("ascii")
        inode = self.fs.lookup_or_none(path)
        if inode is None:
            thread.regs[V0] = (1 << 64) - 1  # -1
        else:
            fdstate = proc.open_fd(inode, path)
            thread.regs[V0] = fdstate.fd
        self.stats.bump(metrics.APP_OPEN_CALLS)
        thread.pc += 1
        return self.config.cpu.syscall_cycles + NAMEI_CYCLES

    def _sys_close(self, thread: Thread) -> int:
        proc = thread.process
        fd_num = thread.regs[A0]
        try:
            proc.close_fd(fd_num)
            thread.regs[V0] = 0
        except BadFileDescriptor:
            thread.regs[V0] = (1 << 64) - 1
        thread.pc += 1
        return self.config.cpu.syscall_cycles

    def _sys_read(self, thread: Thread) -> int:
        proc = thread.process
        cpu = self.config.cpu
        fd_num = thread.regs[A0]
        buf = thread.regs[A1]
        length = thread.regs[A2]
        cost = cpu.syscall_cycles
        self.stats.bump(metrics.APP_READ_CALLS)
        if not thread.is_spec:
            self.stats.distribution(metrics.APP_READ_CALL_CPU).observe(thread.cpu_cycles)

        # SpecHint hook: the original thread of a transformed application
        # checks the hint log (and may request a speculation restart)
        # *before* issuing the read request (Section 3.2.2).
        if proc.spec is not None and not thread.is_spec:
            cost += proc.spec.before_read(thread, fd_num, length)

        fdstate = proc.fd(fd_num)
        inode = fdstate.inode
        if inode is None:
            if not thread.is_spec:
                proc.read_trace.append((-1, 0, length))
            thread.regs[V0] = 0
            thread.pc += 1
            return cost

        offset = fdstate.offset
        # Demand-read trace (zero cycles, original thread only): the
        # differential oracle compares this sequence across spec-on/off.
        if not thread.is_spec:
            proc.read_trace.append((inode.ino, offset, length))
        n = min(length, max(0, inode.size - offset))
        if n <= 0:
            thread.regs[V0] = 0
            thread.pc += 1
            return cost

        first = offset // BLOCK_SIZE
        last = (offset + n - 1) // BLOCK_SIZE
        self.stats.bump(metrics.APP_READ_BLOCKS, last - first + 1)
        self.stats.bump(metrics.APP_READ_BYTES, n)
        hinted = self.manager.consume_hints(proc.pid, inode, first, last, n)
        copy_cost = int(n * cpu.read_copy_cycles_per_byte)

        def finish() -> None:
            proc.mem.write_bytes(buf, inode.read_at(offset, n))
            reclaims, faults = proc.vmstat.touch_range(buf, n)
            thread.pending_cost += (
                reclaims * cpu.page_reclaim_cycles + faults * cpu.page_fault_cycles
            )
            fdstate.offset = offset + n
            self.manager.read_call_completed(
                proc.pid, fdstate.ra_state, inode, first, last, hinted
            )
            thread.regs[V0] = n
            thread.pc += 1

        def on_ready() -> None:
            thread.pending_io -= 1
            if thread.pending_io == 0:
                if not thread.is_spec:
                    stall = self.clock.now - thread.blocked_at
                    self.stats.bump(metrics.KERNEL_DEMAND_STALL_CYCLES, stall)
                    if self.tracer.enabled:
                        self.tracer.complete(
                            CAT_KERNEL, "read.stall", thread.blocked_at, stall,
                            tid=TID_ORIGINAL, pid=proc.pid, ino=inode.ino,
                        )
                finish()
                thread.wake(extra_cost=copy_cost)

        thread.pending_io = 0
        for file_block in range(first, last + 1):
            if not self.manager.access_block(inode, file_block, on_ready):
                thread.pending_io += 1

        if thread.pending_io == 0:
            finish()
            return cost + copy_cost

        self.stats.bump(metrics.APP_READ_STALLS)
        thread.block()
        thread.stop_reason = "blocked"
        thread.cpu_cycles += cost
        self.clock.advance(cost)
        # The stall interval starts once the syscall's own CPU cost is paid.
        thread.blocked_at = self.clock.now
        return _STOPPED

    def _sys_write(self, thread: Thread) -> int:
        proc = thread.process
        fd_num = thread.regs[A0]
        buf = thread.regs[A1]
        length = thread.regs[A2]
        payload = proc.mem.read_bytes(buf, length)
        fdstate = proc.fd(fd_num)
        self.stats.bump(metrics.APP_WRITE_CALLS)
        self.stats.bump(metrics.APP_WRITE_BYTES, length)
        if fdstate.inode is None:
            proc.output.extend(payload)
        else:
            start_block = fdstate.offset // BLOCK_SIZE
            end_block = (fdstate.offset + max(0, length - 1)) // BLOCK_SIZE
            self.stats.bump(metrics.APP_WRITE_BLOCKS, end_block - start_block + 1)
            fdstate.inode.write_at(fdstate.offset, payload)
            fdstate.offset += length
        thread.regs[V0] = length
        thread.pc += 1
        # Write-behind buffering: the data copy is the only latency.
        return self.config.cpu.syscall_cycles + int(
            length * WRITE_COPY_CYCLES_PER_BYTE
        )

    def _sys_lseek(self, thread: Thread) -> int:
        proc = thread.process
        fdstate = proc.fd(thread.regs[A0])
        size = fdstate.inode.size if fdstate.inode is not None else 0
        new = seek_offset(fdstate.offset, size, to_signed(thread.regs[A1]), thread.regs[A2])
        if new is None:
            raise InvalidSyscall(f"lseek whence {thread.regs[A2]}")
        fdstate.offset = new
        thread.regs[V0] = fdstate.offset
        thread.pc += 1
        return self.config.cpu.syscall_cycles

    def _sys_fstat(self, thread: Thread) -> int:
        proc = thread.process
        fdstate = proc.fd(thread.regs[A0])
        thread.regs[V0] = fdstate.inode.size if fdstate.inode is not None else 0
        thread.pc += 1
        return self.config.cpu.syscall_cycles

    def _sys_sbrk(self, thread: Thread) -> int:
        proc = thread.process
        thread.regs[V0] = proc.mem.sbrk(thread.regs[A0])
        thread.pc += 1
        return self.config.cpu.syscall_cycles

    # -- hint ioctls (Table 2) ------------------------------------------------------------

    def hint_from(
        self,
        pid: int,
        inode: Optional[Inode],
        offset: int,
        length: int,
    ) -> int:
        """Issue one hint segment to TIP (used both by the hint syscalls
        and by the SpecHint runtime).  Returns the blocks TIP queued.

        The hint channel is lossy under fault injection (hints may be
        dropped or rewritten to garbage), and TIP must tolerate whatever
        arrives: this is the one place a segment is counted, validated and
        clamped to the file before it reaches the manager.  Hints are pure
        advice — losing or mangling one can only degrade toward the
        unhinted baseline.
        """
        self.stats.bump(metrics.APP_HINT_CALLS)
        if inode is None or length <= 0:
            self.stats.bump(metrics.APP_HINT_CALLS_UNRESOLVABLE)
            return 0

        if self.injector is not None:
            delivered = self.injector.filter_hint(inode, offset, length)
            if delivered is None:
                return 0  # lost in the channel; the caller never knows
            offset, length = delivered

        # Defensive validation: garbage offsets/lengths must not crash TIP.
        if offset < 0 or offset >= inode.size or length <= 0:
            self.stats.bump(metrics.APP_HINT_CALLS_UNRESOLVABLE)
            return 0
        length = min(length, inode.size - offset)
        return self.manager.disclose(pid, inode, offset, length)

    def _sys_hint_seg(self, thread: Thread) -> int:
        """TIPIO_SEG: hint a segment of a named file."""
        proc = thread.process
        path = proc.mem.read_cstring(thread.regs[A0]).decode("ascii", "replace")
        inode = self.fs.lookup_or_none(path)
        self.hint_from(proc.pid, inode, thread.regs[A1], thread.regs[A2])
        thread.regs[V0] = 0
        thread.pc += 1
        return self.config.cpu.syscall_cycles + HINT_CALL_CYCLES

    def _sys_hint_fd_seg(self, thread: Thread) -> int:
        """TIPIO_FD_SEG: hint a segment of an open file."""
        proc = thread.process
        try:
            fdstate = proc.fd(thread.regs[A0])
            inode = fdstate.inode
        except BadFileDescriptor:
            inode = None
        self.hint_from(proc.pid, inode, thread.regs[A1], thread.regs[A2])
        thread.regs[V0] = 0
        thread.pc += 1
        return self.config.cpu.syscall_cycles + HINT_CALL_CYCLES

    def _sys_cancel_all(self, thread: Thread) -> int:
        cancelled = self.manager.cancel_all(thread.process.pid)
        thread.regs[V0] = cancelled
        thread.pc += 1
        return self.config.cpu.syscall_cycles + HINT_CALL_CYCLES
