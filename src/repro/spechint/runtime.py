"""Per-process SpecHint runtime (Sections 3.2.1 and 3.2.2).

This module is the runtime half of the contribution: everything the
SpecHint auxiliary objects do in the paper.

Original-thread side (called from the kernel's read path):

* check the next hint log entry before each read (cheap, observable cost);
* on a mismatch or an empty log, save the registers and set the restart
  flag *before* issuing the read, so the speculating thread can restart
  while the original thread is stalled.

Speculating-thread side (called from the machine's shadow opcodes):

* ``SPEC_READ`` — append a prediction to the hint log, issue a TIP hint
  for data-returning reads, copy any already-cached bytes into the (COW)
  destination buffer, and continue without blocking;
* ``SPEC_SYSCALL`` — enforce the paper's side-effect rules: fstat/sbrk and
  the hint ioctls are allowed; open/close/lseek are emulated in user space
  against a *speculative fd table*; writes are suppressed; anything else
  parks speculation;
* restart protocol — cancel outstanding hints (``TIPIO_CANCEL_ALL``),
  clear the COW map, copy the original thread's stack, load the saved
  registers, and jump to the shadow instruction after the blocking read;
* signals — faults during speculation are counted and park the thread
  until the next restart.

The speculative fd table is how hints can be generated for files the
original thread has not opened yet (Agrep's whole benefit depends on it):
a speculative ``open`` binds a pseudo-fd to the named file, and speculative
reads on pseudo-fds issue ``TIPIO_SEG`` (by name) hints, while reads on
inherited real fds issue ``TIPIO_FD_SEG`` hints.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.errors import IsolationViolation
from repro.fs.filesystem import Inode
from repro.params import BLOCK_SIZE, HINT_CALL_CYCLES, NAMEI_CYCLES
from repro.sim import metrics
from repro.trace.tracer import CAT_SPEC, TID_ORIGINAL, TID_SPECULATING
from repro.spechint.auditor import IsolationAuditor
from repro.spechint.cow import CowMap
from repro.spechint.gate import HOLD, RESTART, SUSPEND, SpeculationGate
from repro.spechint.hintlog import HintLog
from repro.spechint.tool import SpecMeta
from repro.vm.isa import (
    SYS_CANCEL_ALL,
    SYS_CLOSE,
    SYS_EXIT,
    SYS_FSTAT,
    SYS_HINT_FD_SEG,
    SYS_HINT_SEG,
    SYS_LSEEK,
    SYS_OPEN,
    SYS_SBRK,
    SYS_WRITE,
    Reg,
    seek_offset,
    to_signed,
)
from repro.vm.machine import SpeculationFault

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.kernel import Kernel
    from repro.kernel.process import Process
    from repro.kernel.thread import Thread

_STOPPED = -1

V0 = int(Reg.v0)
A0 = int(Reg.a0)
A1 = int(Reg.a1)
A2 = int(Reg.a2)
SP = int(Reg.sp)

#: First pseudo file descriptor handed out by speculative open().
FIRST_PSEUDO_FD = 1000

#: Cycles for the cheap bookkeeping around each speculative read.
SPEC_READ_BASE_CYCLES = 80


class SpecFd:
    """Speculating thread's view of one file descriptor."""

    __slots__ = ("inode", "offset", "pseudo", "path")

    def __init__(self, inode: Optional[Inode], offset: int, pseudo: bool, path: str) -> None:
        self.inode = inode
        self.offset = offset
        #: True when this fd exists only speculatively (spec open()).
        self.pseudo = pseudo
        self.path = path


class SpecProcessState:
    """All SpecHint state of one transformed process."""

    def __init__(
        self,
        kernel: "Kernel",
        process: "Process",
        spec_thread: "Thread",
        meta: SpecMeta,
    ) -> None:
        self.kernel = kernel
        self.process = process
        self.thread = spec_thread
        self.meta = meta
        self.params = meta.params

        #: The isolation auditor observes; the gate is the response.
        self.auditor = IsolationAuditor(process)
        self.cow = CowMap(process.mem, meta.params, vmstat=process.vmstat,
                          auditor=self.auditor, stats=kernel.stats,
                          tracer=kernel.tracer)
        self.hint_log = HintLog()
        #: Every reason speculation may not run or restart: watchdog trips,
        #: degraded-mode suspension, isolation quarantine, the throttle.
        self.gate = SpeculationGate(meta.params, kernel.stats, kernel.tracer,
                                    self.auditor.table, self._disable_speculation)

        #: Restart handshake (Section 3.2.2).
        self.restart_flag = False
        self._saved_regs: Optional[List[int]] = None
        self._saved_resume_pc = 0  # original-text index after the read
        self._saved_read_fd = -1
        self._saved_read_offset = 0
        self._saved_read_n = 0

        #: Speculative fd table.
        self.spec_fds: Dict[int, SpecFd] = {}
        self._next_pseudo_fd = FIRST_PSEUDO_FD

        #: Hint-log predictions, hinted or not.  Restarts, signals, cancel
        #: calls and hints issued are counted in the stat registry alone.
        self.predictions = 0

    # ------------------------------------------------- original-thread side

    def before_read(self, thread: "Thread", fd_num: int, length: int) -> int:
        """Hint-log check before the original thread issues a read.

        Returns the (observable) cycle cost.  The whole cost — check plus
        any restart request — is the "checks" phase of the stall breakdown.
        """
        cost = self._before_read_inner(thread, fd_num, length)
        self.kernel.stats.bump(metrics.SPEC_CHECK_CYCLES, cost)
        return cost

    def _before_read_inner(self, thread: "Thread", fd_num: int, length: int) -> int:
        cpu = self.kernel.config.cpu
        cost = cpu.hintlog_check_cycles
        fdstate = self.process.fds.get(fd_num)
        ino = fdstate.inode.ino if fdstate is not None and fdstate.inode else -1
        offset = fdstate.offset if fdstate is not None else 0

        verdict = self.gate.on_read(
            self.kernel.array.degraded,
            lambda: self._check_hint_log(ino, offset, length),
        )
        if verdict == HOLD:
            self._capture_boundary()
        elif verdict == SUSPEND:
            # Degraded-mode load shedding: the spec thread benches itself
            # at its next poll of the flag.
            self.restart_flag = True
        if verdict != RESTART:
            return cost

        # Off track (strayed or behind): request a restart.
        cost += cpu.restart_request_cycles
        self._saved_regs = thread.snapshot_regs()
        self._saved_resume_pc = thread.pc + 1
        self._saved_read_fd = fd_num
        self._saved_read_offset = offset
        if fdstate is not None and fdstate.inode is not None:
            self._saved_read_n = min(length, max(0, fdstate.inode.size - offset))
        else:
            self._saved_read_n = 0
        self.restart_flag = True
        self.kernel.stats.bump(metrics.SPEC_RESTART_REQUESTS)
        self._capture_boundary()
        self._wake_spec_thread()
        return cost

    def _check_hint_log(self, ino: int, offset: int, length: int) -> bool:
        """Does the next hint-log entry predict this read?"""
        matched = self.hint_log.check_and_consume(ino, offset, length)
        injector = self.kernel.injector
        if matched and injector is not None and injector.force_divergence():
            # Wrong-path exercise: the check is forced to judge speculation
            # off track even though the entry matched (restart-storm chaos).
            matched = False

        tracer = self.kernel.tracer
        if tracer.enabled:
            tracer.instant(
                CAT_SPEC,
                "hint_check.match" if matched else "hint_check.divergence",
                tid=TID_ORIGINAL, ino=ino, offset=offset, length=length,
            )
        return matched

    def _capture_boundary(self) -> None:
        """Snapshot the restart boundary at this read call, when a restart
        can consume it.  The last capture before a restart is the blocking
        read itself, so the speculating thread verifies against exactly the
        state the original thread stalled with.

        Only a read that finds ``restart_flag`` set (a restart requested at
        this read or an earlier one and not yet performed) can be the last
        read before a verify: the flag is set only by a restart request,
        which captures, and by a degraded-mode suspension, which parks the
        restart until a later read resumes it and reaches this call.  A
        matched or throttled read with the flag clear would be overwritten
        before any verify, so it takes no snapshot.
        """
        if self.restart_flag:
            self.auditor.capture_boundary(self._saved_regs)

    def _wake_spec_thread(self) -> None:
        from repro.kernel.thread import ThreadState

        if self.gate.closed:
            return
        thread = self.thread
        if thread.state is ThreadState.SPEC_IDLE:
            thread.state = ThreadState.RUNNABLE
            # Guarantee the restart-flag poll fires before any instruction
            # executes (the parked pc may point into the weeds).
            thread.poll_counter = self.params.restart_poll_interval
            thread.cwork_remaining = 0

    # ------------------------------------------------ speculating-thread side

    def perform_restart(self, thread: "Thread") -> int:
        """Restart speculation from the saved original-thread state.

        Returns the cycle cost (cancel call + COW clear + stack copy +
        register reload), charged to the speculating thread, or ``_STOPPED``
        when the gate parks speculation instead of restarting it.
        """
        self.restart_flag = False
        reason = self.gate.on_restart()
        if reason is not None:
            return self.park(thread, reason)

        # Isolation audit, *before* any saved state is consumed: the audit
        # chain must verify and the non-shadow state (fd bindings, heap
        # break, saved registers) must be exactly what the original thread
        # captured.  A violation raises and quarantines (see the machine's
        # IsolationViolation handler) without touching the original thread.
        self.auditor.verify_restart_boundary(self._saved_regs)

        stats = self.kernel.stats
        stats.bump(metrics.SPEC_RESTARTS)
        if self.kernel.tracer.enabled:
            self.kernel.tracer.instant(
                CAT_SPEC, "restart", tid=TID_SPECULATING,
                nth=stats.get(metrics.SPEC_RESTARTS),
                resume_pc=self._saved_resume_pc,
            )

        # Cancel outstanding hints (the CANCEL_ALL call added to TIP).
        cancelled = self.kernel.manager.cancel_all(self.process.pid)
        stats.bump(metrics.SPEC_CANCEL_CALLS)
        self.gate.on_cancel(cancelled)

        # The restart's safety depends on the cancel having drained the
        # hint queue: a leaked hint would keep prefetching down the
        # abandoned path while the log restarts from scratch.
        outstanding = self.kernel.manager.outstanding_hints(self.process.pid)
        if outstanding:
            raise IsolationViolation(
                f"TIPIO_CANCEL_ALL left {outstanding} hint(s) outstanding "
                f"before restart"
            )
        self.kernel.stats.bump(metrics.SPEC_CANCEL_DRAIN_VERIFIED)
        self.auditor.table.record("restart", f"cancelled={cancelled}")

        self.cow.clear()
        self.hint_log.reset()

        # Rebuild the speculative fd table from the real one, applying the
        # effect of the read the original thread is blocked on.
        self.spec_fds = {
            fd: SpecFd(state.inode, state.offset, False, state.path)
            for fd, state in self.process.fds.items()
            if state.inode is not None
        }
        saved_fd = self._saved_read_fd
        if saved_fd in self.spec_fds:
            resumed = self._saved_read_offset + self._saved_read_n
            if self.spec_fds[saved_fd].offset < resumed:
                self.spec_fds[saved_fd].offset = resumed

        if self._saved_regs is None:
            # No saved state (cannot normally happen: the flag is only set
            # by before_read, which saves first).  Park defensively.
            self.park(thread, "no_saved_state")
            return self.params.restart_fixed_cycles

        thread.load_regs(self._saved_regs)
        thread.regs[V0] = self._saved_read_n  # the read's (predicted) result
        thread.pc = self.meta.to_shadow(self._saved_resume_pc)
        thread.poll_counter = 0
        thread.cwork_remaining = 0

        # Copy the original thread's stack (pre-copied COW regions).
        sp = thread.regs[SP]
        stack_bytes = 0
        mem = self.process.mem
        if mem.stack_limit <= sp < mem.stack_top:
            # (sp == stack_top means an empty stack: nothing to copy, and
            # precopy_range rejects degenerate ranges by design.)
            stack_bytes = self.cow.precopy_range(sp, mem.stack_top - sp)

        cost = self.params.restart_fixed_cycles + int(
            stack_bytes * self.params.restart_stack_copy_cycles_per_byte
        )
        return cost

    def spec_read(self, thread: "Thread") -> int:
        """SPEC_READ: hint + predict + non-blocking data peek."""
        regs = thread.regs
        fd_num = regs[A0]
        buf = regs[A1]
        length = regs[A2]
        cost = SPEC_READ_BASE_CYCLES
        cpu = self.kernel.config.cpu

        sfd = self.spec_fds.get(fd_num)
        if sfd is None or sfd.inode is None:
            raise SpeculationFault(f"speculative read on unknown fd {fd_num}")

        inode = sfd.inode
        offset = sfd.offset
        n = min(length, max(0, inode.size - offset))

        # Record the prediction; the original thread matches on the
        # requested length at the same offset.
        hinted = n > 0
        self.hint_log.append(inode.ino, offset, length, hinted)
        self.predictions += 1

        if hinted:
            self.kernel.hint_from(self.process.pid, inode, offset, n)
            self.kernel.stats.bump(metrics.SPEC_HINTS_ISSUED)
            self.kernel.stats.distribution(metrics.APP_HINT_CALL_CPU).observe(
                thread.cpu_cycles
            )
            cost += cpu.syscall_cycles + HINT_CALL_CYCLES

            # Copy whatever is already cached into the (COW) buffer so that
            # speculation can follow data dependencies once the data has
            # arrived; uncached portions keep their stale contents.
            cost += self._peek_copy(inode, offset, n, buf)

        regs[V0] = n
        sfd.offset = offset + n
        thread.pc += 1
        return cost

    def _peek_copy(self, inode: Inode, offset: int, n: int, buf: int) -> int:
        """Copy cached blocks of [offset, offset+n) into the buffer copy."""
        cpu = self.kernel.config.cpu
        manager = self.kernel.manager
        cost = 0
        first = offset // BLOCK_SIZE
        last = (offset + n - 1) // BLOCK_SIZE
        for file_block in range(first, last + 1):
            cost += 4  # residency probe
            if not manager.peek_valid(inode, file_block):
                continue
            block_start = max(offset, file_block * BLOCK_SIZE)
            block_end = min(offset + n, (file_block + 1) * BLOCK_SIZE)
            payload = inode.read_at(block_start, block_end - block_start)
            cost += self.cow.write_bytes(buf + (block_start - offset), payload)
            cost += int(len(payload) * cpu.read_copy_cycles_per_byte)
        return cost

    def spec_syscall(self, thread: "Thread", num: int) -> int:
        """SPEC_SYSCALL: the side-effect filter of Section 3.2.1."""
        regs = thread.regs
        cpu = self.kernel.config.cpu

        if num == SYS_OPEN:
            # User-space emulation against the speculative fd table.
            path_bytes = self.cow.read_cstring(regs[A0])
            try:
                path = path_bytes.decode("ascii")
            except UnicodeDecodeError:
                path = ""
            inode = self.kernel.fs.lookup_or_none(path) if path else None
            if inode is None:
                regs[V0] = (1 << 64) - 1
            else:
                fd = self._next_pseudo_fd
                self._next_pseudo_fd += 1
                self.spec_fds[fd] = SpecFd(inode, 0, True, path)
                regs[V0] = fd
            thread.pc += 1
            return NAMEI_CYCLES // 4  # user-space lookup, no trap

        if num == SYS_CLOSE:
            self.spec_fds.pop(regs[A0], None)
            regs[V0] = 0
            thread.pc += 1
            return 8

        if num == SYS_LSEEK:
            sfd = self.spec_fds.get(regs[A0])
            if sfd is None:
                raise SpeculationFault(f"speculative lseek on fd {regs[A0]}")
            size = sfd.inode.size if sfd.inode else 0
            new = seek_offset(sfd.offset, size, to_signed(regs[A1]), regs[A2])
            if new is None:
                raise SpeculationFault(f"speculative lseek whence {regs[A2]}")
            sfd.offset = new
            regs[V0] = sfd.offset
            thread.pc += 1
            return 8

        if num == SYS_FSTAT:
            # Allowed real system call.
            sfd = self.spec_fds.get(regs[A0])
            if sfd is None or sfd.inode is None:
                raise SpeculationFault(f"speculative fstat on fd {regs[A0]}")
            regs[V0] = sfd.inode.size
            thread.pc += 1
            return cpu.syscall_cycles

        if num == SYS_SBRK:
            # Allowed, but served by the SpecHint allocator (private heap,
            # so speculation cannot leak process memory).
            try:
                regs[V0] = self.process.mem.spec_sbrk(regs[A0])
            except Exception as exc:
                raise SpeculationFault(f"speculative sbrk failed: {exc}") from exc
            thread.pc += 1
            return cpu.syscall_cycles

        if num == SYS_WRITE:
            # Suppressed: pretend success, produce no side effect.  The
            # suppression itself is a recorded, auditable event.
            regs[V0] = regs[A2]
            thread.pc += 1
            self.auditor.table.record(
                "write_suppressed", f"fd={regs[A0]} len={regs[A2]}"
            )
            return 4

        if num in (SYS_HINT_SEG, SYS_HINT_FD_SEG, SYS_CANCEL_ALL):
            # Hint ioctls are always allowed; route through the kernel.
            return self.kernel.syscall(thread, num)

        if num == SYS_EXIT:
            return self.park(thread, "spec_exit")

        # Any other system call would be an externally visible side effect.
        self.auditor.table.record("syscall_blocked", f"num={num}")
        return self.park(thread, "forbidden_syscall")

    # -------------------------------------------------------- control transfers

    def resolve_control_target(self, target: int) -> Optional[int]:
        """The handling routine for dynamically computed control transfers.

        Shadow addresses pass through; original-text *function entries* map
        to their shadow twins; anything else is unmappable (unless the
        ``map_all_addresses`` extension is enabled) and the speculating
        thread must be prevented from leaving the shadow code.
        """
        meta = self.meta
        shadow_lo = meta.shadow_base
        shadow_hi = meta.shadow_base + meta.original_text_len
        if shadow_lo <= target < shadow_hi:
            return target
        mapped = meta.function_map.get(target)
        if mapped is not None:
            return mapped
        if meta.map_all_addresses and 0 <= target < meta.original_text_len:
            return meta.to_shadow(target)
        return None

    # ------------------------------------------------------- isolation response

    def quarantine(self, thread: "Thread", violation: IsolationViolation) -> int:
        """Graded response to an isolation violation: the gate quarantines
        speculation, its outstanding hints are cancelled and the speculating
        thread parks.  The original thread and its memory are never touched
        — the run continues with baseline correctness, minus hinting."""
        self.restart_flag = False
        self.gate.on_violation(str(violation))
        cancelled = self.kernel.manager.cancel_all(self.process.pid)
        if cancelled:
            self.kernel.stats.bump(metrics.SPEC_QUARANTINE_HINTS_CANCELLED,
                                   cancelled)
        return self.park(thread, "isolation_quarantine")

    # ------------------------------------------------------------ park / signals

    def park(self, thread: "Thread", reason: str) -> int:
        """Halt speculation until the next restart."""
        from repro.kernel.thread import ThreadState

        thread.state = ThreadState.SPEC_IDLE
        thread.stop_reason = "spec_idle"
        self.kernel.stats.bump(metrics.SPEC_PARK_PREFIX + reason)
        if self.kernel.tracer.enabled:
            self.kernel.tracer.instant(
                CAT_SPEC, "park", tid=TID_SPECULATING, reason=reason,
            )
        return _STOPPED

    def note_signal(self, thread: "Thread") -> None:
        """A speculative fault became a signal (Section 3.2.1's handlers)."""
        from repro.kernel.thread import ThreadState

        self.kernel.stats.bump(metrics.SPEC_SIGNALS)
        if self.kernel.tracer.enabled:
            self.kernel.tracer.instant(CAT_SPEC, "signal", tid=TID_SPECULATING)
        thread.state = ThreadState.SPEC_IDLE
        thread.stop_reason = "spec_idle"
        self.gate.on_fault()

    def _disable_speculation(self) -> None:
        """Watchdog trip: fall back to vanilla execution for good.

        The speculating thread is parked permanently, the restart handshake
        is torn down, and outstanding hints are cancelled so TIP stops
        prefetching down a path nobody will follow.  The original thread is
        untouched — this is the paper's safety guarantee made operational:
        losing speculation costs performance, never correctness.
        """
        from repro.kernel.thread import ThreadState

        reason = self.gate.trip_reason or "unknown"
        self.restart_flag = False
        if self.thread.state in (ThreadState.RUNNABLE, ThreadState.SPEC_IDLE):
            self.thread.state = ThreadState.SPEC_IDLE
            self.thread.stop_reason = "spec_idle"
        cancelled = self.kernel.manager.cancel_all(self.process.pid)
        self.kernel.stats.bump(metrics.SPEC_WATCHDOG_DISABLED)
        self.kernel.stats.bump(metrics.SPEC_WATCHDOG_TRIP_PREFIX + reason)
        if cancelled:
            self.kernel.stats.bump(metrics.SPEC_WATCHDOG_HINTS_CANCELLED, cancelled)
        if self.kernel.tracer.enabled:
            self.kernel.tracer.instant(
                CAT_SPEC, "watchdog_disabled", tid=TID_SPECULATING, reason=reason,
            )
