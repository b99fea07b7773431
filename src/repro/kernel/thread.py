"""Kernel threads.

Two priorities exist in practice: the original application thread (high)
and the speculating thread (low).  The paper's design requires that "the
speculating thread only executes when the original thread is stalled",
enforced by strict priority scheduling — implemented in the kernel's run
loop.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Callable, List, Optional

from repro.vm.isa import NUM_REGS, Reg

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.process import Process


class ThreadState(enum.Enum):
    RUNNABLE = "runnable"
    BLOCKED = "blocked"          # waiting on I/O
    SPEC_IDLE = "spec_idle"      # speculation halted, waiting for a restart
    EXITED = "exited"


#: Priorities (bigger = more important).
PRIO_ORIGINAL = 10
PRIO_SPECULATING = 1


class Thread:
    """One kernel thread of a simulated process."""

    __slots__ = (
        "tid",
        "name",
        "process",
        "priority",
        "is_spec",
        "regs",
        "pc",
        "state",
        "stop_reason",
        "cwork_remaining",
        "pending_cost",
        "pending_io",
        "on_io_complete",
        "poll_counter",
        "spec_clock",
        "pending_budget",
        "cpu_cycles",
        "blocked_at",
    )

    def __init__(
        self,
        tid: int,
        name: str,
        process: "Process",
        priority: int,
        is_spec: bool = False,
    ) -> None:
        self.tid = tid
        self.name = name
        self.process = process
        self.priority = priority
        self.is_spec = is_spec

        self.regs: List[int] = [0] * NUM_REGS
        self.pc: int = 0
        self.state = ThreadState.RUNNABLE
        #: Why the machine stopped executing this thread (for the kernel).
        self.stop_reason: str = ""
        #: Unfinished CWORK cycles (interruptible computation).
        self.cwork_remaining: int = 0
        #: Cycles to charge before the next instruction (e.g. the data-copy
        #: cost of a read that completed while the thread was blocked).
        self.pending_cost: int = 0
        #: Outstanding block fetches this thread is blocked on.
        self.pending_io: int = 0
        #: Deferred completion action run when pending_io reaches zero.
        self.on_io_complete: Optional[Callable[[], None]] = None
        #: Instruction counter for the speculating thread's restart-flag poll.
        self.poll_counter: int = 0
        #: Local time of the speculating thread in multiprocessor mode.
        self.spec_clock: int = 0
        #: Machine-internal budget bookkeeping (multiprocessor mode).
        self.pending_budget: Optional[int] = None
        #: CPU time this thread has consumed (excludes blocked time) —
        #: used for the paper's cycles-between-calls statistics.
        self.cpu_cycles: int = 0
        #: Clock reading when this thread last blocked on I/O — the kernel
        #: charges the blocked interval to the demand-stall phase at wakeup.
        self.blocked_at: int = 0

    # -- register helpers ---------------------------------------------------

    def reg(self, r: Reg) -> int:
        return self.regs[int(r)]

    @property
    def runnable(self) -> bool:
        return self.state is ThreadState.RUNNABLE

    def block(self) -> None:
        self.state = ThreadState.BLOCKED

    def wake(self, extra_cost: int = 0) -> None:
        """Make the thread runnable again, charging ``extra_cost`` cycles
        before its next instruction."""
        if self.state is ThreadState.EXITED:
            return
        self.state = ThreadState.RUNNABLE
        self.pending_cost += extra_cost

    def exit(self) -> None:
        self.state = ThreadState.EXITED

    def snapshot_regs(self) -> List[int]:
        """Copy of the register file (used for speculation restarts)."""
        return list(self.regs)

    def load_regs(self, saved: List[int]) -> None:
        self.regs = list(saved)
