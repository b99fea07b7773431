"""The SpecVM interpreter.

Executes one thread at a time against the shared simulation clock.  Two
execution modes:

* **normal mode** — every instruction's cycle cost advances the global
  clock; execution returns to the kernel when the thread blocks/exits or
  when the clock reaches the event engine's horizon (an I/O completion is
  due, and a higher-priority thread may preempt);
* **budget mode** — used for the Section 5 multiprocessor extension: the
  speculating thread runs on a second CPU, consuming a cycle *budget* equal
  to the wall time that has passed, without advancing the global clock.

In both modes every non-system instruction runs as code generated from its
one template in :mod:`repro.vm.blocks`: hot basic blocks as translated
straight-line code, charged once per block, and everything else — cold
code, a block that no longer fits before the preemption point, a pending
restart — one instruction at a time through the same template's single
step.  The two are indistinguishable from outside: same cycles, same
instruction counts, same state at every stop and at every fault.  Only the
system instructions (``HALT``, ``SYSCALL``, ``CWORK``/``SCWORK``, the
``SPEC_*`` ones) have handlers here.

Speculative execution faults (bad addresses, division by zero on garbage
data) are converted to simulated signals: the fault is counted and the
speculating thread parks until the next restart — the paper's
signal-handler design (Section 3.2.1).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.errors import ArithmeticFault, IsolationViolation, MachineFault
from repro.params import PAGE_SIZE
from repro.sim.clock import SimClock
from repro.sim.engine import EventEngine
from repro.trace.tracer import CAT_SCHED, TID_ORIGINAL, TID_SPECULATING
from repro.vm.blocks import HOT_ENTRIES, BlockLeave, BlockTable
from repro.vm.isa import BRANCH_COST, CALL_COST, SWITCH_COST, Insn, Op

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.kernel import Kernel
    from repro.kernel.process import Process
    from repro.kernel.thread import Thread


class SpeculationFault(Exception):
    """Raised internally when the speculating thread misbehaves (caught by
    the machine and converted to a simulated signal, never propagated)."""


#: Sentinel cost returned by handlers that stopped the thread.
_STOPPED = -1

#: Dynamic-handling-routine overhead for SPEC_JR / SPEC_CALLR / SPEC_SWITCH.
_HANDLER_COST = 24

#: What an instruction inside a translated block can raise.
_BLOCK_FAULTS = (SpeculationFault, MachineFault, IsolationViolation)


class Machine:
    """Interprets SpecVM instructions for the kernel."""

    def __init__(self, kernel: "Kernel") -> None:
        self.kernel = kernel
        self.clock: SimClock = kernel.clock
        self.engine: EventEngine = kernel.engine
        self._dispatch: List[Callable[["Thread", Insn], int]] = self._build_dispatch()
        #: Total instructions executed (all threads).
        self.instructions = 0
        #: Of those, the ones retired inside translated blocks, and the
        #: number of blocks this machine bound to a process — compiled now,
        #: or by an earlier run of the same program (see
        #: :mod:`repro.vm.blocks`).
        self.block_instructions = 0
        self.blocks_translated = 0
        self._block_tables: Dict["Process", BlockTable] = {}
        #: Cycle charges for page events (paper: speculation's memory
        #: side effects — reclaims and faults — cost real time).
        cpu = kernel.config.cpu
        self._page_event_cost = (0, cpu.page_reclaim_cycles, cpu.page_fault_cycles)

    # ------------------------------------------------------------------ run

    def execute(
        self,
        thread: "Thread",
        budget: Optional[int] = None,
        until: Optional[int] = None,
    ) -> str:
        """Run ``thread`` until it stops; returns the stop reason.

        Reasons: ``"event"`` (normal mode: the event horizon or the
        ``until`` time slice boundary arrived), ``"budget"`` (budget mode:
        budget exhausted), ``"blocked"``, ``"exited"``, ``"spec_idle"``
        (speculation parked).
        """
        spec = thread.process.spec if thread.is_spec else None
        if spec is not None:
            # Write containment: while the speculating thread holds the CPU,
            # every main-memory mutation is checked by the auditor.
            spec.auditor.arm(thread.process.mem)
        tracer = self.kernel.tracer
        slice_start = self.clock.now if tracer.enabled else 0
        try:
            return self._run_inner(thread, budget, until)
        except SpeculationFault:
            self._spec_signal(thread)
            return "spec_idle"
        except IsolationViolation as exc:
            if spec is not None:
                spec.quarantine(thread, exc)
                return "spec_idle"
            raise
        finally:
            if spec is not None:
                spec.auditor.disarm(thread.process.mem)
            if tracer.enabled:
                # One span per scheduling slice that advanced the clock.
                # Budget-mode (second-CPU) speculation leaves the global
                # clock alone, so it contributes no slice spans; its CPU
                # time is still accounted via thread.cpu_cycles.
                duration = self.clock.now - slice_start
                if duration > 0:
                    tracer.complete(
                        CAT_SCHED, "exec", slice_start, duration,
                        tid=TID_SPECULATING if thread.is_spec else TID_ORIGINAL,
                        pid=thread.process.pid,
                    )

    def _run_inner(
        self, thread: "Thread", budget: Optional[int], until: Optional[int] = None
    ) -> str:
        clock = self.clock
        engine = self.engine
        process = thread.process
        text = process.binary.text
        dispatch = self._dispatch
        is_spec = thread.is_spec
        spec = process.spec
        poll_interval = 0
        if is_spec and spec is not None:
            poll_interval = spec.params.restart_poll_interval
        table = self._block_tables.get(process) or self._new_block_table(process)
        blocks = table.blocks
        heat = table.heat
        singles = table.singles
        cycles = table.cycles
        # Budget tracking lives on the thread so the except path can see it.
        thread.pending_budget = budget

        while True:
            # Charge any cost deferred from a wakeup (e.g. read-copy cycles).
            if thread.pending_cost:
                cost = thread.pending_cost
                thread.pending_cost = 0
                self._charge(thread, cost, budget)
                if budget is not None:
                    budget -= cost
                    thread.pending_budget = budget

            # Drain interruptible computation (CWORK/SCWORK remainder).
            if thread.cwork_remaining:
                stopped = self._drain_cwork(thread, budget, until)
                if stopped is not None:
                    return stopped
                if budget is not None:
                    budget = thread.pending_budget

            # Preemption points.
            if budget is None:
                horizon = engine.horizon
                if until is not None and until < horizon:
                    horizon = until
                room = horizon - clock.now
                if room <= 0:
                    return "event"
            else:
                room = budget
                if room <= 0:
                    return "budget"

            pc = thread.pc
            block = blocks[pc]
            if block is None:
                entries = heat[pc]
                if entries >= HOT_ENTRIES:
                    block = table.translate(pc)
                    if block is not None:
                        self.blocks_translated += 1
                elif entries >= 0:
                    heat[pc] = entries + 1

            # A translated block runs whole when nothing can happen
            # inside it that per-instruction execution would notice:
            # every instruction starts before the preemption point
            # (only system instructions move the horizon), and the
            # restart poll only counts (the flag is set by the original
            # thread alone, so it cannot change under a running block).
            if block is not None:
                function, need, count, cost, prefix = block
                polls = thread.poll_counter if poll_interval else 0
                if room > need and not (
                    poll_interval and spec is not None
                    and (spec.restart_flag or polls >= poll_interval)
                ):
                    fault: Optional[Exception] = None
                    try:
                        thread.pc = function(thread, thread.regs)
                    except BlockLeave as leave:
                        # The instruction at thread.pc completed with
                        # dynamic cycles: go round at that boundary.
                        count = thread.pc - pc + 1
                        cost = prefix[count] + leave.args[0]
                        thread.pc += 1
                    except _BLOCK_FAULTS as exc:
                        # Single steps' state at a fault: pc at the
                        # faulting instruction, which is counted but not
                        # charged; everything before it charged.
                        fault = exc
                        cost = prefix[thread.pc - pc]
                        count = thread.pc - pc + 1
                    self.instructions += count
                    self.block_instructions += count
                    if poll_interval:
                        thread.poll_counter = (polls + count) % poll_interval
                    thread.cpu_cycles += cost
                    if budget is None:
                        # A sum of cycle costs: never negative.
                        clock.now += cost
                    else:
                        budget -= cost
                        thread.spec_clock += cost
                        thread.pending_budget = budget
                    if fault is None:
                        continue
                    if isinstance(fault, MachineFault):
                        self._spec_mem_fault(thread, fault)
                    raise fault

            # Restart-flag poll (speculating thread only).
            if poll_interval:
                thread.poll_counter += 1
                if thread.poll_counter >= poll_interval:
                    thread.poll_counter = 0
                    if spec is not None and spec.restart_flag:
                        cost = spec.perform_restart(thread)
                        if cost == _STOPPED:
                            # Watchdog disabled speculation mid-restart.
                            return thread.stop_reason
                        self._charge(thread, cost, budget)
                        if budget is not None:
                            budget -= cost
                            thread.pending_budget = budget
                        continue

            insn = text[pc]
            self.instructions += 1
            single = singles[insn.op]
            if single is None:
                cost = dispatch[insn.op](thread, insn)
                if cost == _STOPPED:
                    return thread.stop_reason
            else:
                # One instruction of generated code, left and faulting the
                # way an instruction inside a block is.
                cost = cycles[pc]
                try:
                    thread.pc = single(thread, thread.regs, insn.a, insn.b, insn.c, pc)
                except BlockLeave as leave:
                    thread.pc = pc + 1
                    cost += leave.args[0]
                except MachineFault as exc:
                    self._spec_mem_fault(thread, exc)
            if cost:
                thread.cpu_cycles += cost
                if budget is None:
                    # An instruction's cycle cost: never negative.
                    clock.now += cost
                else:
                    budget -= cost
                    thread.spec_clock += cost
                    thread.pending_budget = budget

    def _new_block_table(self, process: "Process") -> BlockTable:
        """The process's block table: the program's generated code, with
        the names it calls bound to this process's memory, page accounting
        and COW map."""
        mem = process.mem
        bindings: Dict[str, object] = {
            "space": mem,
            "mm": mem._mem,
            "from_bytes": int.from_bytes,
            "load_word": mem.load_word,
            "store_word": mem.store_word,
            "load_byte": mem.load_byte,
            "store_byte": mem.store_byte,
            "vm": process.vmstat,
            "touch": process.vmstat.touch_addr,
            "page_cost": self._page_event_cost,
            "check_target": self._check_text_target,
            "zero_divisor": self._zero_divisor,
            "switch_fault": self._switch_fault,
        }
        layout = {"page": PAGE_SIZE, "stack": mem.stack_limit,
                  "stack_word": mem.stack_top - 8, "stack_end": mem.stack_top,
                  "data": mem.data_start}
        if process.spec is not None:
            cow = process.spec.cow
            bindings.update(
                copies=cow._copies, mapped_regions=cow._mapped_regions,
                cow_load_word=cow.load_word, cow_store_word=cow.store_word,
                cow_load_byte=cow.load_byte, cow_store_byte=cow.store_byte,
            )
            if cow.auditor is not None:
                bindings["audit"] = cow.auditor
            layout["region"] = cow.region_size
        table = self._block_tables[process] = BlockTable(
            process.binary, bindings, layout,
            clock_observed=self.kernel.tracer.enabled)
        return table

    def _charge(self, thread: "Thread", cost: int, budget: Optional[int]) -> None:
        """Charge cycles outside the main dispatch."""
        thread.cpu_cycles += cost
        if budget is None:
            self.clock.advance(cost)
        else:
            thread.spec_clock += cost

    def _drain_cwork(
        self, thread: "Thread", budget: Optional[int], until: Optional[int] = None
    ) -> Optional[str]:
        """Consume pending computation, interruptible at the event horizon
        (normal mode) or budget boundary.  Returns a stop reason or None."""
        remaining = thread.cwork_remaining
        if budget is None:
            horizon = self.engine.horizon
            if until is not None and until < horizon:
                horizon = until
            room = horizon - self.clock.now
            if room <= 0:
                return "event"
            chunk = remaining if remaining <= room else room
            self.clock.advance(chunk)
            thread.cpu_cycles += chunk
            thread.cwork_remaining = remaining - chunk
            if thread.cwork_remaining:
                return "event"
            return None
        # Budget mode starts with a positive budget and CWORK costs nothing,
        # so some of the budget is left here.
        chunk = remaining if remaining <= budget else budget
        thread.spec_clock += chunk
        thread.cpu_cycles += chunk
        thread.cwork_remaining = remaining - chunk
        thread.pending_budget = budget - chunk
        if thread.cwork_remaining:
            return "budget"
        return None

    def _spec_signal(self, thread: "Thread") -> None:
        """Convert a speculative fault to a signal + parked speculation."""
        spec = thread.process.spec
        if spec is not None:
            spec.note_signal(thread)
        thread.stop_reason = "spec_idle"

    # ------------------------------------------------------------- dispatch

    def _build_dispatch(self) -> List[Callable[["Thread", Insn], int]]:
        """The system instructions, which have no template; every other
        opcode runs as generated code (see :mod:`repro.vm.blocks`)."""
        table: List[Callable[["Thread", Insn], int]] = [self._op_invalid] * 64
        table[Op.HALT] = self._op_halt
        table[Op.SYSCALL] = self._op_syscall
        table[Op.CWORK] = self._op_cwork
        table[Op.SCWORK] = self._op_cwork
        table[Op.SPEC_READ] = self._op_spec_read
        table[Op.SPEC_SYSCALL] = self._op_spec_syscall
        table[Op.SPEC_JR] = self._op_spec_jr
        table[Op.SPEC_CALLR] = self._op_spec_callr
        table[Op.SPEC_SWITCH] = self._op_spec_switch
        return table

    # -- faults raised by generated code ------------------------------------------

    @staticmethod
    def _zero_divisor(thread: "Thread", what: str) -> None:
        if thread.is_spec:
            raise SpeculationFault(f"speculative {what} by zero")
        raise ArithmeticFault(f"{what} by zero at pc={thread.pc}")

    @staticmethod
    def _spec_mem_fault(thread: "Thread", exc: MachineFault) -> None:
        """Generated code raised a machine fault.  On the speculating thread
        only a plain load/store can (the shadow code wraps every one in a
        COW check, which signals speculation itself), and the fault becomes
        a speculation signal; normal execution re-raises the machine
        fault."""
        if thread.is_spec:
            raise SpeculationFault(f"speculative memory fault: {exc}") from exc
        raise exc

    @staticmethod
    def _switch_fault(thread: "Thread", index: int) -> None:
        if thread.is_spec:
            raise SpeculationFault(f"speculative switch index {index} out of range")
        raise MachineFault(f"switch index {index} out of range at pc={thread.pc}")

    def _check_text_target(self, thread: "Thread", target: int) -> None:
        if not 0 <= target < len(thread.process.binary.text):
            if thread.is_spec:
                raise SpeculationFault(f"speculative jump to {target}")
            raise MachineFault(f"jump to {target} outside text at pc={thread.pc}")

    # -- system --------------------------------------------------------------------------

    def _op_invalid(self, thread: "Thread", insn: Insn) -> int:
        raise MachineFault(f"invalid opcode {insn.op} at pc={thread.pc}")

    def _op_halt(self, thread: "Thread", insn: Insn) -> int:
        return self.kernel.handle_exit(thread, 0)

    def _op_syscall(self, thread: "Thread", insn: Insn) -> int:
        return self.kernel.syscall(thread, insn.c)

    def _op_cwork(self, thread: "Thread", insn: Insn) -> int:
        thread.cwork_remaining += insn.a
        thread.pc += 1
        return 0

    # -- shadow-code control & system --------------------------------------------------------

    def _op_spec_read(self, thread: "Thread", insn: Insn) -> int:
        return thread.process.spec.spec_read(thread)

    def _op_spec_syscall(self, thread: "Thread", insn: Insn) -> int:
        return thread.process.spec.spec_syscall(thread, insn.c)

    def _op_spec_jr(self, thread: "Thread", insn: Insn) -> int:
        spec = thread.process.spec
        target = spec.resolve_control_target(thread.regs[insn.a])
        if target is None:
            return spec.park(thread, "left_shadow")
        thread.pc = target
        return BRANCH_COST + _HANDLER_COST

    def _op_spec_callr(self, thread: "Thread", insn: Insn) -> int:
        spec = thread.process.spec
        target = spec.resolve_control_target(thread.regs[insn.a])
        if target is None:
            return spec.park(thread, "left_shadow")
        thread.regs[31] = thread.pc + 1
        thread.pc = target
        return CALL_COST + _HANDLER_COST

    def _op_spec_switch(self, thread: "Thread", insn: Insn) -> int:
        spec = thread.process.spec
        table = thread.process.binary.jump_table(insn.c)
        index = thread.regs[insn.a]
        if index >= len(table.targets):
            raise SpeculationFault(f"speculative switch index {index}")
        target = spec.resolve_control_target(table.targets[index])
        if target is None:
            return spec.park(thread, "unrecognized_jump_table")
        thread.pc = target
        return SWITCH_COST + _HANDLER_COST
