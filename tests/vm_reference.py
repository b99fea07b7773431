"""The per-instruction SpecVM interpreter and the layered COW accessors,
kept as the reference model.

This is what ``Machine._run_inner``, its instruction handlers and the
``CowMap`` word/byte accessors were before every non-system instruction ran
as code generated from its ``vm/blocks.py`` template and a COW-wrapped
access became one call: one hand-written handler (``_op_*``) per
instruction, one ``clock.advance`` and one preemption/poll check per
instruction; every COW access through ``_read``/``_write``/``_check``;
strings scanned a byte at a time; the audit digest fed to SHA-256 part by
part.  It is deliberately naive and must stay that way —
``test_property_vm_blocks.py`` drives it beside the real machine over
generated programs and over the paper's applications and requires the same
state after every ``execute()``: stop reason, pc, registers, instruction
and cycle counts, memory, COW copies, page accounting, hint ledger, audit
chain.  The handlers of the non-system instructions are the reference's
own, so both the real machine's blocks and its single steps are checked
against an independent definition; only the system instructions
(``HALT``, ``SYSCALL``, ``CWORK``/``SCWORK``, ``SPEC_*``) and the fault
helpers are shared.
"""

import hashlib
from typing import TYPE_CHECKING, Callable, List, Optional

from repro.errors import MachineFault
from repro.spechint.cow import CowMap
from repro.vm.isa import (
    ALU_COST,
    BRANCH_COST,
    CALL_COST,
    MASK64,
    MEM_COST,
    SWITCH_COST,
    Insn,
    Op,
    to_signed,
)
from repro.vm.machine import _STOPPED, Machine, SpeculationFault

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.thread import Thread


class ReferenceMachine(Machine):
    """``Machine`` that single-steps everything through its own handlers."""

    def _build_dispatch(self) -> List[Callable[["Thread", Insn], int]]:
        table = super()._build_dispatch()
        table[Op.NOP] = self._op_nop
        table[Op.LI] = self._op_li
        table[Op.LA] = self._op_li  # identical at runtime
        table[Op.MOV] = self._op_mov
        table[Op.ADD] = self._op_add
        table[Op.SUB] = self._op_sub
        table[Op.MUL] = self._op_mul
        table[Op.DIV] = self._op_div
        table[Op.MOD] = self._op_mod
        table[Op.AND] = self._op_and
        table[Op.OR] = self._op_or
        table[Op.XOR] = self._op_xor
        table[Op.SHL] = self._op_shl
        table[Op.SHR] = self._op_shr
        table[Op.SLT] = self._op_slt
        table[Op.ADDI] = self._op_addi
        table[Op.MULI] = self._op_muli
        table[Op.ANDI] = self._op_andi
        table[Op.ORI] = self._op_ori
        table[Op.SHLI] = self._op_shli
        table[Op.SHRI] = self._op_shri
        table[Op.SLTI] = self._op_slti
        table[Op.LOAD] = self._op_load
        table[Op.STORE] = self._op_store
        table[Op.LOADB] = self._op_loadb
        table[Op.STOREB] = self._op_storeb
        table[Op.BEQ] = self._op_beq
        table[Op.BNE] = self._op_bne
        table[Op.BLT] = self._op_blt
        table[Op.BGE] = self._op_bge
        table[Op.JMP] = self._op_jmp
        table[Op.JR] = self._op_jr
        table[Op.CALL] = self._op_call
        table[Op.CALLR] = self._op_callr
        table[Op.SWITCH] = self._op_switch
        table[Op.COW_LOAD] = self._op_cow_load
        table[Op.COW_STORE] = self._op_cow_store
        table[Op.COW_LOADB] = self._op_cow_loadb
        table[Op.COW_STOREB] = self._op_cow_storeb
        return table

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
                if clock.now >= horizon:
                    return "event"
            elif budget <= 0:
                return "budget"

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

            insn = text[thread.pc]
            self.instructions += 1
            cost = dispatch[insn.op](thread, insn)
            if cost == _STOPPED:
                return thread.stop_reason
            if cost:
                thread.cpu_cycles += cost
                if budget is None:
                    clock.advance(cost)
                else:
                    budget -= cost
                    thread.spec_clock += cost
                    thread.pending_budget = budget

    # -- trivial ---------------------------------------------------------------------

    def _op_nop(self, thread: "Thread", insn: Insn) -> int:
        thread.pc += 1
        return ALU_COST

    def _op_li(self, thread: "Thread", insn: Insn) -> int:
        thread.regs[insn.a] = insn.c & MASK64
        thread.pc += 1
        return ALU_COST

    def _op_mov(self, thread: "Thread", insn: Insn) -> int:
        thread.regs[insn.a] = thread.regs[insn.b]
        thread.pc += 1
        return ALU_COST

    # -- ALU -------------------------------------------------------------------------

    def _op_add(self, thread: "Thread", insn: Insn) -> int:
        r = thread.regs
        r[insn.a] = (r[insn.b] + r[insn.c]) & MASK64
        thread.pc += 1
        return ALU_COST

    def _op_sub(self, thread: "Thread", insn: Insn) -> int:
        r = thread.regs
        r[insn.a] = (r[insn.b] - r[insn.c]) & MASK64
        thread.pc += 1
        return ALU_COST

    def _op_mul(self, thread: "Thread", insn: Insn) -> int:
        r = thread.regs
        r[insn.a] = (r[insn.b] * r[insn.c]) & MASK64
        thread.pc += 1
        return ALU_COST

    def _op_div(self, thread: "Thread", insn: Insn) -> int:
        r = thread.regs
        divisor = r[insn.c]
        if divisor == 0:
            self._zero_divisor(thread, "division")
        r[insn.a] = (to_signed(r[insn.b]) // to_signed(divisor)) & MASK64
        thread.pc += 1
        return ALU_COST

    def _op_mod(self, thread: "Thread", insn: Insn) -> int:
        r = thread.regs
        divisor = r[insn.c]
        if divisor == 0:
            self._zero_divisor(thread, "modulus")
        r[insn.a] = (to_signed(r[insn.b]) % to_signed(divisor)) & MASK64
        thread.pc += 1
        return ALU_COST

    def _op_and(self, thread: "Thread", insn: Insn) -> int:
        r = thread.regs
        r[insn.a] = r[insn.b] & r[insn.c]
        thread.pc += 1
        return ALU_COST

    def _op_or(self, thread: "Thread", insn: Insn) -> int:
        r = thread.regs
        r[insn.a] = r[insn.b] | r[insn.c]
        thread.pc += 1
        return ALU_COST

    def _op_xor(self, thread: "Thread", insn: Insn) -> int:
        r = thread.regs
        r[insn.a] = r[insn.b] ^ r[insn.c]
        thread.pc += 1
        return ALU_COST

    def _op_shl(self, thread: "Thread", insn: Insn) -> int:
        r = thread.regs
        r[insn.a] = (r[insn.b] << (r[insn.c] & 63)) & MASK64
        thread.pc += 1
        return ALU_COST

    def _op_shr(self, thread: "Thread", insn: Insn) -> int:
        r = thread.regs
        r[insn.a] = r[insn.b] >> (r[insn.c] & 63)
        thread.pc += 1
        return ALU_COST

    def _op_slt(self, thread: "Thread", insn: Insn) -> int:
        r = thread.regs
        r[insn.a] = 1 if to_signed(r[insn.b]) < to_signed(r[insn.c]) else 0
        thread.pc += 1
        return ALU_COST

    def _op_addi(self, thread: "Thread", insn: Insn) -> int:
        r = thread.regs
        r[insn.a] = (r[insn.b] + insn.c) & MASK64
        thread.pc += 1
        return ALU_COST

    def _op_muli(self, thread: "Thread", insn: Insn) -> int:
        r = thread.regs
        r[insn.a] = (r[insn.b] * insn.c) & MASK64
        thread.pc += 1
        return ALU_COST

    def _op_andi(self, thread: "Thread", insn: Insn) -> int:
        r = thread.regs
        r[insn.a] = r[insn.b] & (insn.c & MASK64)
        thread.pc += 1
        return ALU_COST

    def _op_ori(self, thread: "Thread", insn: Insn) -> int:
        r = thread.regs
        r[insn.a] = r[insn.b] | (insn.c & MASK64)
        thread.pc += 1
        return ALU_COST

    def _op_shli(self, thread: "Thread", insn: Insn) -> int:
        r = thread.regs
        r[insn.a] = (r[insn.b] << (insn.c & 63)) & MASK64
        thread.pc += 1
        return ALU_COST

    def _op_shri(self, thread: "Thread", insn: Insn) -> int:
        r = thread.regs
        r[insn.a] = r[insn.b] >> (insn.c & 63)
        thread.pc += 1
        return ALU_COST

    def _op_slti(self, thread: "Thread", insn: Insn) -> int:
        r = thread.regs
        r[insn.a] = 1 if to_signed(r[insn.b]) < insn.c else 0
        thread.pc += 1
        return ALU_COST

    # -- memory ----------------------------------------------------------------------

    def _op_load(self, thread: "Thread", insn: Insn) -> int:
        proc = thread.process
        addr = (thread.regs[insn.b] + insn.c) & MASK64
        try:
            thread.regs[insn.a] = proc.mem.load_word(addr)
        except MachineFault as exc:
            self._spec_mem_fault(thread, exc)
        thread.pc += 1
        return MEM_COST + self._page_event_cost[proc.vmstat.touch_addr(addr)]

    def _op_store(self, thread: "Thread", insn: Insn) -> int:
        proc = thread.process
        addr = (thread.regs[insn.b] + insn.c) & MASK64
        try:
            proc.mem.store_word(addr, thread.regs[insn.a])
        except MachineFault as exc:
            self._spec_mem_fault(thread, exc)
        thread.pc += 1
        return MEM_COST + self._page_event_cost[proc.vmstat.touch_addr(addr)]

    def _op_loadb(self, thread: "Thread", insn: Insn) -> int:
        proc = thread.process
        addr = (thread.regs[insn.b] + insn.c) & MASK64
        try:
            thread.regs[insn.a] = proc.mem.load_byte(addr)
        except MachineFault as exc:
            self._spec_mem_fault(thread, exc)
        thread.pc += 1
        return MEM_COST + self._page_event_cost[proc.vmstat.touch_addr(addr)]

    def _op_storeb(self, thread: "Thread", insn: Insn) -> int:
        proc = thread.process
        addr = (thread.regs[insn.b] + insn.c) & MASK64
        try:
            proc.mem.store_byte(addr, thread.regs[insn.a])
        except MachineFault as exc:
            self._spec_mem_fault(thread, exc)
        thread.pc += 1
        return MEM_COST + self._page_event_cost[proc.vmstat.touch_addr(addr)]

    # -- control ---------------------------------------------------------------------

    def _op_beq(self, thread: "Thread", insn: Insn) -> int:
        r = thread.regs
        thread.pc = insn.c if r[insn.a] == r[insn.b] else thread.pc + 1
        return BRANCH_COST

    def _op_bne(self, thread: "Thread", insn: Insn) -> int:
        r = thread.regs
        thread.pc = insn.c if r[insn.a] != r[insn.b] else thread.pc + 1
        return BRANCH_COST

    def _op_blt(self, thread: "Thread", insn: Insn) -> int:
        r = thread.regs
        taken = to_signed(r[insn.a]) < to_signed(r[insn.b])
        thread.pc = insn.c if taken else thread.pc + 1
        return BRANCH_COST

    def _op_bge(self, thread: "Thread", insn: Insn) -> int:
        r = thread.regs
        taken = to_signed(r[insn.a]) >= to_signed(r[insn.b])
        thread.pc = insn.c if taken else thread.pc + 1
        return BRANCH_COST

    def _op_jmp(self, thread: "Thread", insn: Insn) -> int:
        thread.pc = insn.c
        return BRANCH_COST

    def _op_jr(self, thread: "Thread", insn: Insn) -> int:
        target = thread.regs[insn.a]
        self._check_text_target(thread, target)
        thread.pc = target
        return BRANCH_COST

    def _op_call(self, thread: "Thread", insn: Insn) -> int:
        thread.regs[31] = thread.pc + 1  # ra
        thread.pc = insn.c
        return CALL_COST

    def _op_callr(self, thread: "Thread", insn: Insn) -> int:
        target = thread.regs[insn.a]
        self._check_text_target(thread, target)
        thread.regs[31] = thread.pc + 1
        thread.pc = target
        return CALL_COST

    def _op_switch(self, thread: "Thread", insn: Insn) -> int:
        table = thread.process.binary.jump_table(insn.c)
        index = thread.regs[insn.a]
        if index >= len(table.targets):
            self._switch_fault(thread, index)
        thread.pc = table.targets[index]
        return SWITCH_COST

    # -- shadow-code memory (software-enforced copy-on-write) ------------------------

    def _op_cow_load(self, thread: "Thread", insn: Insn) -> int:
        spec = thread.process.spec
        addr = (thread.regs[insn.b] + insn.c) & MASK64
        thread.regs[insn.a] = spec.cow.load_word(addr)
        thread.pc += 1
        return MEM_COST + insn.d

    def _op_cow_store(self, thread: "Thread", insn: Insn) -> int:
        spec = thread.process.spec
        addr = (thread.regs[insn.b] + insn.c) & MASK64
        extra = spec.cow.store_word(addr, thread.regs[insn.a])
        thread.pc += 1
        return MEM_COST + insn.d + extra

    def _op_cow_loadb(self, thread: "Thread", insn: Insn) -> int:
        spec = thread.process.spec
        addr = (thread.regs[insn.b] + insn.c) & MASK64
        thread.regs[insn.a] = spec.cow.load_byte(addr)
        thread.pc += 1
        return MEM_COST + insn.d

    def _op_cow_storeb(self, thread: "Thread", insn: Insn) -> int:
        spec = thread.process.spec
        addr = (thread.regs[insn.b] + insn.c) & MASK64
        extra = spec.cow.store_byte(addr, thread.regs[insn.a])
        thread.pc += 1
        return MEM_COST + insn.d + extra


class ReferenceCowMap(CowMap):
    """``CowMap`` whose word/byte accessors go through the bulk path."""

    def load_word(self, addr: int) -> int:
        return int.from_bytes(self._read(addr, 8), "little")

    def store_word(self, addr: int, value: int) -> int:
        return self._write(addr, (value & MASK64).to_bytes(8, "little"))

    def load_byte(self, addr: int) -> int:
        return self._read(addr, 1)[0]

    def store_byte(self, addr: int, value: int) -> int:
        return self._write(addr, bytes((value & 0xFF,)))

    def read_cstring(self, addr: int, max_len: int = 4096) -> bytes:
        """NUL-terminated string as speculation sees it.

        The scan never leaves the mapped segment containing ``addr``: a
        string that would cross the segment (shadow-region) boundary
        raises the typed fault explicitly rather than relying on per-byte
        validity of whatever lies beyond.
        """
        seg_end = self.mem.segment_end(addr)
        if seg_end is None:
            raise SpeculationFault(
                f"speculative string at unmapped address {addr:#x}"
            )
        limit = min(max_len, seg_end - addr)
        out = bytearray()
        for i in range(limit):
            byte = self.load_byte(addr + i)
            if byte == 0:
                return bytes(out)
            out.append(byte)
        if limit < max_len:
            raise SpeculationFault(
                f"speculative string at {addr:#x} crosses the region "
                f"boundary at {seg_end:#x}"
            )
        raise SpeculationFault(f"unterminated speculative string at {addr:#x}")


def reference_digest(*parts: object) -> str:
    """Short, stable hex digest of a tuple of printable parts."""
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode("utf-8"))
        h.update(b"\x1f")
    return h.hexdigest()[:24]
