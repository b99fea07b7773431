"""The per-instruction SpecVM interpreter and the layered COW accessors,
kept as the reference model.

This is what ``Machine._run_inner`` and the ``CowMap`` word/byte accessors
were before hot basic blocks ran as translated code and a COW-wrapped
access became one call: one handler dispatch, one ``clock.advance`` and one
preemption/poll check per instruction; every COW access through
``_read``/``_write``/``_check``; strings scanned a byte at a time; the
audit digest fed to SHA-256 part by part.  It is deliberately naive and
must stay that way — ``test_property_vm_blocks.py`` drives it beside the
real machine over generated programs and over the paper's applications and
requires the same state after every ``execute()``: stop reason, pc,
registers, instruction and cycle counts, memory, COW copies, page
accounting, hint ledger, audit chain.  The instruction handlers
(``_op_*``) are shared with the real machine; the loop that decides when
and how they run is not.
"""

import hashlib
from typing import TYPE_CHECKING, Optional

from repro.spechint.cow import CowMap
from repro.vm.machine import _STOPPED, Machine, SpeculationFault
from repro.vm.memory import MASK64

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.thread import Thread


class ReferenceMachine(Machine):
    """``Machine`` that single-steps everything."""

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
