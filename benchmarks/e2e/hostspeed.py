"""Reference load: how fast is this host right now?

The sandbox's speed moves by tens of percent over seconds to minutes (other
tenants on the same cores), which would swamp any bound on a host-time
metric.  ``run.py`` therefore times this fixed load before and after every
pass and divides the pass's times by the slowdown it saw, the same remedy as
the calibration loop of ``benchmarks/trace_overhead_guard.py``.

The load is a toy event-driven interpreter with the simulator's instruction
mix — bound-method dispatch through a table, attribute and list access, dict
counters, a heap of events, byte traffic — and shares no code with it, so a
change to the simulator cannot move the yardstick.
"""

from __future__ import annotations

import heapq
import time
from typing import Dict, List, Tuple

#: Seconds one :func:`measure` takes on the host the metrics are scaled to.
NOMINAL_S = 0.22
_STEPS = 400_000


class _Thread:
    __slots__ = ("pc", "regs", "cycles")

    def __init__(self) -> None:
        self.pc = 0
        self.regs = [0] * 16
        self.cycles = 0


class _ToyMachine:
    def __init__(self) -> None:
        self.mem = bytearray(1 << 20)
        self.events: List[Tuple[int, int]] = []
        self.now = 0
        self.stats: Dict[str, int] = {}
        self.text = [(i * 7) % 5 for i in range(5000)]
        self.dispatch = [self.op_add, self.op_load, self.op_store, self.op_branch, self.op_io]

    def op_add(self, t: _Thread, i: int) -> int:
        t.regs[i & 15] = (t.regs[(i + 1) & 15] + i) & 0xFFFFFFFF
        return 1

    def op_load(self, t: _Thread, i: int) -> int:
        t.regs[i & 15] = self.mem[(i * 4099) & 0xFFFFF]
        return 2

    def op_store(self, t: _Thread, i: int) -> int:
        self.mem[(i * 8191) & 0xFFFFF] = t.regs[i & 15] & 255
        return 2

    def op_branch(self, t: _Thread, i: int) -> int:
        if t.regs[i & 15] & 1:
            t.pc += 1
        return 1

    def op_io(self, t: _Thread, i: int) -> int:
        heapq.heappush(self.events, (self.now + 100 + (i & 63), i))
        self.stats["io"] = self.stats.get("io", 0) + 1
        return 5

    def run(self, steps: int) -> int:
        thread = _Thread()
        text, dispatch, events = self.text, self.dispatch, self.events
        size = len(text)
        for i in range(steps):
            op = text[thread.pc % size]
            thread.pc += 1
            cost = dispatch[op](thread, i)
            thread.cycles += cost
            self.now += cost
            while events and events[0][0] <= self.now:
                heapq.heappop(events)
                self.stats["done"] = self.stats.get("done", 0) + 1
        return thread.cycles


def measure() -> float:
    """Seconds the reference load takes now (a fresh machine each time)."""
    machine = _ToyMachine()
    start = time.perf_counter()
    machine.run(_STEPS)
    return time.perf_counter() - start
