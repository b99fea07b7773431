"""Abstract interpretation of SpecVM functions (analysis stage 3).

A value-range / points-to domain evaluated to a fixed point over each
function's CFG.  Abstract values:

* ``NUM [lo, hi]`` — an integer interval (``None`` bounds are infinite);
* ``FUNC f`` — the address of a known function entry (produced only by
  ``LA`` of a function symbol, i.e. a relocated function pointer);
* ``RETADDR`` — a return address placed by ``CALL``/``CALLR``;
* ``STACK +d`` — the stack pointer at a known offset from the value
  ``sp`` had on function entry;
* ``TOP`` — anything.

The interpreter tracks stack slots (``STACK``-addressed stores at known
offsets), so ``push ra … pop ra; jr ra`` classifies as a return.

Soundness boundary — read this before trusting a fact:

* The machine wraps arithmetic modulo 2**64; the domain uses unbounded
  signed integers.  Any value the program actually wraps shows up here
  as an interval no range check proves things about (a wrapped
  "negative" address maps above every segment and faults at runtime).
* Calls follow the SpecVM convention: caller-saved registers (``at``,
  ``v0``/``v1``, ``a0``–``a5``, ``t0``–``t9``) and all tracked stack
  slots are forgotten, ``ra`` holds a return address, ``sp`` and the
  callee-saved registers are preserved.
* Facts hold for executions entering the function at its entry point.
  The SpecHint handling routine only maps function entries, so this
  matches speculative control flow; the ``map_all_addresses`` ablation
  breaks the assumption.

These facts feed ``repro analyze``'s report and lint and the taint lint;
the SpecHint tool's transformation reads none of them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Protocol, TypeVar

from repro.analysis.cfg import CFG, BasicBlock, table_targets
from repro.analysis.dataflow import CALL_CLOBBERS
from repro.errors import AnalysisError
from repro.vm.binary import Binary
from repro.vm.isa import BRANCH_OPS, NUM_REGS, SYS_READ, Insn, Op, Reg
from repro.vm.memory import DEFAULT_STACK_BYTES, STACK_TOP

_ZERO = int(Reg.zero)
_RA = int(Reg.ra)
_SP = int(Reg.sp)
_A1 = int(Reg.a1)
_V0 = int(Reg.v0)

#: The stack segment ([base, top)) assumed for may-alias checks.
STACK_BASE = STACK_TOP - DEFAULT_STACK_BYTES

#: Widening threshold: joins at one block before intervals jump to
#: infinite bounds (applied at every block, so irreducible CFGs also
#: terminate).
_WIDEN_AFTER = 4

#: Hard cap on solver steps per function (defence in depth; widening
#: makes the fixpoint terminate long before this).
_MAX_STEPS = 100_000


class ValueKind(enum.Enum):
    NUM = "num"
    FUNC = "func"
    RETADDR = "retaddr"
    STACK = "stack"
    TOP = "top"


@dataclass(frozen=True)
class AbsVal:
    """One abstract value (immutable)."""

    kind: ValueKind
    lo: Optional[int] = None
    hi: Optional[int] = None
    entry: int = -1
    delta: int = 0

    @property
    def is_const(self) -> bool:
        return (
            self.kind is ValueKind.NUM
            and self.lo is not None
            and self.lo == self.hi
        )


TOP = AbsVal(ValueKind.TOP)
RETADDR = AbsVal(ValueKind.RETADDR)
NUM_ANY = AbsVal(ValueKind.NUM)
BYTE = AbsVal(ValueKind.NUM, 0, 255)
BIT = AbsVal(ValueKind.NUM, 0, 1)


def const(value: int) -> AbsVal:
    return AbsVal(ValueKind.NUM, value, value)


def interval(lo: Optional[int], hi: Optional[int]) -> AbsVal:
    return AbsVal(ValueKind.NUM, lo, hi)


def func_addr(entry: int) -> AbsVal:
    return AbsVal(ValueKind.FUNC, entry=entry)


def stack_ptr(delta: int) -> AbsVal:
    return AbsVal(ValueKind.STACK, delta=delta)


def join(a: AbsVal, b: AbsVal) -> AbsVal:
    if a == b:
        return a
    if a.kind is ValueKind.NUM and b.kind is ValueKind.NUM:
        lo = None if a.lo is None or b.lo is None else min(a.lo, b.lo)
        hi = None if a.hi is None or b.hi is None else max(a.hi, b.hi)
        return interval(lo, hi)
    return TOP


def widen(old: AbsVal, new: AbsVal) -> AbsVal:
    """Accelerated join: unstable interval bounds jump to infinity."""
    joined = join(old, new)
    if joined == old:
        return old
    if old.kind is ValueKind.NUM and joined.kind is ValueKind.NUM:
        lo = old.lo if old.lo is not None and joined.lo == old.lo else None
        hi = old.hi if old.hi is not None and joined.hi == old.hi else None
        return interval(lo, hi)
    return joined


# -- interval helpers ---------------------------------------------------------


def _both(a: Optional[int], b: Optional[int]) -> bool:
    return a is not None and b is not None


def _add(a: AbsVal, b: AbsVal) -> AbsVal:
    if a.kind is ValueKind.STACK and b.is_const:
        return stack_ptr(a.delta + b.lo)  # type: ignore[operator]
    if b.kind is ValueKind.STACK and a.is_const:
        return stack_ptr(b.delta + a.lo)  # type: ignore[operator]
    if a.kind is ValueKind.NUM and b.kind is ValueKind.NUM:
        lo = a.lo + b.lo if _both(a.lo, b.lo) else None  # type: ignore[operator]
        hi = a.hi + b.hi if _both(a.hi, b.hi) else None  # type: ignore[operator]
        return interval(lo, hi)
    return TOP


def _sub(a: AbsVal, b: AbsVal) -> AbsVal:
    if a.kind is ValueKind.STACK and b.is_const:
        return stack_ptr(a.delta - b.lo)  # type: ignore[operator]
    if a.kind is ValueKind.NUM and b.kind is ValueKind.NUM:
        lo = a.lo - b.hi if _both(a.lo, b.hi) else None  # type: ignore[operator]
        hi = a.hi - b.lo if _both(a.hi, b.lo) else None  # type: ignore[operator]
        return interval(lo, hi)
    return TOP


def _mul(a: AbsVal, b: AbsVal) -> AbsVal:
    if a.kind is not ValueKind.NUM or b.kind is not ValueKind.NUM:
        return TOP
    if a.is_const and b.is_const:
        return const(a.lo * b.lo)  # type: ignore[operator]
    for k, v in ((a, b), (b, a)):
        if k.is_const:
            c = k.lo
            assert c is not None
            if c == 0:
                return const(0)
            if c > 0:
                lo = v.lo * c if v.lo is not None else None
                hi = v.hi * c if v.hi is not None else None
                return interval(lo, hi)
            lo = v.hi * c if v.hi is not None else None
            hi = v.lo * c if v.lo is not None else None
            return interval(lo, hi)
    if _both(a.lo, a.hi) and _both(b.lo, b.hi):
        products = [
            a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi,  # type: ignore[operator]
        ]
        return interval(min(products), max(products))
    return NUM_ANY


def _nonneg(v: AbsVal) -> bool:
    return v.kind is ValueKind.NUM and v.lo is not None and v.lo >= 0


def eval_alu(op: Op, a: AbsVal, b: AbsVal) -> AbsVal:
    """Abstract result of the ALU operator ``op`` applied to ``a`` and ``b``."""
    if op in (Op.ADD, Op.ADDI):
        return _add(a, b)
    if op is Op.SUB:
        return _sub(a, b)
    if op in (Op.MUL, Op.MULI):
        return _mul(a, b)
    if op in (Op.SHL, Op.SHLI):
        if b.is_const and b.lo is not None and 0 <= b.lo < 64:
            return _mul(a, const(1 << b.lo))
        return NUM_ANY if a.kind is ValueKind.NUM else TOP
    if op in (Op.SHR, Op.SHRI):
        if b.is_const and b.lo is not None and b.lo >= 0 and _nonneg(a):
            lo = (a.lo or 0) >> b.lo
            hi = a.hi >> b.lo if a.hi is not None else None
            return interval(lo, hi)
        return NUM_ANY
    if op is Op.DIV:
        if b.is_const and b.lo is not None and b.lo > 0 and _nonneg(a):
            lo = (a.lo or 0) // b.lo
            hi = a.hi // b.lo if a.hi is not None else None
            return interval(lo, hi)
        return NUM_ANY
    if op is Op.MOD:
        if b.is_const and b.lo is not None and b.lo > 0:
            return interval(0, b.lo - 1)
        return NUM_ANY
    if op in (Op.AND, Op.ANDI):
        if a.is_const and b.is_const:
            return const((a.lo or 0) & (b.lo or 0))
        for k, v in ((a, b), (b, a)):
            if k.is_const and k.lo is not None and k.lo >= 0:
                return interval(0, k.lo)
        if _nonneg(a) and _nonneg(b):
            bounds = [x for x in (a.hi, b.hi) if x is not None]
            return interval(0, min(bounds)) if bounds else NUM_ANY
        return NUM_ANY
    if op in (Op.OR, Op.ORI, Op.XOR):
        if a.is_const and b.is_const:
            v = (a.lo or 0) | (b.lo or 0) if op is not Op.XOR \
                else (a.lo or 0) ^ (b.lo or 0)
            return const(v)
        if _nonneg(a) and _nonneg(b) and a.hi is not None and b.hi is not None:
            bits = max(a.hi, b.hi).bit_length()
            return interval(0, (1 << bits) - 1)
        return NUM_ANY
    return BIT  # SLT, SLTI: the last ALU operators


def range_avoids(v: AbsVal, base: int, end: int) -> bool:
    """True when ``v`` provably never addresses ``[base, end)``.

    A ``STACK`` value lies in the stack segment, which is disjoint from
    any range outside ``[STACK_BASE, STACK_TOP)``.  A negative interval
    bound is fine as long as the whole interval sits below ``base``:
    negative values wrap to the top of the 64-bit space, far above every
    mapped segment (and above ``end`` whenever ``end`` is a segment
    bound below 2**63).
    """
    if v.kind is ValueKind.STACK:
        return end <= STACK_BASE or base >= STACK_TOP
    if v.kind is not ValueKind.NUM:
        return False
    if v.lo is not None and v.lo >= end:
        return True
    if v.hi is not None and v.hi < base and (v.lo is None or v.lo >= -(2**62)):
        # Entirely below the range; any negative part wraps above 2**63,
        # which is above every segment this helper is ever asked about.
        return v.lo is not None
    return False


# -- machine state ------------------------------------------------------------


class AbsState:
    """Abstract register file plus tracked stack slots."""

    __slots__ = ("regs", "slots")

    def __init__(
        self,
        regs: Optional[List[AbsVal]] = None,
        slots: Optional[Dict[int, AbsVal]] = None,
    ) -> None:
        if regs is None:
            regs = [TOP] * NUM_REGS
            regs[_ZERO] = const(0)
            regs[_SP] = stack_ptr(0)
            regs[_RA] = RETADDR
        self.regs = regs
        self.slots: Dict[int, AbsVal] = {} if slots is None else slots

    def copy(self) -> "AbsState":
        return AbsState(list(self.regs), dict(self.slots))

    def get(self, reg: int) -> AbsVal:
        return self.regs[reg]

    def set(self, reg: int, value: AbsVal) -> None:
        if reg != _ZERO:  # the zero register is architecturally pinned
            self.regs[reg] = value

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AbsState):
            return NotImplemented
        return self.regs == other.regs and self.slots == other.slots

    def join_with(self, other: "AbsState", *, widening: bool) -> "AbsState":
        combine = widen if widening else join
        regs = [combine(a, b) for a, b in zip(self.regs, other.regs)]
        slots: Dict[int, AbsVal] = {}
        for key, val in self.slots.items():
            if key in other.slots:
                slots[key] = combine(val, other.slots[key])
        return AbsState(regs, slots)

    # -- memory effects --------------------------------------------------

    def _kill_overlapping_slots(self, delta: int, length: int) -> None:
        for key in [
            k for k in self.slots
            if k < delta + length and delta < k + 8
        ]:
            del self.slots[key]

    def write_slot(self, delta: int, value: AbsVal, *, byte: bool) -> None:
        self._kill_overlapping_slots(delta, 1 if byte else 8)
        if not byte:
            self.slots[delta] = value

    def clobber_unknown_store(self, addr: AbsVal) -> None:
        """A store whose target may alias the stack forgets every slot."""
        if not range_avoids(addr, STACK_BASE, STACK_TOP):
            self.slots.clear()

    def apply_call(self) -> None:
        for reg in CALL_CLOBBERS:
            self.regs[reg] = TOP
        self.regs[_RA] = RETADDR
        self.slots.clear()

    def along_edge(self, refine: "EdgeRefinement") -> Optional["AbsState"]:
        """:class:`FlowState`: the whole state is what an edge refines."""
        return refine(self)


def address_of(base: AbsVal, imm: int) -> AbsVal:
    """Abstract address of a memory operand ``imm(base)``."""
    return _add(base, const(imm))


def step(state: AbsState, insn: Insn) -> None:
    """Apply one instruction's effect to ``state`` (in place)."""
    op = insn.op
    if op is Op.LI:
        state.set(insn.a, const(insn.c))
    elif op is Op.LA:
        if insn.get_meta("funcaddr") is not None:
            state.set(insn.a, func_addr(insn.c))
        else:
            state.set(insn.a, const(insn.c))
    elif op is Op.MOV:
        state.set(insn.a, state.get(insn.b))
    elif Op.ADD <= op <= Op.SLT:
        state.set(insn.a, eval_alu(op, state.get(insn.b), state.get(insn.c)))
    elif Op.ADDI <= op <= Op.SLTI:
        state.set(insn.a, eval_alu(op, state.get(insn.b), const(insn.c)))
    elif op in (Op.LOAD, Op.LOADB):
        addr = address_of(state.get(insn.b), insn.c)
        result = TOP if op is Op.LOAD else BYTE
        if op is Op.LOAD and addr.kind is ValueKind.STACK:
            result = state.slots.get(addr.delta, TOP)
        state.set(insn.a, result)
    elif op in (Op.STORE, Op.STOREB):
        addr = address_of(state.get(insn.b), insn.c)
        if addr.kind is ValueKind.STACK:
            state.write_slot(addr.delta, state.get(insn.a),
                             byte=op is Op.STOREB)
        else:
            state.clobber_unknown_store(addr)
    elif op in (Op.CALL, Op.CALLR):
        state.apply_call()
    elif op is Op.SYSCALL:
        if insn.c == SYS_READ:
            # read() writes the destination buffer (register a1).
            buf = state.get(_A1)
            if not range_avoids(buf, STACK_BASE, STACK_TOP):
                state.slots.clear()
        state.set(_V0, NUM_ANY)
    # NOP, HALT, CWORK, JMP, branches, JR, SWITCH: no register effects.


def _intersect(v: AbsVal, lo: Optional[int], hi: Optional[int]) -> Optional[AbsVal]:
    """Clamp a NUM value to ``[lo, hi]``; None when provably empty."""
    if v.kind is not ValueKind.NUM:
        return v
    new_lo = v.lo if lo is None else (lo if v.lo is None else max(v.lo, lo))
    new_hi = v.hi if hi is None else (hi if v.hi is None else min(v.hi, hi))
    if new_lo is not None and new_hi is not None and new_lo > new_hi:
        return None
    return interval(new_lo, new_hi)


def refine_branch(
    state: AbsState, insn: Insn, taken: bool
) -> Optional[AbsState]:
    """Refined copy of ``state`` along one branch edge.

    Returns None when the edge is provably infeasible.  Refinement only
    narrows NUM intervals; every other kind passes through untouched.
    """
    refined = state.copy()
    va, vb = refined.get(insn.a), refined.get(insn.b)
    op = insn.op
    num = ValueKind.NUM
    if va.kind is not num or vb.kind is not num:
        return refined

    equal = (op is Op.BEQ and taken) or (op is Op.BNE and not taken)
    if equal:
        a2 = _intersect(va, vb.lo, vb.hi)
        b2 = _intersect(vb, va.lo, va.hi)
        if a2 is None or b2 is None:
            return None
        refined.set(insn.a, a2)
        refined.set(insn.b, b2)
        return refined
    if op in (Op.BEQ, Op.BNE):  # disequality: nothing useful to narrow
        if va.is_const and vb.is_const and va.lo == vb.lo:
            return None
        return refined

    less = (op is Op.BLT and taken) or (op is Op.BGE and not taken)
    if less:  # a < b
        a2 = _intersect(va, None, None if vb.hi is None else vb.hi - 1)
        b2 = _intersect(vb, None if va.lo is None else va.lo + 1, None)
    else:  # a >= b
        a2 = _intersect(va, vb.lo, None)
        b2 = _intersect(vb, None, va.hi)
    if a2 is None or b2 is None:
        return None
    refined.set(insn.a, a2)
    refined.set(insn.b, b2)
    return refined


# -- per-function fixpoint ----------------------------------------------------


@dataclass
class FunctionFacts:
    """Post-fixpoint abstract facts for one function."""

    name: str
    #: JR/CALLR index -> abstract target value.
    transfer_val: Dict[int, AbsVal] = field(default_factory=dict)


#: What crossing one CFG edge proves about the values: the refined copy,
#: or None when the edge is provably infeasible.
EdgeRefinement = Callable[[AbsState], Optional[AbsState]]

S = TypeVar("S", bound="FlowState")


class FlowState(Protocol):
    """What :func:`solve_function` needs of the state it carries."""

    def copy(self: S) -> S: ...

    def join_with(self: S, other: S, *, widening: bool) -> S: ...

    def along_edge(self: S, refine: EdgeRefinement) -> Optional[S]:
        """This state carried across one edge, its :class:`AbsState`
        component passed through ``refine`` (a state without one ignores
        it)."""


def _edge_refinements(
    binary: Binary, cfg: CFG, block: BasicBlock
) -> Dict[int, EdgeRefinement]:
    """What each successor edge of ``block`` proves, by successor block."""
    insn = binary.text[block.terminator]
    out: Dict[int, EdgeRefinement] = {
        succ: AbsState.copy for succ in block.successors
    }
    if insn.op in BRANCH_OPS and cfg.function.contains(insn.c):
        taken_block = cfg.block_at[insn.c]
        # ``block_at`` covers this function only: no entry past its end.
        fall_block = cfg.block_at.get(block.terminator + 1)
        # Both edges landing on the same block: no refinement holds.
        if taken_block != fall_block:
            out[taken_block] = lambda s: refine_branch(s, insn, taken=True)
            if fall_block is not None:
                out[fall_block] = lambda s: refine_branch(s, insn, taken=False)
    elif insn.op is Op.SWITCH:
        last = max(0, len(table_targets(binary, insn.c)) - 1)

        def in_table(state: AbsState) -> AbsState:
            refined = state.copy()
            idx_val = _intersect(refined.get(insn.a), 0, last)
            if idx_val is not None:
                refined.set(insn.a, idx_val)
            return refined

        for succ in block.successors:
            out[succ] = in_table
    return out


def solve_function(
    binary: Binary,
    cfg: CFG,
    entry: S,
    transfer: Callable[[S, Insn, int], None],
) -> Dict[int, S]:
    """Block-entry states of one function at the fixed point of ``transfer``.

    The one worklist solver of the analysis: :func:`analyze_function`
    runs it over :class:`AbsState`, the taint lint over its product state
    and over reaching definitions.  Blocks in FIFO order, ``transfer``
    applied in place per instruction, branch/switch edges refined
    (infeasible ones pruned), joins widened after ``_WIDEN_AFTER`` visits.
    Branches and switches have no register effects, so the refinements
    apply to the block's final state.  A block the entry cannot reach
    gets no state.
    """
    in_states: Dict[int, S] = {cfg.entry_block: entry}
    visits: Dict[int, int] = {}
    worklist: List[int] = [cfg.entry_block]
    steps = 0

    while worklist:
        block_id = worklist.pop(0)
        steps += 1
        if steps > _MAX_STEPS:
            raise AnalysisError(
                f"{binary.name}/{cfg.function.name}: abstract interpretation "
                f"did not converge within {_MAX_STEPS} steps"
            )
        visits[block_id] = visits.get(block_id, 0) + 1
        state = in_states[block_id].copy()
        block = cfg.blocks[block_id]
        for index in block.indices():
            transfer(state, binary.text[index], index)
        for succ, refine in _edge_refinements(binary, cfg, block).items():
            edge_state = state.along_edge(refine)
            if edge_state is None:
                continue  # provably infeasible edge
            existing = in_states.get(succ)
            if existing is None:
                in_states[succ] = edge_state
                worklist.append(succ)
                continue
            widening = visits.get(succ, 0) >= _WIDEN_AFTER
            merged = existing.join_with(edge_state, widening=widening)
            if merged != existing:
                in_states[succ] = merged
                if succ not in worklist:
                    worklist.append(succ)
    return in_states


def analyze_function(binary: Binary, cfg: CFG) -> FunctionFacts:
    """Run the abstract interpreter over one function to a fixed point."""
    in_states = solve_function(
        binary, cfg, AbsState(), lambda state, insn, _index: step(state, insn)
    )
    facts = FunctionFacts(name=cfg.function.name)
    for block_id, in_state in in_states.items():
        state = in_state.copy()
        block = cfg.blocks[block_id]
        for index in block.indices():
            insn = binary.text[index]
            if insn.op in (Op.JR, Op.CALLR):
                facts.transfer_val[index] = state.get(insn.a)
            step(state, insn)
    return facts
