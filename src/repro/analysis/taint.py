"""Speculation-security taint analysis (analysis stage 5).

The paper's hint channel is observable: every speculative ``SPEC_READ``
discloses an (ino, offset, length) triple to the OS, and the resulting
prefetch pattern is visible to anything that can watch the disk.  That
makes the hint queue a classic transmission channel in the sense of the
speculative-leak literature (Speculose; "Abstract Interpretation under
Speculative Execution"): if a *secret-derived* value ever reaches a hint
operand along a speculatively reachable path, the binary leaks.

This module proves it can't (or produces a witness when it can):

* programs mark secret data regions in the assembler
  (``data_bytes(..., secret=True)``); each secret symbol is one taint
  *label*;
* a taint domain — ``Taint = FrozenSet[label]``, join = union — runs in
  lockstep with the interval/function-pointer/stack-slot domain from
  :mod:`repro.analysis.absint` through the same worklist solver
  (:func:`~repro.analysis.absint.solve_function`, carrying the product
  of the two states), so taint decisions can lean on value information
  (a provably *constant* result carries no data taint: ``andi x,
  secret, 0`` sanitizes);
* memory taint is bucketed per data symbol (plus a catch-all for
  non-data addresses), stack-slot taint rides the tracked slots;
* **implicit flows**: a branch (or switch) on a tainted condition taints
  every value defined in its control-dependent region, computed from
  postdominators (Ferrante–Ottenstein regions; stage 1's dominator
  routine over the reversed CFG) and iterated to a fixed point;
* **interprocedural**: context-insensitive call summaries (the join of
  a function's taint states at its returns: return and scratch-register
  taint, memory taint effects) iterated with the per-call-site entry
  environments to a global fixed point;
* **sinks**: every speculation-reachable ``read`` (it becomes a
  ``SPEC_READ`` hint disclosure in shadow code) and every manual hint
  ioctl.  Channels: ``ino`` (fd identity, register ``a0``), ``offset``
  (a coarse per-state file-offset channel fed by ``lseek`` operands and
  read lengths), ``length`` (register ``a2``), and ``control`` (the
  *occurrence* of the disclosure is secret-dependent);
* **witnesses**: a leak's def-use chain walks reaching definitions,
  the third state the same solver carries (:func:`reaching_definitions`).

Soundness boundary: calls are maximally conservative (a callee may
return anything derived from its arguments or reachable memory);
functions are entered only through flows the call graph exposes
(matching the handler's "function entries only" rule); writes through
pointers into a caller's live stack frame are folded into the memory
smear rather than per-slot taint; postdominator regions under-approximate
inside infinite loops (none of the shipped binaries has one).  Every
*declared* secret is tracked; the lint cannot see secrets a program
never marks.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.absint import (
    AbsState,
    AbsVal,
    EdgeRefinement,
    ValueKind,
    address_of,
    solve_function,
    step,
)
from repro.analysis.cfg import CFG, dominator_sets, reachable
from repro.analysis.dataflow import (
    CALL_CLOBBERS,
    IMM_ALU,
    THREE_REG_ALU,
    defs_uses,
)
from repro.analysis.driver import (
    BinaryAnalysis,
    LintFinding,
    analyze_binary,
    require_original,
    resolved_callee,
)
from repro.errors import AnalysisError
from repro.vm.binary import Binary, Function
from repro.vm.disasm import format_insn
from repro.vm.isa import (
    BRANCH_OPS,
    NUM_REGS,
    SEEK_SET,
    SYS_HINT_FD_SEG,
    SYS_HINT_SEG,
    SYS_LSEEK,
    SYS_OPEN,
    SYS_READ,
    Insn,
    Op,
    Reg,
)
from repro.vm.memory import DATA_BASE

# -- the taint lattice --------------------------------------------------------

#: One taint value: the set of secret-region labels a value may derive
#: from.  Bottom is the empty set; the lattice is the powerset of the
#: binary's secret symbols, so it is finite and join = union suffices
#: for termination (widening degenerates to join).
Taint = FrozenSet[str]

EMPTY_TAINT: Taint = frozenset()


def taint_join(a: Taint, b: Taint) -> Taint:
    """Least upper bound: set union."""
    return a | b


def taint_widen(a: Taint, b: Taint) -> Taint:
    """Widening: the lattice is finite, so plain join already terminates."""
    return taint_join(a, b)


_ZERO = int(Reg.zero)
_RA = int(Reg.ra)
_V0 = int(Reg.v0)
_V1 = int(Reg.v1)
_A0 = int(Reg.a0)
_A1 = int(Reg.a1)
_A2 = int(Reg.a2)
_ARG_REGS = tuple(int(r) for r in (Reg.a0, Reg.a1, Reg.a2, Reg.a3, Reg.a4, Reg.a5))

#: Catch-all memory bucket for addresses outside the data segment
#: (speculative heap, unmapped): one conflated cell.
_HEAP_BUCKET = "@heap"

#: Ordered leak channels (report order is stable).
CHANNELS = ("ino", "offset", "length", "control")

#: Bound on interprocedural rounds / implicit-flow iterations (defence in
#: depth: both lattices are finite, so the fixpoints terminate anyway).
_MAX_ROUNDS = 64


class TaintState:
    """Taint component of the product state.

    Mirrors :class:`~repro.analysis.absint.AbsState` (registers + tracked
    stack slots) and adds the memory buckets, the smear (writes through
    unresolved pointers), and the coarse file-offset channel.
    """

    __slots__ = ("regs", "slots", "mem", "smear", "offset")

    def __init__(
        self,
        regs: Optional[List[Taint]] = None,
        slots: Optional[Dict[int, Taint]] = None,
        mem: Optional[Dict[str, Taint]] = None,
        smear: Taint = EMPTY_TAINT,
        offset: Taint = EMPTY_TAINT,
    ) -> None:
        self.regs: List[Taint] = [EMPTY_TAINT] * NUM_REGS if regs is None else regs
        self.slots: Dict[int, Taint] = {} if slots is None else slots
        self.mem: Dict[str, Taint] = {} if mem is None else mem
        self.smear = smear
        self.offset = offset

    def copy(self) -> "TaintState":
        return TaintState(
            list(self.regs), dict(self.slots), dict(self.mem),
            self.smear, self.offset,
        )

    def get(self, reg: int) -> Taint:
        return self.regs[reg]

    def set(self, reg: int, taint: Taint) -> None:
        if reg != _ZERO:  # architecturally pinned to 0: never tainted
            self.regs[reg] = taint

    def mem_union(self) -> Taint:
        out = self.smear
        for taint in self.mem.values():
            out |= taint
        return out

    def caller_saved(self) -> Taint:
        """Everything the call-clobbered registers (v0/v1 included) carry."""
        return EMPTY_TAINT.union(*(self.regs[r] for r in CALL_CLOBBERS))

    def join_with(self, other: "TaintState") -> "TaintState":
        regs = [a | b for a, b in zip(self.regs, other.regs)]
        slots: Dict[int, Taint] = dict(self.slots)
        for key, taint in other.slots.items():
            slots[key] = slots.get(key, EMPTY_TAINT) | taint
        mem: Dict[str, Taint] = dict(self.mem)
        for name, taint in other.mem.items():
            mem[name] = mem.get(name, EMPTY_TAINT) | taint
        return TaintState(
            regs, slots, mem,
            self.smear | other.smear, self.offset | other.offset,
        )

    @staticmethod
    def _nonempty(d: Dict[object, Taint]) -> Dict[object, Taint]:
        return {k: v for k, v in d.items() if v}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TaintState):
            return NotImplemented
        return (
            self.regs == other.regs
            and self._nonempty(dict(self.slots)) == self._nonempty(dict(other.slots))
            and self._nonempty(dict(self.mem)) == self._nonempty(dict(other.mem))
            and self.smear == other.smear
            and self.offset == other.offset
        )


@dataclass
class _Product:
    """What the taint fixpoint carries through the stage 3 solver: the
    abstract values and, in lockstep, their taint."""

    values: AbsState
    taint: TaintState

    def copy(self) -> "_Product":
        return _Product(self.values.copy(), self.taint.copy())

    def join_with(self, other: "_Product", *, widening: bool) -> "_Product":
        return _Product(
            self.values.join_with(other.values, widening=widening),
            self.taint.join_with(other.taint),
        )

    def along_edge(self, refine: EdgeRefinement) -> Optional["_Product"]:
        values = refine(self.values)
        return None if values is None else _Product(values, self.taint.copy())


# -- reaching definitions -----------------------------------------------------

#: A definition site: (instruction index, register).
DefSite = Tuple[int, int]


@dataclass
class _ReachingDefs:
    """The definition sites that may reach a point, as the stage 3 solver
    carries them: join is union (a finite lattice, so widening is join
    too), and no edge refines a definition."""

    sites: FrozenSet[DefSite] = frozenset()

    def copy(self) -> "_ReachingDefs":
        return _ReachingDefs(self.sites)

    def join_with(
        self, other: "_ReachingDefs", *, widening: bool
    ) -> "_ReachingDefs":
        return _ReachingDefs(self.sites | other.sites)

    def along_edge(self, refine: EdgeRefinement) -> Optional["_ReachingDefs"]:
        return self.copy()

    def define(self, insn: Insn, index: int) -> None:
        """Step over ``insn`` at ``index``: its definitions kill and
        replace every earlier one of the same registers."""
        defs, _ = defs_uses(insn)
        if defs:
            self.sites = frozenset(
                d for d in self.sites if d[1] not in defs
            ) | frozenset((index, reg) for reg in defs)


def reaching_definitions(
    binary: Binary, cfg: CFG
) -> Dict[int, FrozenSet[DefSite]]:
    """Definition sites reaching each instruction the function entry can
    reach (the set where the instruction starts)."""
    in_states = solve_function(binary, cfg, _ReachingDefs(),
                               _ReachingDefs.define)
    result: Dict[int, FrozenSet[DefSite]] = {}
    for block_id, in_state in in_states.items():
        state = in_state.copy()
        for index in cfg.blocks[block_id].indices():
            result[index] = state.sites
            state.define(binary.text[index], index)
    return result


# -- reports ------------------------------------------------------------------


@dataclass(frozen=True)
class WitnessStep:
    """One step of a leak's def-use witness chain."""

    index: int
    function: str
    text: str
    note: str

    def format(self) -> str:
        return f"@{self.index} [{self.function}] {self.text}  ; {self.note}"


@dataclass(frozen=True)
class LeakReport:
    """One hint-disclosure site a secret can flow into."""

    index: int
    function: str
    #: "spec-read" (a read that becomes a SPEC_READ hint in shadow code)
    #: or "manual-hint" (a TIPIO hint ioctl issued directly).
    site: str
    #: Channel name -> sorted secret labels reaching that operand.
    channels: Dict[str, Tuple[str, ...]]
    witness: Tuple[WitnessStep, ...]

    @property
    def labels(self) -> Tuple[str, ...]:
        out: Set[str] = set()
        for names in self.channels.values():
            out.update(names)
        return tuple(sorted(out))

    def format(self) -> str:
        chans = ", ".join(
            f"{name}<-{{{', '.join(self.channels[name])}}}"
            for name in CHANNELS if name in self.channels
        )
        lines = [
            f"leak at {self.function}@{self.index} ({self.site}): {chans}"
        ]
        lines.extend(f"    {step.format()}" for step in self.witness)
        return "\n".join(lines)


@dataclass
class SecurityPlan:
    """The security lint's verdict over one binary."""

    binary_name: str
    secret_labels: Tuple[str, ...]
    #: Speculation-reachable read sites (hint disclosure sites) plus
    #: manual hint-ioctl sites, original-text indices.
    disclosure_sites: Tuple[int, ...]
    leaks: List[LeakReport]
    functions_analyzed: Tuple[str, ...]

    @property
    def clean(self) -> bool:
        return not self.leaks

    def lint(self) -> List[LintFinding]:
        findings = [
            LintFinding(
                "error", "secret-to-hint", leak.function, leak.index,
                f"secret region(s) {', '.join(leak.labels)} flow into the "
                f"{'/'.join(n for n in CHANNELS if n in leak.channels)} "
                f"operand(s) of a disclosed hint ({leak.site})",
            )
            for leak in self.leaks
        ]
        findings.sort(key=lambda f: (f.function, -1 if f.index is None else f.index))
        return findings

    def to_jsonable(self) -> Dict[str, object]:
        return {
            "binary": self.binary_name,
            "secret_regions": list(self.secret_labels),
            "disclosure_sites": list(self.disclosure_sites),
            "functions_analyzed": list(self.functions_analyzed),
            "clean": self.clean,
            "leaks": [
                {
                    "index": leak.index,
                    "function": leak.function,
                    "site": leak.site,
                    "channels": {
                        name: list(labels)
                        for name, labels in sorted(leak.channels.items())
                    },
                    "witness": [asdict(step) for step in leak.witness],
                }
                for leak in self.leaks
            ],
        }

    def format_text(self) -> str:
        lines = [
            f"security analysis of {self.binary_name}: "
            f"{len(self.secret_labels)} secret region(s), "
            f"{len(self.disclosure_sites)} disclosure site(s), "
            f"{len(self.leaks)} leak(s)",
        ]
        if self.secret_labels:
            lines.append(f"  secrets: {', '.join(self.secret_labels)}")
        if self.clean:
            lines.append(
                "  clean: no secret-derived value reaches a hint operand "
                "along any speculatively reachable path"
            )
        else:
            for leak in self.leaks:
                lines.append("")
                lines.extend("  " + ln for ln in leak.format().splitlines())
        return "\n".join(lines)


# -- data-segment bucket map --------------------------------------------------


class _DataMap:
    """Partition of the address space into taint buckets.

    One bucket per data symbol (its extent runs to the next symbol), plus
    ``@heap`` conflating everything outside the data segment that is not
    the tracked stack.
    """

    def __init__(self, binary: Binary) -> None:
        self.data_end = DATA_BASE + len(binary.data)
        bounds = sorted(binary.data_symbols.items(), key=lambda kv: kv[1])
        self.ranges: List[Tuple[int, int, str]] = []
        for i, (name, base) in enumerate(bounds):
            end = bounds[i + 1][1] if i + 1 < len(bounds) else self.data_end
            self.ranges.append((base, max(end, base + 1), name))
        self.all_buckets: Tuple[str, ...] = tuple(
            name for _, _, name in self.ranges
        ) + (_HEAP_BUCKET,)

    def buckets_for(self, addr: AbsVal) -> Optional[Tuple[str, ...]]:
        """Buckets ``addr`` may touch; ``None`` when unresolved (any)."""
        if addr.kind is ValueKind.STACK:
            return ()  # handled by the tracked stack slots
        if addr.kind is not ValueKind.NUM or addr.lo is None or addr.hi is None:
            return None
        out = [
            name for base, end, name in self.ranges
            if addr.lo < end and addr.hi >= base
        ]
        if addr.lo < DATA_BASE or addr.hi >= self.data_end:
            out.append(_HEAP_BUCKET)
        return tuple(out)


# -- control dependence -------------------------------------------------------

_EXIT = -1


def _postdominators(cfg: CFG) -> Dict[int, FrozenSet[int]]:
    """Postdominator sets over blocks: dominators of the reversed CFG,
    entered at a virtual exit every successor-less block flows into."""
    blocks = cfg.blocks
    return dominator_sets(
        _EXIT,
        [_EXIT] + [b.block_id for b in blocks],
        lambda n: blocks[n].successors or [_EXIT],
    )


def _control_region(
    cfg: CFG, pdom: Dict[int, FrozenSet[int]], block_id: int
) -> FrozenSet[int]:
    """Instruction indices control-dependent on ``block_id``'s terminator:
    everything reachable from its successors short of a block that
    postdominates the branch."""
    stop = pdom[block_id] - {block_id}

    def onward(b: int) -> List[int]:
        return [s for s in cfg.blocks[b].successors if s not in stop]

    out: Set[int] = set()
    for b in reachable(onward(block_id), onward):
        out.update(cfg.blocks[b].indices())
    return frozenset(out)


@dataclass
class _FuncReport:
    """Per-function results of the final reporting pass."""

    taint_before: Dict[int, Tuple[Taint, ...]] = field(default_factory=dict)
    offset_before: Dict[int, Taint] = field(default_factory=dict)
    load_mem_taint: Dict[int, Taint] = field(default_factory=dict)
    implicit: Dict[int, Taint] = field(default_factory=dict)
    controllers: Dict[int, Tuple[int, ...]] = field(default_factory=dict)
    sinks: List[Tuple[int, str, Dict[str, Taint]]] = field(default_factory=list)


# -- the interpreter ----------------------------------------------------------


class _TaintInterp:
    """Whole-binary taint fixpoint over the product domain."""

    def __init__(self, binary: Binary, analysis: BinaryAnalysis) -> None:
        self.binary = binary
        self.analysis = analysis
        self.datamap = _DataMap(binary)
        self.labels: Tuple[str, ...] = tuple(sorted(binary.secret_symbols))
        self.cfgs: Dict[str, CFG] = analysis.cfgs
        self.pdoms: Dict[str, Dict[int, FrozenSet[int]]] = {}
        #: Per-function entry taint environment (join over call sites).
        self.entry_env: Dict[str, TaintState] = {}
        #: Per-function call summary (join over the states at its returns):
        #: what a call may do to its caller's taint state.
        self.summaries: Dict[str, TaintState] = {
            f.name: TaintState() for f in binary.functions
        }
        self.reports: Dict[str, _FuncReport] = {}
        self._recording: Optional[_FuncReport] = None
        self._implicit: Dict[int, Taint] = {}

    # -- taint transfer ------------------------------------------------------

    def _mem_load_taint(self, state: TaintState, addr: AbsVal) -> Taint:
        buckets = self.datamap.buckets_for(addr)
        if buckets is None:
            buckets = self.datamap.all_buckets
        out = state.smear
        for name in buckets:
            out |= state.mem.get(name, EMPTY_TAINT)
        return out

    def _mem_store(self, state: TaintState, addr: AbsVal, taint: Taint) -> None:
        buckets = self.datamap.buckets_for(addr)
        if buckets is None:
            state.smear |= taint
            return
        for name in buckets:
            state.mem[name] = state.mem.get(name, EMPTY_TAINT) | taint

    def _callee_of(self, index: int) -> Optional[str]:
        return resolved_callee(self.binary, self.analysis.transfers, index)

    @staticmethod
    def _join_into(
        table: Dict[str, TaintState], name: str, state: TaintState
    ) -> bool:
        """Join ``state`` into ``table[name]``; True when that grew it."""
        existing = table.get(name)
        merged = state if existing is None else existing.join_with(state)
        if merged != existing:
            table[name] = merged
            return True
        return False

    def _record_call_flow(self, callee: Optional[str], t: TaintState) -> bool:
        env = t.copy()
        env.slots = {}
        env.regs[_RA] = EMPTY_TAINT
        if callee is not None:
            return self._join_into(self.entry_env, callee, env)
        changed = False
        for func in self.binary.functions:
            if self._join_into(self.entry_env, func.name, env.copy()):
                changed = True
        return changed

    def _apply_call(
        self, t: TaintState, callee: Optional[str], imp: Taint
    ) -> None:
        if callee is not None:
            summ = self.summaries[callee]
            scratch = summ.caller_saved() | imp
            ret = summ.get(_V0) | summ.get(_V1) | imp
            for name, taint in summ.mem.items():
                t.mem[name] = t.mem.get(name, EMPTY_TAINT) | taint
            t.smear |= summ.smear
            t.offset |= summ.offset
        else:
            # Unknown callee: it may return anything derived from the
            # arguments or any reachable memory.
            u = t.mem_union() | t.offset | imp
            for reg in _ARG_REGS:
                u |= t.regs[reg]
            for summ in self.summaries.values():
                u |= summ.caller_saved()
            scratch = ret = u
            t.smear |= u
            t.offset |= u
        for reg in CALL_CLOBBERS:
            t.regs[reg] = scratch
        t.set(_V0, ret)
        t.set(_V1, ret)
        t.regs[_RA] = imp
        t.slots.clear()

    def _syscall_taint(
        self, t: TaintState, a: AbsState, insn: Insn, index: int, imp: Taint
    ) -> None:
        num = insn.c
        rt = t.get
        if num == SYS_OPEN:
            # fd identity derives from the path pointer and the path bytes.
            path = rt(_A0) | self._mem_load_taint(t, a.get(_A0)) | imp
            t.set(_V0, path)
            return
        if num == SYS_READ:
            t_in = rt(_A0) | t.offset | rt(_A2) | imp
            t.set(_V0, t_in)
            # The buffer now holds data selected by fd/offset/length.
            buf = a.get(_A1)
            if buf.kind is ValueKind.STACK:
                for key in t.slots:
                    t.slots[key] |= t_in
            else:
                self._mem_store(t, buf, t_in | rt(_A1))
            # The file offset advances by the amount read.
            t.offset |= rt(_A0) | rt(_A2) | imp
            return
        if num == SYS_LSEEK:
            moved = rt(_A0) | rt(_A1) | imp
            whence = a.get(_A2)
            if whence.is_const and whence.lo == SEEK_SET:
                t.offset = moved  # absolute seek: prior offset is dead
            else:
                t.offset |= moved
            t.set(_V0, moved | t.offset)
            return
        if num in (SYS_HINT_SEG, SYS_HINT_FD_SEG):
            t.set(_V0, imp)
            return
        t.set(_V0, rt(_A0) | rt(_A1) | rt(_A2) | imp)

    def _exec(
        self, a: AbsState, t: TaintState, insn: Insn, index: int
    ) -> None:
        """One instruction over the product state (taint first: it needs
        the *pre*-step abstract values for address resolution)."""
        op = insn.op
        imp = self._implicit.get(index, EMPTY_TAINT)
        rt = t.get

        if op in (Op.LI, Op.LA):
            t.set(insn.a, imp)
        elif op is Op.MOV:
            t.set(insn.a, rt(insn.b) | imp)
        elif op in THREE_REG_ALU:
            t.set(insn.a, rt(insn.b) | rt(insn.c) | imp)
        elif op in IMM_ALU:
            t.set(insn.a, rt(insn.b) | imp)
        elif op in (Op.LOAD, Op.LOADB):
            addr = address_of(a.get(insn.b), insn.c)
            if addr.kind is ValueKind.STACK:
                mem_taint = t.slots.get(addr.delta, EMPTY_TAINT) | t.smear
            else:
                mem_taint = self._mem_load_taint(t, addr)
            if self._recording is not None:
                self._recording.load_mem_taint[index] = mem_taint
            t.set(insn.a, mem_taint | rt(insn.b) | imp)
        elif op in (Op.STORE, Op.STOREB):
            val = rt(insn.a) | rt(insn.b) | imp
            addr = address_of(a.get(insn.b), insn.c)
            if addr.kind is ValueKind.STACK:
                if op is Op.STORE:
                    t.slots[addr.delta] = val
                else:
                    t.slots[addr.delta] = t.slots.get(addr.delta, EMPTY_TAINT) | val
                for key in t.slots:
                    if key != addr.delta and key < addr.delta + 8 \
                            and addr.delta < key + 8:
                        t.slots[key] |= val
            else:
                self._mem_store(t, addr, val)
        elif op in (Op.CALL, Op.CALLR):
            callee = self._callee_of(index)
            self._apply_call(t, callee, imp)
        elif op is Op.SYSCALL:
            self._syscall_taint(t, a, insn, index, imp)
        # Branches, JMP, JR, SWITCH, NOP, HALT, CWORK: no register effects
        # (condition taint feeds the implicit-flow pass instead).

        step(a, insn)

        # Constant sanitization: a provably constant result cannot carry
        # data taint (its value is the same under every secret).  Implicit
        # taint survives — *which* constant ran can still be the leak.
        if op in THREE_REG_ALU or op in IMM_ALU or op is Op.MOV:
            if a.get(insn.a).is_const:
                t.set(insn.a, imp)

    # -- per-function fixpoint ----------------------------------------------

    def _branch_cond_taint(
        self, insn: Insn, t: TaintState
    ) -> Taint:
        if insn.op in BRANCH_OPS:
            return t.get(insn.a) | t.get(insn.b)
        if insn.op is Op.SWITCH:
            return t.get(insn.a)
        return EMPTY_TAINT

    def _solve(self, func: Function, entry_taint: TaintState) -> Dict[int, _Product]:
        """Product fixpoint under the current implicit-taint map."""
        return solve_function(
            self.binary, self.cfgs[func.name],
            _Product(AbsState(), entry_taint.copy()),
            lambda p, insn, index: self._exec(p.values, p.taint, insn, index),
        )

    def _implicit_for(
        self,
        func: Function,
        states: Dict[int, _Product],
        implicit: Dict[int, Taint],
        controllers: Dict[int, Set[int]],
    ) -> bool:
        """Extend ``implicit`` with this solution's tainted-branch regions.
        Returns True when anything grew."""
        binary = self.binary
        cfg = self.cfgs[func.name]
        pdom = self.pdoms[func.name]
        changed = False
        for block_id, state in states.items():
            block = cfg.blocks[block_id]
            a_state, t_state = state.values.copy(), state.taint.copy()
            for index in range(block.start, block.end - 1):
                self._exec(a_state, t_state, binary.text[index], index)
            term = block.terminator
            cond = self._branch_cond_taint(binary.text[term], t_state)
            if not cond:
                continue
            for index in _control_region(cfg, pdom, block_id):
                if cond - implicit.get(index, EMPTY_TAINT):
                    implicit[index] = implicit.get(index, EMPTY_TAINT) | cond
                    controllers.setdefault(index, set()).add(term)
                    changed = True
        return changed

    def _final_pass(
        self,
        func: Function,
        states: Dict[int, _Product],
        implicit: Dict[int, Taint],
        controllers: Dict[int, Set[int]],
    ) -> Tuple[TaintState, bool]:
        """Record per-index snapshots, sinks, call flows and the summary."""
        binary = self.binary
        cfg = self.cfgs[func.name]
        report = _FuncReport(
            implicit=dict(implicit),
            controllers={k: tuple(sorted(v)) for k, v in controllers.items()},
        )
        self.reports[func.name] = report
        self._recording = report
        summary = TaintState()
        env_changed = False

        for block_id, state in states.items():
            a_state, t_state = state.values.copy(), state.taint.copy()
            block = cfg.blocks[block_id]
            for index in block.indices():
                insn = binary.text[index]
                report.taint_before[index] = tuple(t_state.regs)
                report.offset_before[index] = t_state.offset
                if insn.op is Op.SYSCALL:
                    sink = self._sink_channels(index, insn, a_state, t_state)
                    if sink is not None:
                        report.sinks.append(sink)
                if insn.op in (Op.CALL, Op.CALLR):
                    callee = self._callee_of(index)
                    if self._record_call_flow(callee, t_state):
                        env_changed = True
                self._exec(a_state, t_state, insn, index)
            if binary.text[block.terminator].op is Op.JR:
                # Intraprocedurally a JR ends the function: fold this exit
                # state into the call summary.
                summary = summary.join_with(t_state)
        self._recording = None
        return summary, env_changed

    def _sink_channels(
        self, index: int, insn: Insn, a: AbsState, t: TaintState
    ) -> Optional[Tuple[int, str, Dict[str, Taint]]]:
        imp = self._implicit.get(index, EMPTY_TAINT)
        if insn.c == SYS_READ and index in self.analysis.spec_reachable:
            channels = {
                "ino": t.get(_A0),
                "offset": t.offset,
                "length": t.get(_A2),
                "control": imp,
            }
            kind = "spec-read"
        elif insn.c in (SYS_HINT_SEG, SYS_HINT_FD_SEG):
            ino = t.get(_A0)
            if insn.c == SYS_HINT_SEG:
                ino |= self._mem_load_taint(t, a.get(_A0))
            channels = {
                "ino": ino,
                "offset": t.get(_A1),
                "length": t.get(_A2),
                "control": imp,
            }
            kind = "manual-hint"
        else:
            return None
        channels = {name: taint for name, taint in channels.items() if taint}
        if not channels:
            return None
        return (index, kind, channels)

    # -- whole-binary driver -------------------------------------------------

    def run(self) -> Tuple[List[LeakReport], Tuple[str, ...]]:
        binary = self.binary
        entry_func = binary.function_containing(binary.entry_point)
        if entry_func is None:
            raise AnalysisError(
                f"{binary.name}: entry point outside every function"
            )
        for name, cfg in self.cfgs.items():
            self.pdoms[name] = _postdominators(cfg)

        entry_state = TaintState(
            mem={name: frozenset({name}) for name in self.labels}
        )
        self.entry_env[entry_func.name] = entry_state

        implicit_maps: Dict[str, Dict[int, Taint]] = {}
        controller_maps: Dict[str, Dict[int, Set[int]]] = {}

        rounds = 0
        changed = True
        while changed:
            rounds += 1
            if rounds > _MAX_ROUNDS:
                raise AnalysisError(
                    f"{binary.name}: interprocedural taint fixpoint did "
                    f"not converge within {_MAX_ROUNDS} rounds"
                )
            changed = False
            for func in binary.functions:
                env = self.entry_env.get(func.name)
                if env is None:
                    continue  # no flow ever enters this function
                implicit = implicit_maps.setdefault(func.name, {})
                controllers = controller_maps.setdefault(func.name, {})
                # Inner loop: stabilize implicit flows for this function.
                for _ in range(_MAX_ROUNDS):
                    self._implicit = implicit
                    states = self._solve(func, env)
                    if not self._implicit_for(
                        func, states, implicit, controllers
                    ):
                        break
                else:  # pragma: no cover - finite lattice
                    raise AnalysisError(
                        f"{binary.name}/{func.name}: implicit-flow pass "
                        f"did not converge"
                    )
                self._implicit = implicit
                summary, env_changed = self._final_pass(
                    func, states, implicit, controllers
                )
                if env_changed:
                    changed = True
                if self._join_into(self.summaries, func.name, summary):
                    changed = True

        leaks = self._build_leaks()
        analyzed = tuple(sorted(self.entry_env))
        return leaks, analyzed

    # -- witnesses -----------------------------------------------------------

    def _build_leaks(self) -> List[LeakReport]:
        leaks: List[LeakReport] = []
        for func in self.binary.functions:
            report = self.reports.get(func.name)
            if report is None or not report.sinks:
                continue
            rdefs = reaching_definitions(self.binary, self.cfgs[func.name])
            seen: Set[int] = set()
            for index, kind, channels in sorted(report.sinks):
                if index in seen:
                    continue
                seen.add(index)
                witness = self._witness(func, report, rdefs, index, channels)
                leaks.append(LeakReport(
                    index=index,
                    function=func.name,
                    site=kind,
                    channels={
                        name: tuple(sorted(taint))
                        for name, taint in channels.items()
                    },
                    witness=tuple(witness),
                ))
        leaks.sort(key=lambda leak: (leak.function, leak.index))
        return leaks

    def _witness(
        self,
        func: Function,
        report: _FuncReport,
        rdefs: Dict[int, FrozenSet[DefSite]],
        index: int,
        channels: Dict[str, Taint],
    ) -> List[WitnessStep]:
        binary = self.binary
        text = binary.text
        steps = [WitnessStep(
            index, func.name, format_insn(text[index]),
            "hint disclosure site: "
            + "/".join(n for n in CHANNELS if n in channels)
            + " operand(s) tainted",
        )]

        start: Optional[Tuple[int, int]] = None
        if "ino" in channels:
            start = (index, _A0)
        elif "length" in channels:
            start = (index, _A2)
        elif "offset" in channels:
            site = self._offset_source(func, report, index)
            if site is not None:
                src_index, src_reg = site
                steps.append(WitnessStep(
                    src_index, func.name, format_insn(text[src_index]),
                    "taints the file-offset channel consumed by the hint",
                ))
                start = (src_index, src_reg)
        elif "control" in channels:
            ctrl = report.controllers.get(index)
            if ctrl:
                branch = ctrl[0]
                steps.append(WitnessStep(
                    branch, func.name, format_insn(text[branch]),
                    "disclosure is control-dependent on this tainted branch",
                ))
                start = self._tainted_operand(report, branch)

        if start is not None:
            steps.extend(self._chain(func, report, rdefs, start))
        return steps

    def _offset_source(
        self, func: Function, report: _FuncReport, sink: int
    ) -> Optional[Tuple[int, int]]:
        """The nearest preceding lseek/read whose operands taint the
        offset channel, and the register to chain from."""
        text = self.binary.text
        for idx in range(sink - 1, func.entry - 1, -1):
            insn = text[idx]
            if insn.op is not Op.SYSCALL or insn.c not in (SYS_LSEEK, SYS_READ):
                continue
            regs = report.taint_before.get(idx)
            if regs is None:
                continue
            for reg in (_A1, _A0, _A2):
                if regs[reg]:
                    return (idx, reg)
        return None

    def _tainted_operand(
        self, report: _FuncReport, index: int
    ) -> Optional[Tuple[int, int]]:
        regs = report.taint_before.get(index)
        if regs is None:
            return None
        _, uses = defs_uses(self.binary.text[index])
        for reg in sorted(uses):
            if regs[reg]:
                return (index, reg)
        return None

    def _chain(
        self,
        func: Function,
        report: _FuncReport,
        rdefs: Dict[int, FrozenSet[DefSite]],
        start: Tuple[int, int],
    ) -> List[WitnessStep]:
        text = self.binary.text
        steps: List[WitnessStep] = []
        visited: Set[Tuple[int, int]] = set()
        cur: Optional[Tuple[int, int]] = start
        for _ in range(16):
            if cur is None or cur in visited:
                break
            visited.add(cur)
            at, reg = cur
            defs = sorted(
                d for (d, r) in rdefs.get(at, frozenset()) if r == reg
            )
            if not defs:
                break
            d = defs[-1]
            insn = text[d]
            regs = report.taint_before.get(d)
            imp = report.implicit.get(d, EMPTY_TAINT)
            note = "propagates taint"
            nxt: Optional[Tuple[int, int]] = None
            if insn.op in (Op.LOAD, Op.LOADB):
                mem_taint = report.load_mem_taint.get(d, EMPTY_TAINT)
                if regs is not None and regs[insn.b]:
                    note = "loads through a secret-derived address"
                    nxt = (d, insn.b)
                elif mem_taint:
                    note = (
                        "loads memory tainted by secret region(s) "
                        + ", ".join(sorted(mem_taint))
                    )
                else:
                    note = "loads secret-tainted memory"
            elif insn.op is Op.MOV and regs is not None and regs[insn.b]:
                nxt = (d, insn.b)
            elif insn.op in THREE_REG_ALU and regs is not None:
                for operand in (insn.b, insn.c):
                    if regs[operand]:
                        nxt = (d, operand)
                        break
            elif insn.op in IMM_ALU and regs is not None and regs[insn.b]:
                nxt = (d, insn.b)
            elif insn.op is Op.SYSCALL:
                note = "syscall result derives from tainted operands"
                nxt = self._tainted_operand(report, d)
            elif insn.op in (Op.CALL, Op.CALLR):
                callee = self._callee_of(d) or "an unresolved callee"
                nxt = self._tainted_operand(report, d)
                if nxt is not None:
                    note = (f"result of {callee} derives from tainted call "
                            f"operand {Reg(nxt[1]).name}")
                else:
                    note = f"{callee} returns secret-tainted data"
            if nxt is None and imp:
                ctrl = report.controllers.get(d)
                if ctrl:
                    steps.append(WitnessStep(
                        d, func.name, format_insn(insn),
                        "implicit flow: defined under a tainted branch",
                    ))
                    branch = ctrl[0]
                    steps.append(WitnessStep(
                        branch, func.name, format_insn(text[branch]),
                        "the controlling branch condition is secret-tainted",
                    ))
                    cur = self._tainted_operand(report, branch)
                    continue
                note = "implicit flow from a tainted branch"
            steps.append(WitnessStep(d, func.name, format_insn(insn), note))
            cur = nxt
        return steps


# -- public entry point -------------------------------------------------------


def analyze_security(
    binary: Binary,
    analysis: Optional[BinaryAnalysis] = None,
) -> SecurityPlan:
    """Run the speculation-security taint analysis over one binary.

    Reuses ``analysis`` (the :func:`repro.analysis.driver.analyze_binary`
    result) when the caller already has it; computes it otherwise.
    """
    require_original(binary)
    if analysis is None:
        analysis = analyze_binary(binary)

    sites = sorted(
        index
        for index in analysis.spec_reachable
        if 0 <= index < len(binary.text)
        and binary.text[index].op is Op.SYSCALL
        and binary.text[index].c == SYS_READ
    )
    for index, insn in enumerate(binary.text):
        if insn.op is Op.SYSCALL and insn.c in (SYS_HINT_SEG, SYS_HINT_FD_SEG):
            sites.append(index)
    disclosure_sites = tuple(sorted(set(sites)))
    labels = tuple(sorted(binary.secret_symbols))

    if not labels:
        # No declared secrets: the taint lattice is {∅} and the binary is
        # vacuously clean.  Skip the fixpoint but keep the site inventory.
        return SecurityPlan(
            binary_name=binary.name,
            secret_labels=(),
            disclosure_sites=disclosure_sites,
            leaks=[],
            functions_analyzed=tuple(f.name for f in binary.functions),
        )

    interp = _TaintInterp(binary, analysis)
    leaks, analyzed = interp.run()
    return SecurityPlan(
        binary_name=binary.name,
        secret_labels=labels,
        disclosure_sites=disclosure_sites,
        leaks=leaks,
        functions_analyzed=analyzed,
    )
