"""Whole-binary analysis driver (stage 4).

Runs the per-function pipeline (CFG -> dataflow -> abstract
interpretation), then computes the whole-program facts the SpecHint tool
consumes:

* classification of every computed control transfer (resolved to a
  provable function target / a return / unknown / provably unmappable);
* speculation reachability — the set of original-text instructions the
  speculating thread can reach from any read-resume point under the
  shadow-code semantics (stripped output calls, "handler maps function
  entries", suppressed syscalls);
* a store classification (SPEC_LOCAL / MAY_ESCAPE / UNKNOWN);
* per-function syscall reachability;
* an :class:`ElisionPlan` of COW checks that can be skipped and computed
  transfers that can be statically redirected;
* lint findings for binaries speculation cannot safely pre-execute.

Everything here is *advice*: the runtime isolation auditor remains the
soundness oracle.  A store the plan wrongly unwraps still hits the
armed write guard and raises ``IsolationViolation`` before it can land,
and a wrongly redirected transfer still jumps to a shadow function
entry — quarantine costs performance, never correctness.
"""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass, field
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Set, Tuple

from repro.analysis.absint import (
    STACK_BASE,
    AbsVal,
    FunctionFacts,
    ValueKind,
    analyze_function,
    range_avoids,
    range_within,
)
from repro.analysis.cfg import CFG, build_cfg, reachable, table_targets
from repro.analysis.dataflow import live_out
from repro.errors import AnalysisError
from repro.vm.binary import Binary
from repro.vm.disasm import format_insn
from repro.vm.isa import (
    BRANCH_OPS,
    SYS_EXIT,
    SYS_READ,
    SYSCALL_NAMES,
    Insn,
    Op,
)
from repro.vm.memory import DATA_BASE, SPEC_HEAP_BASE, SPEC_HEAP_MAX


#: Cycles added by the COW check wrapped around each shadow-code load.
COW_LOAD_CHECK_CYCLES = 5

#: Cycles added by the COW check wrapped around each shadow-code store.
COW_STORE_CHECK_CYCLES = 7

#: Divisor applied to COW check costs inside the hand-optimized shadow
#: string routines (strncpy/memcpy analogues, Section 3.3).
OPTIMIZED_STDLIB_CHECK_DIVISOR = 8


class CheckCosts(NamedTuple):
    """COW check cycle costs for one function's loads and stores."""

    load: int
    store: int


def check_costs(optimized_stdlib: bool) -> CheckCosts:
    """Per-access COW check cycles, honouring the optimized-stdlib divisor."""
    load, store = COW_LOAD_CHECK_CYCLES, COW_STORE_CHECK_CYCLES
    if optimized_stdlib:
        load = max(1, load // OPTIMIZED_STDLIB_CHECK_DIVISOR)
        store = max(1, store // OPTIMIZED_STDLIB_CHECK_DIVISOR)
    return CheckCosts(load, store)


class StoreClass(enum.Enum):
    """What a store can touch, as far as the analysis can prove."""

    #: Provably speculation-local: the (pre-copied) stack or the
    #: speculative heap.
    SPEC_LOCAL = "spec_local"
    #: Provably escapes speculation-local memory (data segment).
    MAY_ESCAPE = "may_escape"
    #: No proof either way; the COW wrapper stays.
    UNKNOWN = "unknown"


class TransferKind(enum.Enum):
    """Classification of one computed control transfer site."""

    RESOLVED = "resolved"          # provable function-entry target
    RETURN = "return"              # JR on a return address
    UNKNOWN = "unknown"            # could be any mappable function entry
    UNMAPPABLE = "unmappable"      # provable non-entry constant: parks
    TABLE_STATIC = "table_static"          # recognized table, twinned
    TABLE_DYNAMIC = "table_dynamic"        # unrecognized, entry targets
    TABLE_UNMAPPABLE = "table_unmappable"  # unrecognized, non-entry targets


@dataclass(frozen=True)
class TransferFact:
    """One JR/CALLR/SWITCH site and what the analysis proved about it."""

    index: int
    function: str
    kind: TransferKind
    target: Optional[int] = None
    detail: str = ""


@dataclass(frozen=True)
class LintFinding:
    """One problem ``repro analyze --lint`` reports."""

    severity: str  # "error" | "warning"
    code: str
    function: str
    index: Optional[int]
    message: str

    def format(self) -> str:
        where = f"@{self.index}" if self.index is not None else ""
        return (f"{self.severity}: [{self.code}] {self.function}{where}: "
                f"{self.message}")


class SiteCheck(enum.Enum):
    """What the shadow copy of one load/store site pays for isolation."""

    #: Assembler-marked stack access: no check (the stack was pre-copied
    #: at restart time, paper footnote 3) and none in the baseline either.
    STACK_MARKED = "stack_marked"
    #: Store speculation can never reach: stays a plain store (the armed
    #: write guard is the backstop if the analysis were ever wrong).
    DEAD_STORE = "dead_store"
    #: Load speculation can never reach: COW semantics, no check cycles.
    DEAD_LOAD = "dead_load"
    #: Store provably confined to the speculative heap, where the write
    #: guard explicitly allows direct stores: stays a plain store.
    HEAP_STORE = "heap_store"
    #: Provably stack-relative though not assembler-marked: no check.
    STACK_PROVED = "stack_proved"
    #: The full COW check.
    FULL = "full"

    @property
    def elided(self) -> bool:
        """The COW wrapper is removed entirely (a plain store remains)."""
        return self in (SiteCheck.DEAD_STORE, SiteCheck.HEAP_STORE)


@dataclass(frozen=True)
class ElisionPlan:
    """Optimizations the SpecHint tool may apply, by original text index."""

    #: Instructions the speculating thread can never reach: their stores
    #: need no COW wrapper, their loads no COW check cycles.
    dead: FrozenSet[int] = frozenset()
    #: Live loads/stores with a provably stack-relative address that the
    #: assembler did not mark (the pre-copied stack needs no check).
    stack_proved: FrozenSet[int] = frozenset()
    #: Live stores provably confined to the speculative heap (write-guard
    #: allowed even for plain stores).
    heap_stores: FrozenSet[int] = frozenset()
    #: JR/CALLR index -> provable function-entry target.
    resolved: Dict[int, int] = field(default_factory=dict)

    @property
    def empty(self) -> bool:
        return not (self.dead or self.stack_proved or self.heap_stores
                    or self.resolved)

    def site_check(self, index: int, insn: Insn) -> SiteCheck:
        """The one per-site decision: what the load/store ``insn`` at
        original text ``index`` gets in the shadow code."""
        is_store = insn.op in (Op.STORE, Op.STOREB)
        if insn.get_meta("stack"):
            return SiteCheck.STACK_MARKED
        if index in self.dead:
            return SiteCheck.DEAD_STORE if is_store else SiteCheck.DEAD_LOAD
        if is_store and index in self.heap_stores:
            return SiteCheck.HEAP_STORE
        if index in self.stack_proved:
            return SiteCheck.STACK_PROVED
        return SiteCheck.FULL


@dataclass
class FunctionSummary:
    """Per-function roll-up for reports."""

    name: str
    blocks: int
    loops: int
    max_live_regs: int
    stores: int
    spec_reachable: bool
    syscalls: Tuple[str, ...]


@dataclass
class BinaryAnalysis:
    """Everything the analysis learned about one binary."""

    binary: Binary
    cfgs: Dict[str, CFG]
    facts: Dict[str, FunctionFacts]
    store_classes: Dict[int, StoreClass]
    transfers: Dict[int, TransferFact]
    spec_roots: FrozenSet[int]
    spec_reachable: FrozenSet[int]
    syscalls_per_function: Dict[str, FrozenSet[int]]
    elision_plan: ElisionPlan
    lint: List[LintFinding]
    check_cycles_baseline: int
    check_cycles_optimized: int
    summaries: List[FunctionSummary]

    # -- derived ---------------------------------------------------------

    @property
    def binary_name(self) -> str:
        return self.binary.name

    def store_count(self, cls: StoreClass) -> int:
        return sum(1 for c in self.store_classes.values() if c is cls)

    def transfer_count(self, kind: TransferKind) -> int:
        return sum(1 for t in self.transfers.values() if t.kind is kind)

    def _store_sites(self) -> List[SiteCheck]:
        return [
            self.elision_plan.site_check(index, self.binary.text[index])
            for index in self.store_classes
        ]

    @property
    def wrapped_store_sites(self) -> int:
        """Stores the mechanical transformation would wrap with a check
        (assembler-marked stack stores carry none and are excluded)."""
        return sum(
            site is not SiteCheck.STACK_MARKED for site in self._store_sites()
        )

    @property
    def elidable_store_sites(self) -> int:
        return sum(site.elided for site in self._store_sites())

    @property
    def lint_errors(self) -> List[LintFinding]:
        return [f for f in self.lint if f.severity == "error"]

    @property
    def check_cycles_saved_pct(self) -> float:
        if self.check_cycles_baseline <= 0:
            return 0.0
        saved = self.check_cycles_baseline - self.check_cycles_optimized
        return 100.0 * saved / self.check_cycles_baseline

    # -- rendering -------------------------------------------------------

    def to_jsonable(self) -> Dict[str, object]:
        return {
            "binary": self.binary_name,
            "functions": [
                {**asdict(s), "syscalls": list(s.syscalls)}
                for s in self.summaries
            ],
            "stores": {
                cls.value: self.store_count(cls) for cls in StoreClass
            },
            "transfers": {
                kind.value: self.transfer_count(kind)
                for kind in TransferKind
            },
            "spec_roots": sorted(self.spec_roots),
            "syscall_reachability": {
                name: [
                    {
                        "num": num,
                        "name": SYSCALL_NAMES.get(num, f"sys#{num}"),
                    }
                    for num in sorted(nums)
                ]
                for name, nums in sorted(self.syscalls_per_function.items())
            },
            "spec_reachable_insns": len(self.spec_reachable),
            "total_insns": len(self.binary.text),
            "elision": {
                "dead_insns": len(self.elision_plan.dead),
                "elidable_stores": self.elidable_store_sites,
                "wrapped_stores": self.wrapped_store_sites,
                "stack_proved": len(self.elision_plan.stack_proved),
                "heap_stores": len(self.elision_plan.heap_stores),
                "resolved_transfers": {
                    str(k): v for k, v in self.elision_plan.resolved.items()
                },
            },
            "check_cycles": {
                "baseline": self.check_cycles_baseline,
                "optimized": self.check_cycles_optimized,
                "saved_pct": round(self.check_cycles_saved_pct, 2),
            },
            "lint": [asdict(f) for f in self.lint],
        }

    def format_text(self) -> str:
        text = self.binary.text
        lines = [
            f"analysis of {self.binary_name}: {len(self.cfgs)} functions, "
            f"{len(text)} instructions",
            f"  speculation roots: {len(self.spec_roots)} read-resume "
            f"points; reachable {len(self.spec_reachable)}/{len(text)} "
            f"instructions",
            f"  stores: {self.store_count(StoreClass.SPEC_LOCAL)} spec-local"
            f" / {self.store_count(StoreClass.MAY_ESCAPE)} may-escape / "
            f"{self.store_count(StoreClass.UNKNOWN)} unknown; "
            f"{self.elidable_store_sites}/{self.wrapped_store_sites} "
            f"COW store wrappers elidable",
            f"  transfers: {self.transfer_count(TransferKind.RESOLVED)} "
            f"resolved, {self.transfer_count(TransferKind.RETURN)} returns, "
            f"{self.transfer_count(TransferKind.UNKNOWN)} unknown, "
            f"{self.transfer_count(TransferKind.UNMAPPABLE)} unmappable",
            f"  cow check cycles: {self.check_cycles_baseline} -> "
            f"{self.check_cycles_optimized} "
            f"(-{self.check_cycles_saved_pct:.0f}%)",
            "",
            f"  {'function':<16} {'blocks':>6} {'loops':>5} "
            f"{'liveregs':>8} {'stores':>6} {'spec?':>5}  syscalls",
        ]
        for s in self.summaries:
            reach = "yes" if s.spec_reachable else "no"
            lines.append(
                f"  {s.name:<16} {s.blocks:>6} {s.loops:>5} "
                f"{s.max_live_regs:>8} {s.stores:>6} {reach:>5}  "
                f"{', '.join(s.syscalls) or '-'}"
            )
        resolved = self.elision_plan.resolved
        if resolved:
            lines.append("")
            for index, entry in sorted(resolved.items()):
                name = self.binary.function_at_entry(entry)
                target = name.name if name is not None else f"@{entry}"
                lines.append(
                    f"  resolved @{index}: {format_insn(text[index])} "
                    f"-> {target}"
                )
        if self.lint:
            lines.append("")
            lines.extend(f"  {f.format()}" for f in self.lint)
        return "\n".join(lines)


# -- transfer classification --------------------------------------------------


def _classify_value_transfer(
    binary: Binary, index: int, function: str, value: AbsVal
) -> TransferFact:
    insn = binary.text[index]
    entries = binary.function_entries()
    if value.kind is ValueKind.FUNC and value.entry in entries:
        return TransferFact(index, function, TransferKind.RESOLVED,
                            target=value.entry,
                            detail=entries[value.entry].name)
    if value.kind is ValueKind.RETADDR and insn.op is Op.JR:
        return TransferFact(index, function, TransferKind.RETURN)
    if value.is_const:
        target = value.lo
        assert target is not None
        if target in entries:
            # The handling routine would map this constant identically.
            return TransferFact(index, function, TransferKind.RESOLVED,
                                target=target,
                                detail=entries[target].name)
        return TransferFact(
            index, function, TransferKind.UNMAPPABLE,
            detail=f"constant target {target} is not a function entry",
        )
    return TransferFact(index, function, TransferKind.UNKNOWN)


def _classify_transfers(
    binary: Binary, facts: Dict[str, FunctionFacts]
) -> Dict[int, TransferFact]:
    transfers: Dict[int, TransferFact] = {}
    for name, fn_facts in facts.items():
        for index, value in fn_facts.transfer_val.items():
            transfers[index] = _classify_value_transfer(
                binary, index, name, value
            )
    for func in binary.functions:
        for index in range(func.entry, func.end):
            insn = binary.text[index]
            if insn.op is not Op.SWITCH:
                continue
            table = binary.jump_table(insn.c)
            if table.recognized:
                transfers[index] = TransferFact(
                    index, func.name, TransferKind.TABLE_STATIC
                )
            elif all(binary.is_function_entry(t) for t in table.targets):
                transfers[index] = TransferFact(
                    index, func.name, TransferKind.TABLE_DYNAMIC,
                    detail="unrecognized table; all targets mappable",
                )
            else:
                bad = [t for t in table.targets
                       if not binary.is_function_entry(t)]
                transfers[index] = TransferFact(
                    index, func.name, TransferKind.TABLE_UNMAPPABLE,
                    detail=(f"unrecognized table with non-entry targets "
                            f"{bad[:4]}"),
                )
    return transfers


def resolved_callee(
    binary: Binary, transfers: Dict[int, TransferFact], index: int
) -> Optional[str]:
    """The one function the CALL/CALLR at ``index`` provably enters
    (None: a computed call the analysis could not resolve)."""
    insn = binary.text[index]
    entry: Optional[int] = insn.c
    if insn.op is Op.CALLR:
        fact = transfers.get(index)
        if fact is None or fact.kind is not TransferKind.RESOLVED:
            return None
        entry = fact.target
    callee = None if entry is None else binary.function_at_entry(entry)
    return None if callee is None else callee.name


# -- speculation reachability -------------------------------------------------


def spec_roots(binary: Binary) -> FrozenSet[int]:
    """Shadow resume points: the instruction after each blocking read."""
    return frozenset(
        i + 1
        for i, insn in enumerate(binary.text)
        if insn.op is Op.SYSCALL and insn.c == SYS_READ
        and i + 1 < len(binary.text)
    )


def _spec_successors(
    binary: Binary,
    index: int,
    transfers: Dict[int, TransferFact],
    all_entries: Tuple[int, ...],
) -> Tuple[int, ...]:
    """Successors of ``index`` under shadow-code semantics."""
    insn = binary.text[index]
    op = insn.op
    falls = (index + 1,) if index + 1 < len(binary.text) else ()

    if op in BRANCH_OPS:
        return (insn.c, *falls)
    if op is Op.JMP:
        return (insn.c,)
    if op is Op.CALL:
        if insn.get_meta("call_target") in binary.output_routines:
            return falls  # stripped from the shadow code
        return (insn.c, *falls)
    if op in (Op.JR, Op.CALLR):
        returns = falls if op is Op.CALLR else ()
        fact = transfers.get(index)
        kind = fact.kind if fact is not None else TransferKind.UNKNOWN
        if kind is TransferKind.RESOLVED and fact is not None \
                and fact.target is not None:
            return (fact.target, *returns)
        if kind is TransferKind.RETURN:
            return ()  # covered by the caller's fallthrough edge
        if kind is TransferKind.UNMAPPABLE:
            return ()  # the handling routine parks speculation
        return (*all_entries, *returns)
    if op is Op.SWITCH:
        return table_targets(binary, insn.c)
    if op is Op.HALT or (op is Op.SYSCALL and insn.c == SYS_EXIT):
        return ()  # HALT becomes a guarded exit: both park
    return falls


def spec_reachability(
    binary: Binary,
    transfers: Dict[int, TransferFact],
    roots: FrozenSet[int],
) -> FrozenSet[int]:
    """Original-text indices the speculating thread can reach."""
    all_entries = tuple(sorted(f.entry for f in binary.functions))
    return frozenset(reachable(
        roots, lambda i: _spec_successors(binary, i, transfers, all_entries)
    ))


# -- syscall reachability -----------------------------------------------------


def _syscall_reachability(
    binary: Binary, transfers: Dict[int, TransferFact]
) -> Dict[str, FrozenSet[int]]:
    """Per function: syscall numbers reachable from its entry (shadow
    semantics — stripped output-routine calls do not propagate)."""
    direct: Dict[str, Set[int]] = {}
    callees: Dict[str, Set[str]] = {}
    all_names = [f.name for f in binary.functions]
    for func in binary.functions:
        direct[func.name] = set()
        callees[func.name] = set()
        for index in range(func.entry, func.end):
            insn = binary.text[index]
            if insn.op is Op.SYSCALL:
                direct[func.name].add(insn.c)
            elif insn.op in (Op.CALL, Op.CALLR):
                if insn.get_meta("call_target") in binary.output_routines:
                    continue
                callee = resolved_callee(binary, transfers, index)
                if callee is not None:
                    callees[func.name].add(callee)
                elif insn.op is Op.CALLR:
                    callees[func.name].update(all_names)

    result = {name: set(nums) for name, nums in direct.items()}
    changed = True
    while changed:
        changed = False
        for name in all_names:
            for callee_name in callees[name]:
                before = len(result[name])
                result[name] |= result[callee_name]
                if len(result[name]) != before:
                    changed = True
    return {name: frozenset(nums) for name, nums in result.items()}


# -- store classification -----------------------------------------------------


def _classify_store(insn_meta_stack: bool, addr: Optional[AbsVal]) -> StoreClass:
    if insn_meta_stack:
        return StoreClass.SPEC_LOCAL
    if addr is None:
        return StoreClass.UNKNOWN
    if addr.kind is ValueKind.STACK:
        return StoreClass.SPEC_LOCAL
    if range_within(addr, SPEC_HEAP_BASE, SPEC_HEAP_MAX):
        return StoreClass.SPEC_LOCAL
    if range_within(addr, DATA_BASE, STACK_BASE):
        return StoreClass.MAY_ESCAPE
    return StoreClass.UNKNOWN


# -- the driver ---------------------------------------------------------------


def require_original(binary: Binary) -> None:
    """Every analysis runs over original text, never a tool output."""
    if getattr(binary, "spec_meta", None) is not None:
        raise AnalysisError(
            f"{binary.name}: analyze the original binary, not the "
            f"transformed one (shadow code is generated, not analyzed)"
        )


def analyze_binary(
    binary: Binary, map_all_addresses: bool = False,
) -> BinaryAnalysis:
    """Run the full static-analysis pipeline over one SpecVM binary.

    ``map_all_addresses`` mirrors the SpecHint tool ablation: the
    handling routine can then enter functions mid-body, which invalidates
    the entry-state assumptions every optimization rests on, so the
    returned :class:`ElisionPlan` is empty (the report is still useful).
    """
    require_original(binary)

    cfgs: Dict[str, CFG] = {}
    facts: Dict[str, FunctionFacts] = {}
    for func in binary.functions:
        cfg = build_cfg(binary, func)
        cfgs[func.name] = cfg
        facts[func.name] = analyze_function(binary, cfg)

    transfers = _classify_transfers(binary, facts)
    roots = spec_roots(binary)
    reachable = spec_reachability(binary, transfers, roots)
    syscalls = _syscall_reachability(binary, transfers)

    # Store classification over every store in every function.
    store_classes: Dict[int, StoreClass] = {}
    store_addr: Dict[int, Optional[AbsVal]] = {}
    for func in binary.functions:
        fn_facts = facts[func.name]
        for index in range(func.entry, func.end):
            insn = binary.text[index]
            if insn.op not in (Op.STORE, Op.STOREB):
                continue
            addr = fn_facts.store_addr.get(index)
            store_addr[index] = addr
            store_classes[index] = _classify_store(
                bool(insn.get_meta("stack")), addr
            )

    plan = _build_plan(
        binary, facts, transfers, reachable, store_classes, store_addr,
        map_all_addresses,
    )
    lint = _lint(binary, cfgs, transfers, reachable)
    baseline, optimized = _check_cycle_totals(binary, plan)

    summaries: List[FunctionSummary] = []
    for func in binary.functions:
        cfg = cfgs[func.name]
        live = live_out(binary, cfg)
        max_live = max((len(regs) for regs in live.values()), default=0)
        stores = sum(
            1 for i in range(func.entry, func.end)
            if binary.text[i].op in (Op.STORE, Op.STOREB)
        )
        fn_reachable = any(
            i in reachable for i in range(func.entry, func.end)
        )
        names = tuple(
            SYSCALL_NAMES.get(num, f"sys#{num}")
            for num in sorted(syscalls[func.name])
        )
        summaries.append(FunctionSummary(
            name=func.name,
            blocks=len(cfg.blocks),
            loops=len(cfg.loops),
            max_live_regs=max_live,
            stores=stores,
            spec_reachable=fn_reachable,
            syscalls=names,
        ))

    return BinaryAnalysis(
        binary=binary,
        cfgs=cfgs,
        facts=facts,
        store_classes=store_classes,
        transfers=transfers,
        spec_roots=roots,
        spec_reachable=reachable,
        syscalls_per_function=syscalls,
        elision_plan=plan,
        lint=lint,
        check_cycles_baseline=baseline,
        check_cycles_optimized=optimized,
        summaries=summaries,
    )


def _build_plan(
    binary: Binary,
    facts: Dict[str, FunctionFacts],
    transfers: Dict[int, TransferFact],
    reachable: FrozenSet[int],
    store_classes: Dict[int, StoreClass],
    store_addr: Dict[int, Optional[AbsVal]],
    map_all_addresses: bool,
) -> ElisionPlan:
    if map_all_addresses:
        # Garbage jumps can enter functions mid-body with arbitrary
        # register state: none of the per-function facts apply.
        return ElisionPlan()

    dead = frozenset(range(len(binary.text))) - reachable

    stack_proved: Set[int] = set()
    heap_candidates: Set[int] = set()
    heap_gate_ok = True
    for func in binary.functions:
        fn_facts = facts[func.name]
        for index in range(func.entry, func.end):
            insn = binary.text[index]
            if insn.op in (Op.LOAD, Op.LOADB, Op.STORE, Op.STOREB) \
                    and not insn.get_meta("stack") and index not in dead:
                is_store = insn.op in (Op.STORE, Op.STOREB)
                addr = (fn_facts.store_addr if is_store
                        else fn_facts.load_addr).get(index)
                if addr is not None and addr.kind is ValueKind.STACK:
                    stack_proved.add(index)
                elif is_store and addr is not None \
                        and range_within(addr, SPEC_HEAP_BASE, SPEC_HEAP_MAX):
                    heap_candidates.add(index)
        # Speculative read data is written through the COW map and can
        # create region copies: a read buffer that may overlap the spec
        # heap defeats the no-copies precondition below.
        for index, buf in fn_facts.read_buf.items():
            if index in reachable and not range_avoids(
                buf, SPEC_HEAP_BASE, SPEC_HEAP_MAX
            ):
                heap_gate_ok = False

    # Plain (unwrapped) spec-heap stores are only coherent with COW loads
    # if no COW copy of a spec-heap region can ever exist — which holds
    # exactly when every store still going through the COW map provably
    # avoids the spec heap.
    if heap_candidates:
        for index, cls in store_classes.items():
            if index in dead or index in heap_candidates:
                continue
            insn = binary.text[index]
            addr = store_addr.get(index)
            if insn.get_meta("stack") or (
                addr is not None and addr.kind is ValueKind.STACK
            ):
                continue  # stack segment: disjoint from the spec heap
            if addr is None or not range_avoids(
                addr, SPEC_HEAP_BASE, SPEC_HEAP_MAX
            ):
                heap_gate_ok = False
                break
    heap_stores = frozenset(heap_candidates) if heap_gate_ok else frozenset()

    resolved = {
        index: fact.target
        for index, fact in transfers.items()
        if fact.kind is TransferKind.RESOLVED and fact.target is not None
        and binary.text[index].op in (Op.JR, Op.CALLR)
    }
    return ElisionPlan(
        dead=dead,
        stack_proved=frozenset(stack_proved),
        heap_stores=heap_stores,
        resolved=resolved,
    )


def _lint(
    binary: Binary,
    cfgs: Dict[str, CFG],
    transfers: Dict[int, TransferFact],
    reachable: FrozenSet[int],
) -> List[LintFinding]:
    findings: List[LintFinding] = []
    for index, fact in sorted(transfers.items()):
        if index not in reachable:
            continue
        if fact.kind is TransferKind.UNMAPPABLE:
            findings.append(LintFinding(
                "error", "unmappable-transfer", fact.function, index,
                f"speculation-reachable computed transfer can never be "
                f"mapped: {fact.detail}",
            ))
        elif fact.kind is TransferKind.TABLE_UNMAPPABLE:
            findings.append(LintFinding(
                "error", "unmappable-jump-table", fact.function, index,
                f"speculation parks at this switch: {fact.detail}",
            ))
        elif fact.kind is TransferKind.UNKNOWN:
            findings.append(LintFinding(
                "warning", "unresolved-transfer", fact.function, index,
                "computed transfer target unknown; the handling routine "
                "maps it at runtime (function entries only)",
            ))
    for func in binary.functions:
        for index in range(func.entry, func.end):
            insn = binary.text[index]
            if insn.op is Op.SYSCALL and index in reachable \
                    and insn.c not in SYSCALL_NAMES:
                findings.append(LintFinding(
                    "error", "unknown-syscall", func.name, index,
                    f"speculation-reachable syscall #{insn.c} has no "
                    f"runtime policy (would park as a side effect)",
                ))
        if cfgs[func.name].falls_off_end:
            findings.append(LintFinding(
                "warning", "falls-off-end", func.name, None,
                "a reachable block can fall through past the function "
                "end into the next function",
            ))
    order = {"error": 0, "warning": 1}
    findings.sort(key=lambda f: (order[f.severity], f.function,
                                 -1 if f.index is None else f.index))
    return findings


def _check_cycle_totals(binary: Binary, plan: ElisionPlan) -> Tuple[int, int]:
    """(baseline, post-analysis) total COW check cycles in the shadow."""
    baseline = 0
    optimized = 0
    for func in binary.functions:
        costs = check_costs(func.name in binary.optimized_stdlib)
        for index in range(func.entry, func.end):
            insn = binary.text[index]
            if insn.op in (Op.LOAD, Op.LOADB, Op.STORE, Op.STOREB):
                site = plan.site_check(index, insn)
                if site is SiteCheck.STACK_MARKED:
                    continue
                cost = (costs.store if insn.op in (Op.STORE, Op.STOREB)
                        else costs.load)
                baseline += cost
                if site is SiteCheck.FULL:
                    optimized += cost
            elif insn.op is Op.CWORK:
                dilation = insn.b * costs.load + insn.c * costs.store
                baseline += dilation
                optimized += dilation
    return baseline, optimized
