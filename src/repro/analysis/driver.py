"""Whole-binary analysis driver (stage 4).

Runs the per-function pipeline (CFG -> abstract interpretation), then
computes the whole-program facts ``repro analyze`` reports and the taint
lint (``taint.py``) builds on:

* classification of every computed control transfer (resolved to a
  provable function target / a return / unknown / provably unmappable);
* speculation reachability — the set of original-text instructions the
  speculating thread can reach from any read-resume point under the
  shadow-code semantics (stripped output calls, "handler maps function
  entries", suppressed syscalls);
* per-function syscall reachability;
* lint findings for binaries speculation cannot safely pre-execute.

The SpecHint tool reads none of it: it transforms every binary
mechanically, and the runtime isolation auditor is what keeps speculation
from touching original state.
"""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.absint import (
    AbsVal,
    FunctionFacts,
    ValueKind,
    analyze_function,
)
from repro.analysis.cfg import CFG, build_cfg, reachable, table_targets
from repro.errors import AnalysisError
from repro.vm.binary import Binary
from repro.vm.isa import (
    BRANCH_OPS,
    SYS_EXIT,
    SYS_READ,
    SYSCALL_NAMES,
    Op,
)


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


@dataclass
class FunctionSummary:
    """Per-function roll-up for reports."""

    name: str
    blocks: int
    spec_reachable: bool
    syscalls: Tuple[str, ...]


@dataclass
class BinaryAnalysis:
    """Everything the analysis learned about one binary."""

    binary: Binary
    cfgs: Dict[str, CFG]
    facts: Dict[str, FunctionFacts]
    transfers: Dict[int, TransferFact]
    spec_roots: FrozenSet[int]
    spec_reachable: FrozenSet[int]
    syscalls_per_function: Dict[str, FrozenSet[int]]
    lint: List[LintFinding]
    summaries: List[FunctionSummary]

    # -- derived ---------------------------------------------------------

    @property
    def binary_name(self) -> str:
        return self.binary.name

    def transfer_count(self, kind: TransferKind) -> int:
        return sum(1 for t in self.transfers.values() if t.kind is kind)

    @property
    def lint_errors(self) -> List[LintFinding]:
        return [f for f in self.lint if f.severity == "error"]

    # -- rendering -------------------------------------------------------

    def to_jsonable(self) -> Dict[str, object]:
        return {
            "binary": self.binary_name,
            "functions": [
                {**asdict(s), "syscalls": list(s.syscalls)}
                for s in self.summaries
            ],
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
            f"  transfers: {self.transfer_count(TransferKind.RESOLVED)} "
            f"resolved, {self.transfer_count(TransferKind.RETURN)} returns, "
            f"{self.transfer_count(TransferKind.UNKNOWN)} unknown, "
            f"{self.transfer_count(TransferKind.UNMAPPABLE)} unmappable",
            "",
            f"  {'function':<16} {'blocks':>6} {'spec?':>5}  syscalls",
        ]
        for s in self.summaries:
            reach = "yes" if s.spec_reachable else "no"
            lines.append(
                f"  {s.name:<16} {s.blocks:>6} {reach:>5}  "
                f"{', '.join(s.syscalls) or '-'}"
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


# -- the driver ---------------------------------------------------------------


def require_original(binary: Binary) -> None:
    """Every analysis runs over original text, never a tool output."""
    if getattr(binary, "spec_meta", None) is not None:
        raise AnalysisError(
            f"{binary.name}: analyze the original binary, not the "
            f"transformed one (shadow code is generated, not analyzed)"
        )


def analyze_binary(binary: Binary) -> BinaryAnalysis:
    """Run the full static-analysis pipeline over one SpecVM binary."""
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

    lint = _lint(binary, cfgs, transfers, reachable)

    summaries: List[FunctionSummary] = []
    for func in binary.functions:
        fn_reachable = any(
            i in reachable for i in range(func.entry, func.end)
        )
        names = tuple(
            SYSCALL_NAMES.get(num, f"sys#{num}")
            for num in sorted(syscalls[func.name])
        )
        summaries.append(FunctionSummary(
            name=func.name,
            blocks=len(cfgs[func.name].blocks),
            spec_reachable=fn_reachable,
            syscalls=names,
        ))

    return BinaryAnalysis(
        binary=binary,
        cfgs=cfgs,
        facts=facts,
        transfers=transfers,
        spec_roots=roots,
        spec_reachable=reachable,
        syscalls_per_function=syscalls,
        lint=lint,
        summaries=summaries,
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
