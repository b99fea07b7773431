"""Control-flow graphs over SpecVM functions (analysis stage 1).

Builds, per function, the classic compiler view of the original text
section: basic blocks and intraprocedural edges, plus the two graph
routines later stages share (one depth-first :func:`reachable`, one
:func:`dominator_sets` fixpoint).  The block splitter works from the
same instruction semantics as :mod:`repro.vm.disasm` renders
(branch/jump targets, jump-table operands, call fallthrough), and the
per-function listings in analysis reports are produced with
:func:`repro.vm.disasm.format_insn` so the two views can never drift
apart.

Intraprocedural conventions:

* ``CALL``/``CALLR`` fall through — "calls return" (every SpecVM function
  returns by ``JR ra`` or terminates the program);
* ``JR`` ends a path (a return, as far as the owning function is
  concerned — interprocedural effects are the driver's business);
* ``SWITCH`` edges go to the jump-table targets that lie inside the
  function; targets outside it are recorded as escapes;
* a reachable block whose last instruction can fall past ``func.end``
  sets :attr:`CFG.falls_off_end` — the "fallthrough into the next
  function" edge case the lint pass reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, List, Set, Tuple

from repro.vm.binary import Binary, Function
from repro.vm.isa import BRANCH_OPS, SYS_EXIT, Op

#: Opcodes that always end a basic block.
_BLOCK_ENDERS = frozenset(
    {Op.JMP, Op.JR, Op.CALL, Op.CALLR, Op.SWITCH, Op.HALT}
) | BRANCH_OPS

#: Opcodes after which execution can never fall to the next instruction.
_NO_FALLTHROUGH = frozenset({Op.JMP, Op.JR, Op.SWITCH, Op.HALT})


def table_targets(binary: Binary, table_id: int) -> Tuple[int, ...]:
    """Targets of jump table ``table_id`` (empty for an unknown id)."""
    if 0 <= table_id < len(binary.jump_tables):
        return tuple(binary.jump_tables[table_id].targets)
    return ()


def is_terminator(binary: Binary, index: int) -> bool:
    """True when the instruction at ``index`` ends a basic block."""
    insn = binary.text[index]
    if insn.op in _BLOCK_ENDERS:
        return True
    return insn.op is Op.SYSCALL and insn.c == SYS_EXIT


def falls_through(binary: Binary, index: int) -> bool:
    """True when execution at ``index`` may continue at ``index + 1``."""
    insn = binary.text[index]
    if insn.op in _NO_FALLTHROUGH:
        return False
    return not (insn.op is Op.SYSCALL and insn.c == SYS_EXIT)


def intra_successors(
    binary: Binary, index: int, func: Function
) -> Tuple[int, ...]:
    """Successor instruction indices of ``index`` within ``func``."""
    insn = binary.text[index]
    op = insn.op
    fall = index + 1 if index + 1 < func.end else None
    out: List[int] = []
    if op in BRANCH_OPS:
        if func.contains(insn.c):
            out.append(insn.c)
        if fall is not None:
            out.append(fall)
    elif op is Op.JMP:
        if func.contains(insn.c):
            out.append(insn.c)
    elif op is Op.SWITCH:
        out.extend(t for t in table_targets(binary, insn.c) if func.contains(t))
    elif op in (Op.JR, Op.HALT):
        pass
    elif op is Op.SYSCALL and insn.c == SYS_EXIT:
        pass
    elif fall is not None:  # plain instructions, CALL/CALLR, other syscalls
        out.append(fall)
    deduped: List[int] = []
    for target in out:
        if target not in deduped:
            deduped.append(target)
    return tuple(deduped)


def reachable(
    roots: Iterable[int], successors: Callable[[int], Iterable[int]]
) -> Set[int]:
    """Every node a depth-first walk from ``roots`` along ``successors``
    visits (the roots included)."""
    seen: Set[int] = set(roots)
    stack = list(seen)
    while stack:
        for succ in successors(stack.pop()):
            if succ not in seen:
                seen.add(succ)
                stack.append(succ)
    return seen


@dataclass
class BasicBlock:
    """A maximal straight-line run of instructions ``[start, end)``."""

    block_id: int
    start: int
    end: int
    successors: List[int] = field(default_factory=list)
    predecessors: List[int] = field(default_factory=list)

    @property
    def terminator(self) -> int:
        """Index of the last instruction in the block."""
        return self.end - 1

    def indices(self) -> range:
        return range(self.start, self.end)


@dataclass
class CFG:
    """The control-flow graph of one function."""

    function: Function
    blocks: List[BasicBlock]
    #: Instruction index -> owning block id.
    block_at: Dict[int, int]
    #: A reachable block may fall through past ``function.end``.
    falls_off_end: bool

    @property
    def entry_block(self) -> int:
        return 0

    def reachable_blocks(self) -> FrozenSet[int]:
        """Block ids reachable from the function entry."""
        return frozenset(reachable(
            [self.entry_block], lambda b: self.blocks[b].successors
        ))


def _leaders(binary: Binary, func: Function) -> List[int]:
    leaders: Set[int] = {func.entry}
    for index in range(func.entry, func.end):
        if not is_terminator(binary, index):
            continue
        insn = binary.text[index]
        if insn.op in BRANCH_OPS or insn.op is Op.JMP:
            if func.contains(insn.c):
                leaders.add(insn.c)
        elif insn.op is Op.SWITCH:
            for target in table_targets(binary, insn.c):
                if func.contains(target):
                    leaders.add(target)
        if index + 1 < func.end:
            leaders.add(index + 1)
    return sorted(leaders)


def dominator_sets(
    entry: int, nodes: Iterable[int], predecessors: Callable[[int], Iterable[int]]
) -> Dict[int, FrozenSet[int]]:
    """Dominator set of every node of a graph given by ``predecessors``.

    The one dominator fixpoint: the taint lint's postdominators run it
    over the reversed CFG from a virtual exit.  A node ``entry`` cannot
    reach keeps the full node set.
    """
    everything = frozenset(nodes)
    dom: Dict[int, FrozenSet[int]] = {n: everything for n in everything}
    dom[entry] = frozenset({entry})
    others = sorted(everything - {entry})
    changed = True
    while changed:
        changed = False
        for node in others:
            new = everything
            for pred in predecessors(node):
                new &= dom[pred]
            new |= {node}
            if new != dom[node]:
                dom[node] = new
                changed = True
    return dom


def build_cfg(binary: Binary, func: Function) -> CFG:
    """Basic blocks and their edges for one function."""
    leaders = _leaders(binary, func)
    blocks: List[BasicBlock] = []
    block_at: Dict[int, int] = {}
    for i, start in enumerate(leaders):
        end = leaders[i + 1] if i + 1 < len(leaders) else func.end
        block = BasicBlock(block_id=i, start=start, end=end)
        blocks.append(block)
        for index in range(start, end):
            block_at[index] = i

    for block in blocks:
        for target in intra_successors(binary, block.terminator, func):
            succ = block_at[target]
            if succ not in block.successors:
                block.successors.append(succ)
    for block in blocks:
        for succ in block.successors:
            blocks[succ].predecessors.append(block.block_id)

    cfg = CFG(function=func, blocks=blocks, block_at=block_at,
              falls_off_end=False)
    cfg.falls_off_end = any(
        blocks[b].end == func.end and falls_through(binary, blocks[b].terminator)
        for b in cfg.reachable_blocks()
    )
    return cfg


def build_cfgs(binary: Binary) -> Dict[str, CFG]:
    """CFGs for every function of ``binary``, keyed by function name."""
    return {func.name: build_cfg(binary, func) for func in binary.functions}
