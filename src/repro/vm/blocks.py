"""One definition per SpecVM instruction, run one at a time or as blocks.

Every non-system instruction has one template here: a few lines of Python
source over the registers ``r`` and the thread ``t``.  The machine runs
those templates in two shapes (:mod:`repro.vm.machine` decides which, and
does the bookkeeping; this module only knows how to turn instructions into
source):

* a *single step* — ``single_<OP>(t, r, a, b, c, pc)``, one function per
  opcode with the operands as arguments, generated once per address-space
  layout — executes the one instruction at ``pc``;
* a *block* — a maximal run of non-system instructions that starts at a
  leader (a branch, call, jump-table or fall-through target, a function
  entry, the instruction after a system one) and ends with the first
  control transfer or computation (``CWORK``/``SCWORK``, whose cycles join
  the block's static cost), or just before the next leader or system
  instruction — is translated into one generated function once its leader
  has been entered :data:`HOT_ENTRIES` times: registers as ``r[n]``,
  operands as constants, the terminating transfer as the returned pc.  The
  machine calls it in place of single steps and charges the block's cycles
  once.

The code and the entry counts are the program's, not the process's: a
:class:`Translation` hangs off the binary and outlives the run, so a later
process running the same program — the next cell of a sweep — execs the
code already compiled and translates a leader that was hot before at its
first entry (:class:`BlockTable` is that per-process binding).

What generated code promises the machine:

* it returns the next pc after executing *every* instruction it covers,
  whose static cycle costs are ``BlockTable.cycles`` (for a block
  ``prefix``, cumulative, one entry per instruction boundary);
* before any instruction that can fault or cost extra cycles it stores that
  instruction's index in ``thread.pc``, so a typed fault leaves the thread
  exactly at the faulting instruction, and
* an instruction that incurs *dynamic* cycles (a page reclaim or fault after
  a plain load/store, a first COW copy) raises :class:`BlockLeave` after it
  completes: such events are rare, so a block is simply left at that
  instruction boundary and single steps finish it.

Memory accesses do the accessors' common case inline and call the accessor
(``AddressSpace``/``CowMap`` bound methods, ``PageAccounting.touch_addr``)
for everything else: a plain access inside the stack or data segment reads
or writes the mapping directly (a store only while no write guard is
armed), a COW access inside a region already seen wholly mapped goes to its
copy or to main memory (a store only when the copy exists), and the page
reference is skipped for the page the accounting saw last.  The validity
tests and the armed write guard still run.  So does the auditor's
containment check after every COW store: the accessor makes it, and an
inline store writes only into the existing copy of the one region it
covers, which is what the check asks, so there it is counted as passed.
"""

from __future__ import annotations

import functools
import os
import zlib
from types import CodeType
from typing import Callable, Dict, List, Optional, Set, Tuple, cast

from repro.vm.binary import Binary
from repro.vm.isa import (
    ALU_COST,
    BRANCH_COST,
    CALL_COST,
    MASK64,
    MEM_COST,
    SWITCH_COST,
    TEXT_TARGET_OPS,
    Insn,
    Op,
)

#: Entries into a leader before its block is translated, counted over every
#: process that ran the program (``Translation.heat``).  ``compile()``
#: costs 15-25 us per generated line here (about 150 us for an 8-instruction
#: block) against about 1 us saved per executed instruction, so a block
#: pays for itself after a few dozen runs.  Leaders are static, which bounds
#: the cost either way: on the four-app speculating matrix, translating at
#: the first entry builds 222 blocks (1,584 lines, 23 ms a pass) that retire
#: 91.6 % of the instructions, translating at the 49th 148 blocks (1,193
#: lines, 17 ms) that retire 88.6 %, and the pass times cannot be told
#: apart; the threshold keeps start-up and error paths out of the compiler,
#: and a loop that a short sweep cell leaves below it goes on counting in
#: the next cell of the same program.
HOT_ENTRIES = 48

#: ``(function, need, count, cost, prefix)``: the generated function, the
#: static cycles before the last instruction (the block may start only with
#: more room than that), the instruction count, the total static cycles,
#: and the cumulative cycles at every instruction boundary.  A plain tuple
#: because the machine unpacks one per block run.
Block = Tuple[Callable[..., int], int, int, int, Tuple[int, ...]]

#: Generated code objects carry a file name inside this package, so that
#: profilers attribute block execution to the VM, and the program's name, so
#: that blocks of different programs at the same pc stay distinct there.
_FILENAME = os.path.join(os.path.dirname(os.path.abspath(__file__)), "<{} blocks>")


class BlockLeave(Exception):
    """Raised by generated code after an instruction that cost dynamic
    cycles (``args[0]``); ``thread.pc`` is that instruction's index."""


# -- instruction templates ------------------------------------------------------
#
# Fields: a/b/c are the raw operands, cm = c & MASK64, sh = c & 63, pc the
# instruction's index, nxt = pc + 1.  X and Y stand for the signed reading of
# the locals x and y (isa.to_signed, inlined).

Templates = Dict[Op, Tuple[int, str]]


def _expand(templates: Templates) -> Templates:
    signed = "({v} - {wrap:#x} if {v} >= {sign:#x} else {v})"
    x, y = (signed.format(v=v, wrap=1 << 64, sign=1 << 63) for v in "xy")
    return {
        op: (cost, source.replace("M64", f"{MASK64:#x}").replace("X", x).replace("Y", y))
        for op, (cost, source) in templates.items()
    }


_ADDR = "t.pc = {pc}; m = (r[{b}] + {c}) & M64\n"
#: The page reference after a plain access, skipped for the page the
#: accounting saw last (``PageAccounting.mru``): touching it is a HIT that
#: changes nothing.
_PAGE = "\nif m // {page} != vm.mru:\n    e = page_cost[touch(m)]\n    if e: raise Leave(e)"
#: ``AddressSpace.mapped`` for a word / a byte in the stack or the data
#: segment; the speculative heap and every invalid address take the accessor.
_WORD_MAPPED = "({stack} <= m <= {stack_word} or {data} <= m and m + 8 <= space.brk)"
_BYTE_MAPPED = "({stack} <= m < {stack_end} or {data} <= m < space.brk)"
#: A COW access inside one region already seen wholly mapped (the test
#: ``CowMap._validate`` records); a first copy, a straddling word and a
#: region not known to be mapped take the accessor.  ``{contained}`` counts
#: the auditor's containment check of the store, or is nothing without one.
_REGION = "g = m // {region}; o = m - g * {region}\n"
_COW_SLOW_STORE = "else:\n    e = cow_store_{kind}(m, r[{a}])\n    if e: raise Leave(e)"

#: op -> (static cycles, source); ``d`` is added to the cycles of COW ops.
_STRAIGHT = _expand({
    Op.NOP: (ALU_COST, ""),
    Op.LI: (ALU_COST, "r[{a}] = {cm}"),
    Op.LA: (ALU_COST, "r[{a}] = {cm}"),
    Op.MOV: (ALU_COST, "r[{a}] = r[{b}]"),
    Op.ADD: (ALU_COST, "r[{a}] = (r[{b}] + r[{c}]) & M64"),
    Op.SUB: (ALU_COST, "r[{a}] = (r[{b}] - r[{c}]) & M64"),
    Op.MUL: (ALU_COST, "r[{a}] = (r[{b}] * r[{c}]) & M64"),
    Op.DIV: (ALU_COST, "t.pc = {pc}; y = r[{c}]\n"
                       "if not y: zero_divisor(t, 'division')\n"
                       "x = r[{b}]; r[{a}] = (X // Y) & M64"),
    Op.MOD: (ALU_COST, "t.pc = {pc}; y = r[{c}]\n"
                       "if not y: zero_divisor(t, 'modulus')\n"
                       "x = r[{b}]; r[{a}] = (X % Y) & M64"),
    Op.AND: (ALU_COST, "r[{a}] = r[{b}] & r[{c}]"),
    Op.OR: (ALU_COST, "r[{a}] = r[{b}] | r[{c}]"),
    Op.XOR: (ALU_COST, "r[{a}] = r[{b}] ^ r[{c}]"),
    Op.SHL: (ALU_COST, "r[{a}] = (r[{b}] << (r[{c}] & 63)) & M64"),
    Op.SHR: (ALU_COST, "r[{a}] = r[{b}] >> (r[{c}] & 63)"),
    Op.SLT: (ALU_COST, "x = r[{b}]; y = r[{c}]; r[{a}] = 1 if X < Y else 0"),
    Op.ADDI: (ALU_COST, "r[{a}] = (r[{b}] + {c}) & M64"),
    Op.MULI: (ALU_COST, "r[{a}] = (r[{b}] * {c}) & M64"),
    Op.ANDI: (ALU_COST, "r[{a}] = r[{b}] & {cm}"),
    Op.ORI: (ALU_COST, "r[{a}] = r[{b}] | {cm}"),
    Op.SHLI: (ALU_COST, "r[{a}] = (r[{b}] << {sh}) & M64"),
    Op.SHRI: (ALU_COST, "r[{a}] = r[{b}] >> {sh}"),
    Op.SLTI: (ALU_COST, "x = r[{b}]; r[{a}] = 1 if X < {c} else 0"),
    Op.LOAD: (MEM_COST, _ADDR + "if " + _WORD_MAPPED + ":\n"
                        "    r[{a}] = from_bytes(mm[m:m + 8], 'little')\n"
                        "else:\n    r[{a}] = load_word(m)" + _PAGE),
    Op.STORE: (MEM_COST, _ADDR + "if space.write_guard is None and " + _WORD_MAPPED + ":\n"
                         "    mm[m:m + 8] = (r[{a}] & M64).to_bytes(8, 'little')\n"
                         "else:\n    store_word(m, r[{a}])" + _PAGE),
    Op.LOADB: (MEM_COST, _ADDR + "if " + _BYTE_MAPPED + ":\n"
                         "    r[{a}] = mm[m]\n"
                         "else:\n    r[{a}] = load_byte(m)" + _PAGE),
    Op.STOREB: (MEM_COST, _ADDR + "if space.write_guard is None and " + _BYTE_MAPPED + ":\n"
                          "    mm[m] = r[{a}] & 255\n"
                          "else:\n    store_byte(m, r[{a}])" + _PAGE),
    Op.COW_LOAD: (MEM_COST, _ADDR + _REGION +
                  "if o <= {region_word} and g in mapped_regions:\n"
                  "    cp = copies.get(g)\n"
                  "    r[{a}] = from_bytes(mm[m:m + 8] if cp is None else cp[o:o + 8], 'little')\n"
                  "else:\n    r[{a}] = cow_load_word(m)"),
    Op.COW_STORE: (MEM_COST, _ADDR + _REGION + "cp = copies.get(g)\n"
                   "if cp is not None and o <= {region_word} and g in mapped_regions:\n"
                   "    cp[o:o + 8] = (r[{a}] & M64).to_bytes(8, 'little'){contained}\n"
                   + _COW_SLOW_STORE.replace("{kind}", "word")),
    Op.COW_LOADB: (MEM_COST, _ADDR + _REGION +
                   "if g in mapped_regions:\n"
                   "    cp = copies.get(g)\n"
                   "    r[{a}] = mm[m] if cp is None else cp[o]\n"
                   "else:\n    r[{a}] = cow_load_byte(m)"),
    Op.COW_STOREB: (MEM_COST, _ADDR + _REGION + "cp = copies.get(g)\n"
                    "if cp is not None and g in mapped_regions:\n"
                    "    cp[o] = r[{a}] & 255{contained}\n"
                    + _COW_SLOW_STORE.replace("{kind}", "byte")),
})

#: The containment check (``IsolationAuditor.check_cow_containment``) of a
#: COW store that took the inline path: the store wrote into the existing
#: copy of the one region it covers, so the check passes and is counted.
_CONTAINED = "\n    audit.cow_writes_checked += 1"

#: Computation (CWORK/SCWORK) with a non-negative amount may end a block as
#: static cycles: the machine drains them right after the instruction, in
#: one go whenever they fit before the preemption point.  (A negative amount
#: is the machine's error.)
_CWORK_OPS = frozenset({Op.CWORK, Op.SCWORK})

#: Control transfers end a block; their source returns the next pc.
_TRANSFER = _expand({
    Op.BEQ: (BRANCH_COST, "return {c} if r[{a}] == r[{b}] else {nxt}"),
    Op.BNE: (BRANCH_COST, "return {c} if r[{a}] != r[{b}] else {nxt}"),
    Op.BLT: (BRANCH_COST, "x = r[{a}]; y = r[{b}]\nreturn {c} if X < Y else {nxt}"),
    Op.BGE: (BRANCH_COST, "x = r[{a}]; y = r[{b}]\nreturn {c} if X >= Y else {nxt}"),
    Op.JMP: (BRANCH_COST, "return {c}"),
    Op.JR: (BRANCH_COST, "t.pc = {pc}; x = r[{a}]; check_target(t, x)\nreturn x"),
    Op.CALL: (CALL_COST, "r[31] = {nxt}\nreturn {c}"),
    Op.CALLR: (CALL_COST, "t.pc = {pc}; x = r[{a}]; check_target(t, x)\n"
                          "r[31] = {nxt}\nreturn x"),
    Op.SWITCH: (SWITCH_COST, "t.pc = {pc}; x = r[{a}]\n"
                             "if x >= {ntargets}: switch_fault(t, x)\n"
                             "return {targets}[x]"),
})

#: Every instruction with a template; the rest are system instructions,
#: which the machine executes itself.
_TEMPLATES = {**_STRAIGHT, **_TRANSFER}

_COW_OPS = frozenset({Op.COW_LOAD, Op.COW_STORE, Op.COW_LOADB, Op.COW_STOREB})
_COW_STORES = frozenset({Op.COW_STORE, Op.COW_STOREB})


def _static_cycles(insn: Insn) -> int:
    """An instruction's static cycles: its template's, plus the check
    cycles a COW op carries in ``d``; 0 for a system instruction."""
    template = _TEMPLATES.get(insn.op)
    if template is None:
        return 0
    return template[0] + insn.d if insn.op in _COW_OPS else template[0]


#: A single step's operands are its arguments; a jump table is looked up
#: when the step runs.
_SINGLE_FIELDS = dict(
    a="a", b="b", c="c", cm=f"(c & {MASK64:#x})", sh="(c & 63)", pc="pc",
    nxt="(pc + 1)", ntargets="len(jump_table(c).targets)",
    targets="jump_table(c).targets",
)


def _leaders(binary: Binary) -> Set[int]:
    """The text indices where a block may start."""
    text = binary.text
    starts = {binary.entry_point}
    starts.update(func.entry for func in binary.functions)
    for table in binary.jump_tables:
        starts.update(table.targets)
    for index, insn in enumerate(text):
        if insn.op in TEXT_TARGET_OPS:
            starts.add(insn.c)
        if insn.op not in _STRAIGHT:
            starts.add(index + 1)
    return starts


@functools.cache
def _single_steps(layout: Tuple[Tuple[str, object], ...], cow: bool) -> CodeType:
    """The code that defines ``single_<OP>`` for every templated opcode
    (the COW ones only with a COW map) under one address-space layout.
    It depends on no program: every program run under the layout shares
    it, and there are as many as there are layouts."""
    fields = dict(layout, **_SINGLE_FIELDS)
    functions = []
    for op in _single_ops(cow):
        body = _TEMPLATES[op][1].format(**fields)
        if op not in _TRANSFER:
            body += "\nreturn pc + 1"
        functions.append(f"def single_{op.name}(t, r, a, b, c, pc):\n    "
                         + body.replace("\n", "\n    ") + "\n")
    source = "".join(functions)
    # The file name tells one layout's code from another's in a profile.
    return compile(source, _FILENAME.format(
        f"single steps {zlib.crc32(source.encode()):08x}"), "exec")


def _single_ops(cow: bool) -> List[Op]:
    return [op for op in _TEMPLATES if cow or op not in _COW_OPS]


#: A translated block as code: ``(code, need, count, cost, prefix)``, the
#: code object that defines ``block_<start>`` and the rest of :data:`Block`.
BlockCode = Tuple[CodeType, int, int, int, Tuple[int, ...]]


class Translation:
    """One program's generated code under one binding.

    A binding is what generated code inlines or relies on besides the
    program: the address-space layout, whether a COW map and an auditor
    are bound, and whether a tracer observes the clock.  The record hangs
    off the :class:`~repro.vm.binary.Binary` (``binary.translations``), so
    every process that runs the program under the same binding, in this
    cell or a later one, shares it; each process execs the code into its
    own namespace (:class:`BlockTable`).  It holds no per-run object.

    Block extents are static: a block runs from its leader to the first
    control transfer or computation, or to just before the next leader or
    a system instruction — never past a leader — so the order in which
    leaders get hot cannot change what a block covers.
    """

    def __init__(
        self,
        binary: Binary,
        layout: Dict[str, object],
        cow: bool,
        clock_observed: bool,
    ) -> None:
        self.binary = binary
        #: A tracer stamps events with the clock, which a block advances
        #: only when it ends: under one, the instruction that can emit an
        #: event in mid-block (a COW store making a first copy) ends the
        #: block before it and runs as a single step.
        self.clock_observed = clock_observed
        self.cow = cow
        #: The constants the templates inline (see :meth:`BlockTable.__init__`).
        self.layout = layout
        self.leaders = _leaders(binary)
        #: Per text index: the entries seen at a leader by every process
        #: that ran the program so far; -1 at every other index and at a
        #: leader with nothing to translate.  A leader that got hot in an
        #: earlier cell is translated at its first entry in the next.
        self.heat: List[int] = [0 if index in self.leaders else -1
                                for index in range(len(binary.text))]
        #: Per text index: the instruction's static cycles, charged by its
        #: single step and summed into the blocks that contain it.
        self.cycles: List[int] = [_static_cycles(insn) for insn in binary.text]
        self.singles = _single_steps(tuple(sorted(layout.items())), cow)
        #: Leader -> its block's code, once some process translated it.
        self.blocks: Dict[int, BlockCode] = {}

    def block(self, start: int) -> Optional[BlockCode]:
        """The block at leader ``start``, compiled on the first request;
        None (and no more counting there) when no instruction at
        ``start`` can be translated."""
        code = self.blocks.get(start)
        if code is None:
            code = self._translate(start)
            if code is None:
                self.heat[start] = -1
            else:
                self.blocks[start] = code
        return code

    def _translate(self, start: int) -> Optional[BlockCode]:
        text = self.binary.text
        lines: List[str] = []
        prefix = [0]
        pc = start
        while pc < len(text):
            insn = text[pc]
            op = insn.op
            if op in _CWORK_OPS and insn.a >= 0:
                prefix.append(prefix[-1] + insn.a)  # static cycles, no code
                pc += 1
                break
            template = _TEMPLATES.get(op)
            if template is None or (self.clock_observed and op in _COW_STORES):
                break  # a system instruction: the machine's business
            if op in _COW_OPS and not self.cow:
                return None
            lines.append(self._format(template[1], insn, pc))
            prefix.append(prefix[-1] + self.cycles[pc])
            pc += 1
            if op in _TRANSFER or pc in self.leaders:
                break  # a control transfer, or the next block's leader
        if pc == start:
            return None
        if text[pc - 1].op not in _TRANSFER:
            lines.append(f"return {pc}")
        body = "\n".join(lines).replace("\n", "\n    ")
        source = f"def block_{start}(t, r):\n    {body}\n"
        code = compile(source, _FILENAME.format(self.binary.name), "exec")
        # Every instruction must start before the preemption point, and a
        # closing computation's cycles must all fit before it.
        need = max(prefix[-2], prefix[-1] - 1) if text[pc - 1].op in _CWORK_OPS \
            else prefix[-2]
        return (code, need, pc - start, prefix[-1], tuple(prefix))

    def _format(self, source: str, insn: Insn, pc: int) -> str:
        fields: Dict[str, object] = dict(
            self.layout, a=insn.a, b=insn.b, c=insn.c, cm=insn.c & MASK64,
            sh=insn.c & 63, pc=pc, nxt=pc + 1,
        )
        if insn.op is Op.SWITCH:
            targets = self.binary.jump_table(insn.c).targets
            fields.update(ntargets=len(targets), targets=targets)
        return source.format(**fields)


class BlockTable:
    """One process's generated code: the program's :class:`Translation`
    exec'd against the process's memory, COW map and page accounting —
    its single steps, and the blocks of its text as they get hot."""

    def __init__(
        self,
        binary: Binary,
        bindings: Dict[str, object],
        layout: Dict[str, int],
        clock_observed: bool,
    ) -> None:
        #: The constants the templates inline: the address-space layout
        #: (``page``, ``stack``, ``stack_word``, ``stack_end``, ``data``),
        #: the COW region size, and the containment count if audited.
        inlined: Dict[str, object] = dict(layout)
        if "region" in layout:
            inlined["region_word"] = layout["region"] - 8
        inlined["contained"] = _CONTAINED if "audit" in bindings else ""
        cow = "cow_load_word" in bindings
        key = (tuple(sorted(inlined.items())), cow, clock_observed)
        record = cast(Optional[Translation], binary.translations.get(key))
        if record is None:
            record = Translation(binary, inlined, cow, clock_observed)
            binary.translations[key] = record
        self.translation = record
        #: Shared with every process that runs the program (see
        #: :attr:`Translation.heat`).
        self.heat = self.translation.heat
        self.cycles = self.translation.cycles
        #: Per text index: the translated block that starts there, bound
        #: to this process.
        self.blocks: List[Optional[Block]] = [None] * len(binary.text)
        #: What generated code calls and reads — the process's memory and
        #: its mapping, COW map, copy table and page accounting, the
        #: machine's fault helpers, the program's jump tables — under the
        #: names the templates use.  COW instructions have no generated
        #: code without a COW map.
        self._namespace: Dict[str, object] = dict(
            bindings, Leave=BlockLeave, jump_table=binary.jump_table)
        exec(self.translation.singles, self._namespace)
        #: Per opcode: ``single_<OP>(t, r, a, b, c, pc)``, which executes
        #: one instruction and returns the next pc; None for a system
        #: instruction (and a COW one without a COW map).
        self.singles: List[Optional[Callable[..., int]]] = [None] * 64
        for op in _single_ops(cow):
            self.singles[op] = cast(Callable[..., int],
                                    self._namespace.pop(f"single_{op.name}"))

    def translate(self, start: int) -> Optional[Block]:
        """Bind the block at leader ``start`` to this process; None when
        no instruction there can be translated."""
        code = self.translation.block(start)
        if code is None:
            return None
        source, need, count, cost, prefix = code
        exec(source, self._namespace)
        function = cast(Callable[..., int], self._namespace.pop(f"block_{start}"))
        block = (function, need, count, cost, prefix)
        self.blocks[start] = block
        return block
