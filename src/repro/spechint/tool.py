"""The SpecHint binary modification tool (Section 3.3).

Transforms a SpecVM binary into a *speculating executable*:

1. validates the paper's restrictions (single-threaded, statically linked,
   relocation information retained);
2. appends a **shadow copy** of the text section in which

   * loads/stores become ``COW_*`` instructions carrying their
     software-copy-on-write check cost (stack-relative accesses carry none
     — the speculating thread runs on a copied stack; accesses inside
     hand-optimized string routines carry a reduced, loop-optimized cost);
   * computation phases (``CWORK``) become ``SCWORK`` with the check costs
     of their declared load/store mix folded in (the source of the paper's
     *dilation factor*);
   * statically resolvable control transfers are redirected into the
     shadow; dynamically computed ones (``JR``/``CALLR``; switches over
     unrecognized jump tables) are routed through the handling routine;
   * recognized jump tables are duplicated with shadow targets;
   * ``read`` system calls become non-blocking ``SPEC_READ`` hint calls;
     other system calls become ``SPEC_SYSCALL`` (filtered at runtime);
   * calls to known output routines are stripped;

3. builds the function-address map used by the handling routine (it "can
   only map function addresses" — the ``map_all_addresses`` option lifts
   that limitation as an extension ablation);
4. records Table 3 transformation statistics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional

from repro.errors import UnsupportedBinary
from repro.params import SpecHintParams
from repro.spechint.report import TransformReport
from repro.vm.binary import Binary, Function, JumpTable
from repro.vm.isa import SYS_READ, Insn, Op

#: Modelled size of the SpecHint auxiliary objects linked into every
#: speculating executable (dynamic allocator, handling routine, restart
#: routine, optimized string routines — "generated from 4,000 lines of
#: assembly" in the paper).
SPECHINT_RUNTIME_BYTES = 96 * 1024

#: Modelled size of the threading support libraries (the paper links the
#: POSIX pthreads library into otherwise statically linked binaries).
THREADING_LIB_BYTES = 420 * 1024

#: Modelled instruction expansion of one wrapped load/store: the check
#: sequence around each shadow load/store (address mask, table lookup,
#: conditional branch, redirect) — about five extra instructions.
COW_CHECK_INSNS = 5

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


_COW_OPS = {
    Op.LOAD: Op.COW_LOAD,
    Op.LOADB: Op.COW_LOADB,
    Op.STORE: Op.COW_STORE,
    Op.STOREB: Op.COW_STOREB,
}


@dataclass
class SpecMeta:
    """Metadata the runtime needs, attached to the transformed binary."""

    shadow_base: int
    original_text_len: int
    #: Original function entry index -> shadow entry index.
    function_map: Dict[int, int]
    params: SpecHintParams
    map_all_addresses: bool = False
    report: Optional[TransformReport] = None
    #: Names of output routines whose call sites were stripped.
    stripped_routines: List[str] = field(default_factory=list)
    #: Hint disclosure sites: original SYS_READ index -> shadow SPEC_READ
    #: index.  Security reports key leak findings to these sites.
    hint_sites: Dict[int, int] = field(default_factory=dict)

    def to_shadow(self, original_index: int) -> int:
        """Map any original text index to its shadow twin (mechanically
        possible because the shadow is instruction-for-instruction; the
        *handling routine* still restricts itself to function entries
        unless map_all_addresses is set)."""
        return original_index + self.shadow_base


class SpeculatingBinary(Binary):
    """A transformed binary: original text + shadow text + spec metadata."""

    def __init__(self, *args: object, spec_meta: SpecMeta, **kwargs: object) -> None:
        super().__init__(*args, **kwargs)  # type: ignore[arg-type]
        self.spec_meta = spec_meta


class SpecHintTool:
    """The binary modification tool."""

    def __init__(
        self,
        params: Optional[SpecHintParams] = None,
        map_all_addresses: bool = False,
    ) -> None:
        self.params = params or SpecHintParams()
        #: Extension ablation: allow the handling routine to map *any*
        #: original-text address, not just function entries.
        self.map_all_addresses = map_all_addresses

    # ------------------------------------------------------------------ API

    def transform(self, binary: Binary) -> SpeculatingBinary:
        """Produce the speculating executable for ``binary``."""
        started = time.perf_counter()
        self._validate(binary)

        shadow_base = len(binary.text)
        report = TransformReport(
            binary_name=binary.name,
            original_size_bytes=self.original_size(binary),
            original_insns=len(binary.text),
        )

        # Recognized jump tables get shadow twins; remember the id mapping.
        jump_tables: List[JumpTable] = list(binary.jump_tables)
        shadow_table_ids: Dict[int, int] = {}
        for table in binary.jump_tables:
            if table.recognized:
                twin = JumpTable(
                    len(jump_tables),
                    [t + shadow_base for t in table.targets],
                    recognized=True,
                )
                jump_tables.append(twin)
                shadow_table_ids[table.table_id] = twin.table_id
                report.jump_tables_remapped += 1
            else:
                report.jump_tables_unrecognized += 1

        shadow_text = [
            self._transform_insn(
                insn, shadow_base, binary, costs, shadow_table_ids, report,
            )
            for insn, costs in zip(binary.text,
                                   self._check_costs_by_index(binary))
        ]
        hint_sites = {
            index: index + shadow_base
            for index, insn in enumerate(binary.text)
            if insn.op is Op.SYSCALL and insn.c == SYS_READ
        }

        text = list(binary.text) + shadow_text
        functions = list(binary.functions) + [
            Function(f"{f.name}@shadow", f.entry + shadow_base, f.end + shadow_base)
            for f in binary.functions
        ]
        function_map = {f.entry: f.entry + shadow_base for f in binary.functions}

        report.shadow_insns = len(shadow_text)
        report.transformed_size_bytes = self.transformed_size(binary, report)
        report.modification_time_s = time.perf_counter() - started

        meta = SpecMeta(
            shadow_base=shadow_base,
            original_text_len=len(binary.text),
            function_map=function_map,
            params=self.params,
            map_all_addresses=self.map_all_addresses,
            report=report,
            stripped_routines=sorted(binary.output_routines),
            hint_sites=hint_sites,
        )

        return SpeculatingBinary(
            binary.name,
            text,
            binary.data,
            dict(binary.data_symbols),
            functions,
            jump_tables,
            binary.entry_point,
            output_routines=set(binary.output_routines),
            optimized_stdlib=set(binary.optimized_stdlib),
            secret_symbols=set(binary.secret_symbols),
            spec_meta=meta,
        )

    # -------------------------------------------------------------- pieces

    def _validate(self, binary: Binary) -> None:
        if not binary.has_relocations:
            raise UnsupportedBinary(
                f"{binary.name}: relocation information was stripped"
            )
        if not binary.single_threaded:
            raise UnsupportedBinary(f"{binary.name}: binary is multithreaded")
        if not binary.statically_linked:
            raise UnsupportedBinary(f"{binary.name}: binary is dynamically linked")
        if getattr(binary, "spec_meta", None) is not None:
            raise UnsupportedBinary(f"{binary.name}: already transformed")

    def _check_costs_by_index(self, binary: Binary) -> List[CheckCosts]:
        """COW check cycle costs of each text index, built once per
        function (only hand-optimized string routines get the divisor)."""
        costs = [check_costs(False)] * len(binary.text)
        for func in binary.functions:
            costs[func.entry:func.end] = [
                check_costs(func.name in binary.optimized_stdlib)
            ] * (func.end - func.entry)
        return costs

    def _transform_insn(
        self,
        insn: Insn,
        shadow_base: int,
        binary: Binary,
        costs: CheckCosts,
        shadow_table_ids: Dict[int, int],
        report: TransformReport,
    ) -> Insn:
        op = insn.op

        if op in _COW_OPS:
            out = insn.clone()
            out.op = _COW_OPS[op]
            if insn.get_meta("stack"):
                # The stack was pre-copied at restart time (paper
                # footnote 3): COW semantics, no check cycles.
                out.d = 0
                report.stack_relative_skipped += 1
            elif op in (Op.STORE, Op.STOREB):
                out.d = costs.store
                report.stores_wrapped += 1
            else:
                out.d = costs.load
                report.loads_wrapped += 1
            return out

        if op is Op.CWORK:
            dilation = insn.b * costs.load + insn.c * costs.store
            report.cwork_dilated += 1
            return Insn(Op.SCWORK, insn.a + dilation, 0, 0, 0, insn.meta)

        if op in (Op.BEQ, Op.BNE, Op.BLT, Op.BGE, Op.JMP):
            out = insn.clone()
            out.c = insn.c + shadow_base
            report.static_transfers_redirected += 1
            return out

        if op is Op.CALL:
            target_name = insn.get_meta("call_target")
            if target_name in binary.output_routines:
                # Strip output routine calls from the shadow code.
                report.output_calls_stripped += 1
                return Insn(Op.NOP, meta=insn.meta)
            out = insn.clone()
            out.c = insn.c + shadow_base
            report.static_transfers_redirected += 1
            return out

        if op in (Op.JR, Op.CALLR):
            report.dynamic_transfers_routed += 1
            out = insn.clone()
            out.op = Op.SPEC_JR if op is Op.JR else Op.SPEC_CALLR
            return out

        if op is Op.SWITCH:
            out = insn.clone()
            shadow_id = shadow_table_ids.get(insn.c)
            if shadow_id is not None:
                out.c = shadow_id
            else:
                out.op = Op.SPEC_SWITCH
                report.dynamic_transfers_routed += 1
            return out

        if op is Op.SYSCALL:
            if insn.c == SYS_READ:
                report.reads_substituted += 1
                return Insn(Op.SPEC_READ, meta=insn.meta)
            report.syscalls_guarded += 1
            out = insn.clone()
            out.op = Op.SPEC_SYSCALL
            return out

        if op is Op.HALT:
            # HALT is an implicit exit(0): guard it like a syscall.
            report.syscalls_guarded += 1
            return Insn(Op.SPEC_SYSCALL, 0, 0, 1, meta=insn.meta)  # SYS_EXIT

        # Everything else (ALU, LI/LA, NOP...) copies verbatim.  LA of a
        # function address intentionally keeps the *original* entry: the
        # constant flows through data like any other value, and the
        # handling routine maps it when it is used as a jump target.
        return insn.clone()

    # -------------------------------------------------------- size modelling

    @staticmethod
    def original_size(binary: Binary) -> int:
        """Original executable size (honours declared sizes, see below)."""
        declared = getattr(binary, "declared_size_bytes", None)
        if declared:
            return int(declared)
        return binary.size_bytes

    def transformed_size(self, binary: Binary, report: TransformReport) -> int:
        """Model of the speculating executable's size.

        The shadow text grows by the inserted check sequences; the SpecHint
        auxiliary objects and threading libraries are added.  When the app
        declares a full-scale size (our benchmark programs declare the
        paper binaries' sizes, since a SpecVM program is far smaller than
        a real statically-linked Alpha executable), the shadow expansion is
        applied to the declared text proportionally.
        """
        original = self.original_size(binary)
        mem_ops = report.loads_wrapped + report.stores_wrapped
        plain = max(1, len(binary.text))
        expansion_ratio = (plain + mem_ops * COW_CHECK_INSNS) / plain

        declared = getattr(binary, "declared_size_bytes", None)
        if declared:
            text_fraction = getattr(binary, "declared_text_fraction", 0.7)
            shadow_bytes = int(declared * text_fraction * expansion_ratio)
        else:
            shadow_bytes = int(binary.text_bytes * expansion_ratio)
        return original + shadow_bytes + SPECHINT_RUNTIME_BYTES + THREADING_LIB_BYTES
