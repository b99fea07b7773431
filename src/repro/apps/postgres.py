"""Postgres join (extension): the Table 1 database workload.

The paper's Table 1 (Patterson's manually hinted benchmark suite) includes
a Postgres inner join at two selectivities: with 20 % of the outer tuples
matching, manual hints bought 48 %; with 80 %, 69 %.  The paper itself
only transforms Agrep/Gnuld/XDataSlice, so this application is an
*extension*: it lets the SpecHint pipeline be exercised on a database-style
access pattern — a sequential outer-relation scan interleaved with
data-dependent index probes:

    outer heap page (sequential)                 — predictable
      -> matching keys parsed from the page data — available once read
      -> index leaf page (root consulted once)   — computable from key
      -> inner heap page (pointer *in* the leaf) — data-dependent chain

Speculation can hint the outer scan and the leaf probes (their locations
derive from data that is in memory by the time speculation runs), but the
inner heap reads chain through just-read leaf data, Gnuld-style.  The
manual variant batches hints per outer page, as a programmer would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.apps.datasets import LAST_DATASET, Mappings, random_fill
from repro.fs.filesystem import FileSystem
from repro.sim.rng import DeterministicRng
from repro.vm.assembler import Assembler
from repro.vm.binary import Binary
from repro.vm.isa import (
    SEEK_SET,
    SYS_EXIT,
    SYS_HINT_FD_SEG,
    SYS_LSEEK,
    SYS_OPEN,
    SYS_READ,
    Reg,
)
from repro.vm.stdlib import emit_stdlib

PAGE = 8192
TUPLES_PER_PAGE = 16
TUPLE_BYTES = PAGE // TUPLES_PER_PAGE  # 512
KEYS_PER_LEAF = 64

#: Rough size of a statically linked Postgres backend of the era.
PAPER_ORIGINAL_SIZE = 1800 * 1024

#: What the static-analysis pass (``repro analyze``) is expected to prove
#: about this binary.  The three live probe-worklist stores stay wrapped;
#: the comparator dispatch CALLR resolves to ``cmp_keys`` statically.
ANALYSIS_EXPECTATIONS = {
    "wrapped_stores": 9,
    "elidable_stores": 6,
    "resolved_transfers": 1,  # callr through la(cmp_keys)
    "lint_errors": 0,
    "lint_warnings": 0,
}


@dataclass(frozen=True)
class PostgresWorkload:
    """An inner join: SELECT ... FROM outer JOIN inner ON key."""

    outer_pages: int = 72
    inner_pages: int = 200
    #: Fraction of outer tuples with a join partner (the paper evaluates
    #: 20 % and 80 %).
    selectivity_pct: int = 20
    seed: int = 23
    #: Per-tuple predicate evaluation cost.
    tuple_cycles: int = 900
    tuple_loads: int = 60
    tuple_stores: int = 10
    #: Per-probe join processing cost.
    probe_cycles: int = 5_000
    probe_loads: int = 420
    probe_stores: int = 90

    def scaled(self, factor: float) -> "PostgresWorkload":
        return PostgresWorkload(
            outer_pages=max(4, int(self.outer_pages * factor)),
            inner_pages=max(8, int(self.inner_pages * factor)),
            selectivity_pct=self.selectivity_pct,
            seed=self.seed,
            tuple_cycles=self.tuple_cycles,
            tuple_loads=self.tuple_loads,
            tuple_stores=self.tuple_stores,
            probe_cycles=self.probe_cycles,
            probe_loads=self.probe_loads,
            probe_stores=self.probe_stores,
        )

    @property
    def ntuples(self) -> int:
        return self.outer_pages * TUPLES_PER_PAGE

    @property
    def nleaves(self) -> int:
        return -(-self.ntuples // KEYS_PER_LEAF)


def _u64(value: int) -> bytes:
    return (value & ((1 << 64) - 1)).to_bytes(8, "little")


def generate_postgres_relations(
    fs: FileSystem, workload: PostgresWorkload
) -> Tuple[object, object, object]:
    """Create outer heap, inner heap, and index files.

    Outer tuple layout (at page*8192 + slot*512): [key u64][match u64].
    Index layout: root page of leaf *offsets*; each leaf holds
    KEYS_PER_LEAF inner-heap byte offsets, indexed by key % KEYS_PER_LEAF.
    """
    outer, index, inner = LAST_DATASET.get(_postgres_relations, workload)
    return (
        fs.create("db/outer.heap", outer),
        fs.create("db/inner.idx", index),
        fs.create("db/inner.heap", inner),
    )


def _postgres_relations(
    workload: PostgresWorkload,
) -> Tuple[memoryview, memoryview, memoryview]:
    rng = DeterministicRng(workload.seed, "postgres")
    ntuples = workload.ntuples

    # Inner heap placement of each key: scattered deterministically.
    inner_offset_of_key: List[int] = []
    for key in range(ntuples):
        page = rng.randint(0, workload.inner_pages - 1)
        inner_offset_of_key.append(page * PAGE)

    # Outer relation.
    mappings = Mappings()
    outer = mappings.file(workload.outer_pages * PAGE)
    keys = list(range(ntuples))
    rng.shuffle(keys)
    matched = 0
    for slot, key in enumerate(keys):
        offset = slot * TUPLE_BYTES
        match = 1 if rng.randint(1, 100) <= workload.selectivity_pct else 0
        matched += match
        outer[offset:offset + 8] = _u64(key)
        outer[offset + 8:offset + 16] = _u64(match)

    # Index: root page + leaves.
    nleaves = workload.nleaves
    index = mappings.file((1 + nleaves) * PAGE)
    for leaf in range(nleaves):
        leaf_offset = (1 + leaf) * PAGE
        index[leaf * 8:leaf * 8 + 8] = _u64(leaf_offset)
        for within in range(KEYS_PER_LEAF):
            key = leaf * KEYS_PER_LEAF + within
            if key >= ntuples:
                break
            at = leaf_offset + within * 8
            index[at:at + 8] = _u64(inner_offset_of_key[key])

    # Inner heap (contents otherwise irrelevant to control flow).
    inner = mappings.file(workload.inner_pages * PAGE)
    random_fill(rng, inner)
    return outer.toreadonly(), index.toreadonly(), inner.toreadonly()


def build_postgres_files(fs: FileSystem, workload: PostgresWorkload) -> None:
    """Create the relations the join reads in ``fs``."""
    generate_postgres_relations(fs, workload)


def build_postgres_program(workload: PostgresWorkload, manual_hints: bool = False) -> Binary:
    """Assemble the join program over the relations of ``workload``."""
    return _PostgresBuilder(workload, manual_hints).build()


class _PostgresBuilder:
    def __init__(self, workload: PostgresWorkload, manual: bool) -> None:
        self.wl = workload
        self.manual = manual
        name = "postgres-manual" if manual else "postgres"
        self.asm = Assembler(name)

    def build(self) -> Binary:
        asm = self.asm
        emit_stdlib(asm)
        wl = self.wl

        asm.data_asciiz("outer_path", "db/outer.heap")
        asm.data_asciiz("index_path", "db/inner.idx")
        asm.data_asciiz("inner_path", "db/inner.heap")
        asm.data_space("outerbuf", PAGE)
        asm.data_space("rootbuf", PAGE)
        asm.data_space("leafbuf", PAGE)
        asm.data_space("innerbuf", PAGE)
        # Per-outer-page probe worklist (key, leaf offset) built during the
        # predicate pass; the manual variant batch-hints from it.
        asm.data_words("probe_keys", [0] * TUPLES_PER_PAGE)
        asm.data_words("probe_leaf_offs", [0] * TUPLES_PER_PAGE)
        asm.data_words("probe_inner_offs", [0] * TUPLES_PER_PAGE)

        asm.entry("main")
        with asm.function("main"):
            self._emit_open_all()
            # Comparator dispatch through a function pointer, the way the
            # real executor selects its row-compare routine.  The target
            # is a provable constant, so static analysis can resolve this
            # CALLR instead of routing it through the handling routine.
            asm.la(Reg.t1, "cmp_keys")
            asm.push(Reg.ra)
            asm.li(Reg.a0, 0)
            asm.li(Reg.a1, 1)
            asm.callr(Reg.t1)
            asm.pop(Reg.ra)
            if self.manual:
                # The outer scan is fully predictable: disclose the whole
                # outer relation up front (one batched segment hint).
                asm.mov(Reg.a0, Reg.s1)
                asm.li(Reg.a1, 0)
                asm.li(Reg.a2, wl.outer_pages * PAGE)
                asm.syscall(SYS_HINT_FD_SEG)
            self._emit_read_root()
            self._emit_join_loop()
            asm.mov(Reg.a0, Reg.s7)  # result counter
            asm.call("print_num")
            asm.li(Reg.a0, 0)
            asm.syscall(SYS_EXIT)

        with asm.function("cmp_keys"):
            asm.slt(Reg.v0, Reg.a0, Reg.a1)
            asm.ret()

        binary = asm.finish()
        binary.declared_size_bytes = PAPER_ORIGINAL_SIZE
        binary.declared_text_fraction = 0.75
        return binary

    # -- fragments -------------------------------------------------------------

    def _open(self, path_symbol: str, fd_reg: Reg) -> None:
        asm = self.asm
        asm.la(Reg.a0, path_symbol)
        asm.syscall(SYS_OPEN)
        asm.mov(fd_reg, Reg.v0)

    def _lseek_read(self, fd: Reg, offset_reg: Reg, buf: str, nbytes: int) -> None:
        asm = self.asm
        asm.mov(Reg.a0, fd)
        asm.mov(Reg.a1, offset_reg)
        asm.li(Reg.a2, SEEK_SET)
        asm.syscall(SYS_LSEEK)
        asm.mov(Reg.a0, fd)
        asm.la(Reg.a1, buf)
        asm.li(Reg.a2, nbytes)
        asm.syscall(SYS_READ)

    def _emit_open_all(self) -> None:
        # s1 = outer fd, s2 = index fd, s3 = inner fd, s7 = result count.
        self._open("outer_path", Reg.s1)
        self._open("index_path", Reg.s2)
        self._open("inner_path", Reg.s3)
        self.asm.li(Reg.s7, 0)

    def _emit_read_root(self) -> None:
        """Read the index root page once (it stays cached)."""
        asm = self.asm
        asm.li(Reg.t0, 0)
        self._lseek_read(Reg.s2, Reg.t0, "rootbuf", PAGE)

    def _emit_join_loop(self) -> None:
        asm = self.asm
        wl = self.wl

        asm.li(Reg.s0, 0)  # outer page index
        asm.label("pages")
        asm.li(Reg.at, wl.outer_pages)
        asm.bge(Reg.s0, Reg.at, "pages_done")

        # Read the next outer page (sequential scan).
        asm.muli(Reg.t0, Reg.s0, PAGE)
        self._lseek_read(Reg.s1, Reg.t0, "outerbuf", PAGE)

        # Predicate pass: collect matching tuples into the worklist.
        # s4 = slot, s5 = number of probes collected.
        asm.li(Reg.s4, 0)
        asm.li(Reg.s5, 0)
        asm.label("tuples")
        asm.li(Reg.at, TUPLES_PER_PAGE)
        asm.bge(Reg.s4, Reg.at, "tuples_done")
        asm.cwork(wl.tuple_cycles, wl.tuple_loads, wl.tuple_stores)
        asm.la(Reg.t0, "outerbuf")
        asm.muli(Reg.t1, Reg.s4, TUPLE_BYTES)
        asm.add(Reg.t0, Reg.t0, Reg.t1)
        asm.load(Reg.t2, Reg.t0, 0)   # key
        asm.load(Reg.t3, Reg.t0, 8)   # match flag (from outer data)
        asm.beq(Reg.t3, Reg.zero, "tuple_next")
        # leaf offset = rootbuf[key / KEYS_PER_LEAF]
        asm.li(Reg.t4, KEYS_PER_LEAF)
        asm.div(Reg.t5, Reg.t2, Reg.t4)
        asm.la(Reg.t6, "rootbuf")
        asm.shli(Reg.t7, Reg.t5, 3)
        asm.add(Reg.t6, Reg.t6, Reg.t7)
        asm.load(Reg.t8, Reg.t6, 0)
        # worklist[s5] = (key, leaf offset)
        asm.la(Reg.t6, "probe_keys")
        asm.shli(Reg.t7, Reg.s5, 3)
        asm.add(Reg.t6, Reg.t6, Reg.t7)
        asm.store(Reg.t2, Reg.t6, 0)
        asm.la(Reg.t6, "probe_leaf_offs")
        asm.add(Reg.t6, Reg.t6, Reg.t7)
        asm.store(Reg.t8, Reg.t6, 0)
        asm.addi(Reg.s5, Reg.s5, 1)
        asm.label("tuple_next")
        asm.addi(Reg.s4, Reg.s4, 1)
        asm.jmp("tuples")
        asm.label("tuples_done")

        if self.manual:
            self._emit_manual_leaf_hints()

        # Probe pass A: read every leaf, record the inner-heap pointer.
        asm.li(Reg.s4, 0)
        asm.label("leaves")
        asm.bge(Reg.s4, Reg.s5, "leaves_done")
        asm.la(Reg.t6, "probe_leaf_offs")
        asm.shli(Reg.t7, Reg.s4, 3)
        asm.add(Reg.t6, Reg.t6, Reg.t7)
        asm.load(Reg.s6, Reg.t6, 0)
        self._lseek_read(Reg.s2, Reg.s6, "leafbuf", PAGE)
        # inner offset = leafbuf[key % KEYS_PER_LEAF]  (leaf data!)
        asm.la(Reg.t6, "probe_keys")
        asm.add(Reg.t6, Reg.t6, Reg.t7)
        asm.load(Reg.t2, Reg.t6, 0)
        asm.li(Reg.t4, KEYS_PER_LEAF)
        asm.mod(Reg.t5, Reg.t2, Reg.t4)
        asm.la(Reg.t6, "leafbuf")
        asm.shli(Reg.t8, Reg.t5, 3)
        asm.add(Reg.t6, Reg.t6, Reg.t8)
        asm.load(Reg.t9, Reg.t6, 0)
        asm.la(Reg.t6, "probe_inner_offs")
        asm.add(Reg.t6, Reg.t6, Reg.t7)
        asm.store(Reg.t9, Reg.t6, 0)
        asm.addi(Reg.s4, Reg.s4, 1)
        asm.jmp("leaves")
        asm.label("leaves_done")

        if self.manual:
            self._emit_manual_inner_hints()

        # Probe pass B: fetch the inner heap pages and join.
        asm.li(Reg.s4, 0)
        asm.label("inners")
        asm.bge(Reg.s4, Reg.s5, "inners_done")
        asm.la(Reg.t6, "probe_inner_offs")
        asm.shli(Reg.t7, Reg.s4, 3)
        asm.add(Reg.t6, Reg.t6, Reg.t7)
        asm.load(Reg.s6, Reg.t6, 0)
        self._lseek_read(Reg.s3, Reg.s6, "innerbuf", PAGE)
        asm.cwork(self.wl.probe_cycles, self.wl.probe_loads,
                  self.wl.probe_stores)
        asm.addi(Reg.s7, Reg.s7, 1)
        asm.addi(Reg.s4, Reg.s4, 1)
        asm.jmp("inners")
        asm.label("inners_done")

        asm.addi(Reg.s0, Reg.s0, 1)
        asm.jmp("pages")
        asm.label("pages_done")

    def _emit_manual_leaf_hints(self) -> None:
        """Disclose this page's leaf probes as a batch."""
        asm = self.asm
        asm.li(Reg.s4, 0)
        asm.label("mh_leaves")
        asm.bge(Reg.s4, Reg.s5, "mh_leaves_done")
        asm.la(Reg.t6, "probe_leaf_offs")
        asm.shli(Reg.t7, Reg.s4, 3)
        asm.add(Reg.t6, Reg.t6, Reg.t7)
        asm.load(Reg.a1, Reg.t6, 0)
        asm.mov(Reg.a0, Reg.s2)
        asm.li(Reg.a2, PAGE)
        asm.syscall(SYS_HINT_FD_SEG)
        asm.addi(Reg.s4, Reg.s4, 1)
        asm.jmp("mh_leaves")
        asm.label("mh_leaves_done")

    def _emit_manual_inner_hints(self) -> None:
        """Disclose this page's inner-heap probes as a batch."""
        asm = self.asm
        asm.li(Reg.s4, 0)
        asm.label("mh_inners")
        asm.bge(Reg.s4, Reg.s5, "mh_inners_done")
        asm.la(Reg.t6, "probe_inner_offs")
        asm.shli(Reg.t7, Reg.s4, 3)
        asm.add(Reg.t6, Reg.t6, Reg.t7)
        asm.load(Reg.a1, Reg.t6, 0)
        asm.mov(Reg.a0, Reg.s3)
        asm.li(Reg.a2, PAGE)
        asm.syscall(SYS_HINT_FD_SEG)
        asm.addi(Reg.s4, Reg.s4, 1)
        asm.jmp("mh_inners")
        asm.label("mh_inners_done")
