"""Tests for the speculation-security taint lint (stage 5).

Covers the lattice laws the solver's convergence rests on, the four
crafted fixtures (two leaky, two clean — including the sanitized-copy
false-positive probe), witness chains, the vacuously-clean path for the
shipped apps, the CLI surface, and the runtime cross-validation: a leak
the lint predicts statically is confirmed by executing the fixture and
diffing the hint ledger across two secret values.
"""

import json
import random

import pytest

from repro.analysis.driver import analyze_binary
from repro.analysis.fixtures import (
    FIXTURES,
    LEAKY_FIXTURES,
    build_taint_branch_fixture,
    build_taint_safe_fixture,
    build_taint_sanitized_fixture,
    build_taint_table_fixture,
)
from repro.analysis.taint import (
    EMPTY_TAINT,
    TaintState,
    analyze_security,
    taint_join,
    taint_widen,
)
from repro.cli import main as cli_main
from repro.errors import AnalysisError, AssemblyError
from repro.fs.filesystem import FileSystem
from repro.harness.config import ALL_APPS
from repro.harness.runner import program
from repro.spechint.tool import SpecHintTool
from repro.vm.assembler import Assembler
from repro.vm.isa import (
    SEEK_CUR,
    SEEK_SET,
    SYS_EXIT,
    SYS_HINT_SEG,
    SYS_LSEEK,
    SYS_OPEN,
    SYS_READ,
    Reg,
)
from repro.vm.memory import DATA_BASE

from tests.conftest import make_system, small_system_config


def _random_taint(rng):
    return frozenset(rng.sample("abcdefgh", rng.randint(0, 4)))


def _random_state(rng):
    state = TaintState()
    for reg in rng.sample(range(1, 32), 5):
        state.set(reg, _random_taint(rng))
    for slot in rng.sample(range(-64, 0, 8), 3):
        state.slots[slot] = _random_taint(rng)
    for name in ("x", "y", "@heap"):
        if rng.random() < 0.5:
            state.mem[name] = _random_taint(rng)
    state.smear = _random_taint(rng)
    state.offset = _random_taint(rng)
    return state


class TestLatticeLaws:
    """Join/widen must satisfy the lattice laws the fixpoint relies on."""

    def test_join_laws(self):
        rng = random.Random(7)
        for _ in range(200):
            a, b, c = (_random_taint(rng) for _ in range(3))
            assert taint_join(a, b) == taint_join(b, a)
            assert taint_join(a, a) == a
            assert taint_join(taint_join(a, b), c) == \
                taint_join(a, taint_join(b, c))
            # Monotone: the join bounds both operands.
            assert a <= taint_join(a, b) and b <= taint_join(a, b)
            assert taint_join(a, EMPTY_TAINT) == a

    def test_widen_equals_join_on_finite_lattice(self):
        # The label powerset is finite, so widening can be exact: any
        # ascending chain stabilizes without jumping to a synthetic top.
        rng = random.Random(11)
        for _ in range(200):
            a, b = _random_taint(rng), _random_taint(rng)
            assert taint_widen(a, b) == taint_join(a, b)

    def test_widen_stabilizes_ascending_chains(self):
        labels = [f"s{i}" for i in range(8)]
        acc = EMPTY_TAINT
        for i, label in enumerate(labels):
            nxt = taint_widen(acc, acc | {label})
            assert nxt == acc | {label}
            acc = nxt
        # A full pass with nothing new is a fixpoint.
        assert taint_widen(acc, acc) == acc

    def test_state_join_commutative_and_idempotent(self):
        rng = random.Random(13)
        for _ in range(50):
            a, b = _random_state(rng), _random_state(rng)
            assert a.join_with(b) == b.join_with(a)
            assert a.join_with(a) == a

    def test_state_join_is_upper_bound(self):
        rng = random.Random(17)
        for _ in range(50):
            a, b = _random_state(rng), _random_state(rng)
            joined = a.join_with(b)
            for reg in range(32):
                assert a.regs[reg] <= joined.regs[reg]
                assert b.regs[reg] <= joined.regs[reg]
            assert a.smear | b.smear == joined.smear
            assert a.offset | b.offset == joined.offset
            for name, taint in a.mem.items():
                assert taint <= joined.mem.get(name, EMPTY_TAINT)

    def test_state_equality_ignores_empty_entries(self):
        a, b = TaintState(), TaintState()
        a.mem["x"] = EMPTY_TAINT
        a.slots[-8] = EMPTY_TAINT
        assert a == b

    def test_zero_register_never_tainted(self):
        state = TaintState()
        state.set(0, frozenset({"s"}))
        assert state.get(0) == EMPTY_TAINT


class TestSecretRegions:
    def test_assembler_marks_secret_extent(self):
        asm = Assembler("t")
        asm.data_bytes("key", b"\x01\x02\x03\x04", secret=True)
        asm.data_word("pub", 7)
        asm.entry("main")
        with asm.function("main"):
            asm.li(Reg.a0, 0)
            asm.syscall(SYS_EXIT)
        binary = asm.finish()
        regions = binary.secret_regions()
        assert [r.name for r in regions] == ["key"]
        assert regions[0].size >= 4
        # The extent stops at the next symbol: "pub" is not secret.
        assert regions[0].end <= binary.data_symbols["pub"]

    def test_secret_function_symbol_rejected(self):
        asm = Assembler("t")
        asm.entry("main")
        with asm.function("main"):
            asm.li(Reg.a0, 0)
            asm.syscall(SYS_EXIT)
        binary = asm.finish()
        binary.secret_symbols.add("main")
        with pytest.raises(AssemblyError):
            binary.secret_regions()


class TestFixtureClassification:
    """The acceptance matrix: no false negative, no false positive."""

    def test_table_walk_leaks_offset(self):
        plan = analyze_security(build_taint_table_fixture())
        assert not plan.clean
        assert len(plan.leaks) == 1
        leak = plan.leaks[0]
        assert "offset" in leak.channels
        assert leak.channels["offset"] == ("secret",)
        assert "ino" not in leak.channels

    def test_branch_leaks_ino_implicitly(self):
        plan = analyze_security(build_taint_branch_fixture())
        assert not plan.clean
        assert any("ino" in leak.channels for leak in plan.leaks)

    def test_safe_scan_is_clean(self):
        plan = analyze_security(build_taint_safe_fixture())
        assert plan.clean
        assert plan.secret_labels == ("secret",)
        assert plan.disclosure_sites  # the sites exist; no flow into them

    def test_sanitized_copy_is_not_a_false_positive(self):
        plan = analyze_security(build_taint_sanitized_fixture())
        assert plan.clean

    def test_leak_site_is_speculation_reachable(self):
        binary = build_taint_table_fixture()
        analysis = analyze_binary(binary)
        plan = analyze_security(binary, analysis=analysis)
        for leak in plan.leaks:
            assert leak.index in analysis.spec_reachable
            assert leak.index in plan.disclosure_sites

    def test_registry_covers_all_taint_fixtures(self):
        taint_names = {n for n in FIXTURES if n.startswith("taint-")}
        assert taint_names == {
            "taint-safe-fixture", "taint-table-fixture",
            "taint-branch-fixture", "taint-sanitized-fixture",
        }
        assert set(LEAKY_FIXTURES) <= taint_names
        for name, builder in FIXTURES.items():
            assert builder().name == name


_DISCLOSED_OFFSET = "hint disclosure site: offset operand(s) tainted"
_SEEK_SOURCE = "taints the file-offset channel consumed by the hint"
_SECRET_LOAD = "loads memory tainted by secret region(s) secret"

#: The full witness of every leak of each leaky fixture, as (index, note)
#: per step: a change of the def-use engine cannot reword one unnoticed.
_FIXTURE_WITNESSES = {
    "taint-table-fixture": [[
        (18, _DISCLOSED_OFFSET),
        (14, _SEEK_SOURCE),
        (12, "propagates taint"),
        (10, "propagates taint"),
        (9, "propagates taint"),
        (8, _SECRET_LOAD),
    ]],
    "taint-branch-fixture": [[
        (19, "hint disclosure site: ino operand(s) tainted"),
        (16, "propagates taint"),
        (15, "propagates taint"),
        (14, "syscall result derives from tainted operands"),
        (13, "implicit flow: defined under a tainted branch"),
        (10, "the controlling branch condition is secret-tainted"),
        (9, "propagates taint"),
        (8, _SECRET_LOAD),
    ]],
}


def _witnesses(plan):
    return [[(step.index, step.note) for step in leak.witness]
            for leak in plan.leaks]


class TestWitnessChains:
    @pytest.mark.parametrize("name", LEAKY_FIXTURES)
    def test_every_leak_of_a_leaky_fixture_has_a_witness(self, name):
        plan = analyze_security(FIXTURES[name]())
        assert plan.leaks
        assert all(leak.witness for leak in plan.leaks)

    @pytest.mark.parametrize("name", sorted(_FIXTURE_WITNESSES))
    def test_fixture_witness_chains_are_pinned(self, name):
        plan = analyze_security(FIXTURES[name]())
        assert _witnesses(plan) == _FIXTURE_WITNESSES[name]

    def test_table_witness_reaches_the_secret_load(self):
        plan = analyze_security(build_taint_table_fixture())
        steps = plan.leaks[0].witness
        assert steps[0].index == plan.leaks[0].index  # starts at the sink
        notes = " | ".join(s.note for s in steps)
        assert "disclosure site" in notes
        assert "secret" in notes  # ends at the tainted load

    def test_branch_witness_names_the_controlling_branch(self):
        plan = analyze_security(build_taint_branch_fixture())
        leak = next(l for l in plan.leaks if "ino" in l.channels)
        notes = " | ".join(s.note for s in leak.witness)
        assert "implicit flow" in notes
        assert "branch" in notes

    def test_witness_indices_are_valid_text_indices(self):
        binary = build_taint_branch_fixture()
        plan = analyze_security(binary)
        for leak in plan.leaks:
            for step in leak.witness:
                assert 0 <= step.index < len(binary.text)
                assert step.function == "main"


def _call_program(source="secret", via="call", callee="scale"):
    """``main`` loads a byte of ``source``, hands it to ``callee`` (directly,
    through an ``LA``-resolved ``CALLR``, or through a pointer reloaded from
    memory that the analysis cannot resolve), seeks to what came back and
    reads: the read's disclosed offset is whatever the call let through."""
    asm = Assembler("call-program")
    asm.data_bytes("secret", bytes([5]), secret=True)
    asm.data_bytes("public", bytes([5]))
    asm.data_word("cell", 0)
    asm.data_word("fptr", 0)
    asm.data_asciiz("path", "pub.dat")
    asm.data_space("buf", 64)
    with asm.function("main"):
        asm.la(Reg.a0, "path")
        asm.syscall(SYS_OPEN)
        asm.mov(Reg.s1, Reg.v0)
        asm.mov(Reg.a0, Reg.s1)
        asm.la(Reg.a1, "buf")
        asm.li(Reg.a2, 16)
        asm.syscall(SYS_READ)  # the blocking read speculation resumes after
        asm.la(Reg.t0, source)
        asm.loadb(Reg.a0, Reg.t0, 0)
        if via == "call":
            asm.call(callee)
        else:
            asm.la(Reg.t5, callee)
            if via == "unresolved":
                asm.la(Reg.t6, "fptr")
                asm.store(Reg.t5, Reg.t6, 0)
                asm.load(Reg.t5, Reg.t6, 0)
            asm.callr(Reg.t5)
        if callee == "stash":
            asm.la(Reg.t0, "cell")
            asm.load(Reg.v0, Reg.t0, 0)
        asm.mov(Reg.a1, Reg.v0)
        asm.mov(Reg.a0, Reg.s1)
        asm.li(Reg.a2, SEEK_SET)
        asm.syscall(SYS_LSEEK)
        asm.mov(Reg.a0, Reg.s1)
        asm.la(Reg.a1, "buf")
        asm.li(Reg.a2, 64)
        asm.syscall(SYS_READ)
        asm.li(Reg.a0, 0)
        asm.syscall(SYS_EXIT)
    with asm.function("scale"):
        asm.andi(Reg.v0, Reg.a0, 7)
        asm.shli(Reg.v0, Reg.v0, 12)
        asm.ret()
    with asm.function("stash"):
        asm.la(Reg.t1, "cell")
        asm.store(Reg.a0, Reg.t1, 0)
        asm.li(Reg.v0, 0)
        asm.ret()
    asm.entry("main")
    return asm.finish()


#: The full witness of the one leak of each call program, keyed by the
#: ``_call_program`` arguments, as (index, note) per step.
_CALL_WITNESSES = {
    (("via", "call"),): [
        (17, _DISCLOSED_OFFSET),
        (13, _SEEK_SOURCE),
        (10, "propagates taint"),
        (9, "result of scale derives from tainted call operand a0"),
        (8, _SECRET_LOAD),
    ],
    (("via", "callr"),): [
        (18, _DISCLOSED_OFFSET),
        (14, _SEEK_SOURCE),
        (11, "propagates taint"),
        (10, "result of scale derives from tainted call operand a0"),
        (8, _SECRET_LOAD),
    ],
    (("callee", "stash"),): [
        (19, _DISCLOSED_OFFSET),
        (15, _SEEK_SOURCE),
        (12, "propagates taint"),
        (11, _SECRET_LOAD),
    ],
    (("source", "public"), ("via", "unresolved")): [
        (21, _DISCLOSED_OFFSET),
        (17, _SEEK_SOURCE),
        (14, "propagates taint"),
        (13, "an unresolved callee returns secret-tainted data"),
    ],
}


def _paths_program(body):
    """Open and block on ``pub.dat``, load the one secret byte into t1,
    then run ``body``: everything after the first read is speculation-
    reachable.  ``main`` may call ``reader``, which reads ``a0`` bytes."""
    asm = Assembler("paths")
    asm.data_bytes("secret", bytes([5]), secret=True)
    asm.data_asciiz("path", "pub.dat")
    asm.data_space("buf", 64)
    asm.entry("main")
    with asm.function("main"):
        _open_and_read(asm)
        asm.la(Reg.t0, "secret")
        asm.loadb(Reg.t1, Reg.t0, 0)
        body(asm)
        asm.li(Reg.a0, 0)
        asm.syscall(SYS_EXIT)
    with asm.function("reader"):
        asm.mov(Reg.a2, Reg.a0)
        asm.li(Reg.a0, 3)
        asm.la(Reg.a1, "buf")
        asm.syscall(SYS_READ)
        asm.ret()
    return asm.finish()


def _open_and_read(asm):
    asm.la(Reg.a0, "path")
    asm.syscall(SYS_OPEN)
    asm.mov(Reg.s1, Reg.v0)
    asm.mov(Reg.a0, Reg.s1)
    asm.la(Reg.a1, "buf")
    asm.li(Reg.a2, 16)
    asm.syscall(SYS_READ)


def _through_stack_slots(asm):
    asm.store(Reg.t1, Reg.sp, -16)
    asm.storeb(Reg.t1, Reg.sp, -12)   # overlaps the slot at -16
    asm.load(Reg.t2, Reg.sp, -16)
    asm.li(Reg.t4, 1)
    asm.add(Reg.t3, Reg.t4, Reg.t2)
    asm.mov(Reg.a0, Reg.s1)
    asm.addi(Reg.a1, Reg.sp, -64)     # read into a stack buffer
    asm.mov(Reg.a2, Reg.t3)
    asm.syscall(SYS_READ)


def _through_unknown_pointers(asm):
    asm.store(Reg.t1, Reg.t5, 0)      # t5 unknown: smears every bucket
    asm.load(Reg.t2, Reg.t6, 0)       # t6 unknown: reads every bucket
    asm.li(Reg.t3, 16)
    asm.load(Reg.t4, Reg.t3, 0)       # below the data segment: the heap bucket
    asm.mov(Reg.a0, Reg.t2)
    asm.la(Reg.a1, "buf")
    asm.li(Reg.a2, 64)
    asm.syscall(SYS_READ)


def _through_a_relative_seek(asm):
    asm.mov(Reg.a0, Reg.s1)
    asm.mov(Reg.a1, Reg.t1)
    asm.li(Reg.a2, SEEK_CUR)
    asm.syscall(SYS_LSEEK)
    asm.mov(Reg.a0, Reg.s1)
    asm.la(Reg.a1, "buf")
    asm.li(Reg.a2, 64)
    asm.syscall(SYS_READ)


def _into_a_manual_hint(asm):
    asm.addi(Reg.a0, Reg.sp, -32)     # the path pointer is a stack address
    asm.mov(Reg.a1, Reg.t1)
    asm.li(Reg.a2, 4096)
    asm.syscall(SYS_HINT_SEG)


def _under_a_tainted_switch(asm):
    asm.mov(Reg.a0, Reg.s1)
    asm.la(Reg.a1, "buf")
    asm.li(Reg.a2, 64)
    table = asm.jump_table(["go", "skip"])
    asm.andi(Reg.t2, Reg.t1, 1)
    asm.switch(Reg.t2, table)
    asm.label("go")
    asm.syscall(SYS_READ)
    asm.label("skip")


def _through_a_secret_index(asm):
    asm.la(Reg.t2, "buf")
    asm.add(Reg.t2, Reg.t2, Reg.t1)
    asm.loadb(Reg.t3, Reg.t2, 0)
    asm.mov(Reg.a0, Reg.s1)
    asm.la(Reg.a1, "buf")
    asm.mov(Reg.a2, Reg.t3)
    asm.syscall(SYS_READ)


def _through_a_join_of_two_loads(asm):
    # The witness follows the later of the two reaching definitions of
    # t2, the public load, and says only that the load is tainted.
    asm.blt(Reg.zero, Reg.a3, "public")
    asm.la(Reg.t4, "secret")
    asm.loadb(Reg.t2, Reg.t4, 0)
    asm.jmp("join")
    asm.label("public")
    asm.la(Reg.t4, "buf")
    asm.loadb(Reg.t2, Reg.t4, 0)
    asm.label("join")
    asm.mov(Reg.a0, Reg.s1)
    asm.la(Reg.a1, "buf")
    asm.mov(Reg.a2, Reg.t2)
    asm.syscall(SYS_READ)


def _into_a_callee_argument(asm):
    asm.mov(Reg.a0, Reg.t1)
    asm.call("reader")


#: Each transfer path's one leak: (index, site, channels, witness as
#: (index, note) per step).
_PATH_LEAKS = {
    _through_stack_slots: (17, "spec-read", {"length": ("secret",)}, [
        (17, "hint disclosure site: length operand(s) tainted"),
        (16, "propagates taint"),
        (13, "propagates taint"),
        (11, _SECRET_LOAD),
    ]),
    _through_unknown_pointers: (16, "spec-read", {"ino": ("secret",)}, [
        (16, "hint disclosure site: ino operand(s) tainted"),
        (13, "propagates taint"),
        (10, _SECRET_LOAD),
    ]),
    _through_a_relative_seek: (16, "spec-read", {"offset": ("secret",)}, [
        (16, _DISCLOSED_OFFSET),
        (12, _SEEK_SOURCE),
        (10, "propagates taint"),
        (8, _SECRET_LOAD),
    ]),
    _into_a_manual_hint: (12, "manual-hint", {"offset": ("secret",)}, [
        (12, _DISCLOSED_OFFSET),
    ]),
    _through_a_secret_index: (15, "spec-read", {"length": ("secret",)}, [
        (15, "hint disclosure site: length operand(s) tainted"),
        (14, "propagates taint"),
        (11, "loads through a secret-derived address"),
        (10, "propagates taint"),
        (8, _SECRET_LOAD),
    ]),
    _through_a_join_of_two_loads: (18, "spec-read", {"length": ("secret",)}, [
        (18, "hint disclosure site: length operand(s) tainted"),
        (17, "propagates taint"),
        (14, "loads secret-tainted memory"),
    ]),
    # The chain stops at reader's argument: no definition of a0 reaches it.
    _into_a_callee_argument: (16, "spec-read", {"length": ("secret",)}, [
        (16, "hint disclosure site: length operand(s) tainted"),
        (13, "propagates taint"),
    ]),
    _under_a_tainted_switch: (14, "spec-read", {"control": ("secret",)}, [
        (14, "hint disclosure site: control operand(s) tainted"),
        (13, "disclosure is control-dependent on this tainted branch"),
        (12, "propagates taint"),
        (8, _SECRET_LOAD),
    ]),
}


class TestTransferPaths:
    """Stack slots, unknown pointers, relative seeks, manual hints and
    switches: each carries the secret to exactly the pinned leak."""

    @pytest.mark.parametrize("body", list(_PATH_LEAKS), ids=lambda body: body.__name__)
    def test_the_one_leak_and_its_witness(self, body):
        index, site, channels, witness = _PATH_LEAKS[body]
        plan = analyze_security(_paths_program(body))
        assert plan.disclosure_sites == (index,)
        (leak,) = plan.leaks
        assert (leak.index, leak.site, leak.channels) == (index, site, channels)
        assert [(step.index, step.note) for step in leak.witness] == witness


class TestInterprocedural:
    """Taint through calls: summaries, entry environments, witnesses."""

    @pytest.mark.parametrize(
        "args", sorted(_CALL_WITNESSES),
        ids=lambda args: ",".join(f"{k}={v}" for k, v in args),
    )
    def test_witness_chains_are_pinned(self, args):
        plan = analyze_security(_call_program(**dict(args)))
        assert _witnesses(plan) == [_CALL_WITNESSES[args]]

    @pytest.mark.parametrize("via", ["call", "callr"])
    def test_secret_through_return_value_leaks_with_full_witness(self, via):
        binary = _call_program(via=via)
        plan = analyze_security(binary)
        (leak,) = plan.leaks
        assert leak.channels == {"offset": ("secret",)}
        assert plan.functions_analyzed == ("main", "scale")
        # The witness crosses the call and ends at the secret load.
        call = next(s for s in leak.witness if s.text.startswith("call"))
        assert "scale" in call.note and "a0" in call.note
        last = leak.witness[-1]
        assert last.text.startswith("loadb") and "secret" in last.note
        assert leak.witness.index(call) < leak.witness.index(last)

    def test_same_callee_fed_a_public_byte_is_clean(self):
        plan = analyze_security(_call_program(source="public"))
        assert plan.secret_labels == ("secret",)
        assert plan.clean

    def test_callee_store_taints_a_later_load_in_the_caller(self):
        plan = analyze_security(_call_program(callee="stash"))
        (leak,) = plan.leaks
        assert leak.channels == {"offset": ("secret",)}
        assert leak.witness[-1].text.startswith("load ")
        assert analyze_security(
            _call_program(source="public", callee="stash")
        ).clean

    def test_unresolved_callr_is_maximally_conservative(self):
        # The callee is unknown: it may return anything derived from
        # reachable memory (the secret included) even for a public
        # argument, and control may enter every function.
        plan = analyze_security(_call_program(source="public", via="unresolved"))
        (leak,) = plan.leaks
        assert leak.channels == {"offset": ("secret",)}
        assert plan.functions_analyzed == ("main", "scale", "stash")
        call = next(s for s in leak.witness if s.text.startswith("callr"))
        assert "unresolved callee" in call.note


class TestSecurityPlanSurface:
    def test_lint_findings_only_for_leaks(self):
        leaky = analyze_security(build_taint_table_fixture())
        findings = leaky.lint()
        assert len(findings) == len(leaky.leaks) == 1
        assert findings[0].severity == "error"
        assert findings[0].code == "secret-to-hint"
        assert analyze_security(build_taint_safe_fixture()).lint() == []

    def test_jsonable_round_trips(self):
        plan = analyze_security(build_taint_branch_fixture())
        payload = json.loads(json.dumps(plan.to_jsonable()))
        assert payload["binary"] == "taint-branch-fixture"
        assert payload["clean"] is False
        assert payload["secret_regions"] == ["secret"]
        leak = payload["leaks"][0]
        assert set(leak) >= {"index", "function", "site", "channels",
                             "witness"}
        assert leak["witness"]  # chain serialized

    def test_text_report_shape(self):
        leaky = analyze_security(build_taint_table_fixture())
        text = leaky.format_text()
        assert text.startswith("security analysis of taint-table-fixture")
        assert "leak at main@" in text
        clean = analyze_security(build_taint_sanitized_fixture()).format_text()
        assert "clean" in clean

    def test_transformed_binary_rejected(self):
        transformed = SpecHintTool().transform(build_taint_table_fixture())
        with pytest.raises(AnalysisError):
            analyze_security(transformed)


class TestAppsAreClean:
    """No shipped app declares secrets: all must pass --security clean."""

    @pytest.mark.parametrize("app", sorted(ALL_APPS))
    def test_app_passes_security_lint(self, app, capsys):
        binary = program(app, 0.3)
        plan = analyze_security(binary)
        assert plan.clean
        assert plan.secret_labels == ()
        # Vacuously clean still inventories the disclosure sites.
        assert plan.disclosure_sites
        assert cli_main(["analyze", app, "--scale", "0.3", "--security",
                         "--lint"]) == 0
        assert "security lint: ok" in capsys.readouterr().out


class TestCli:
    def test_security_lint_fails_on_leaky_fixtures(self, capsys):
        for name in LEAKY_FIXTURES:
            assert cli_main(["analyze", name, "--security", "--lint"]) == 1
            out = capsys.readouterr()
            assert "leak at" in out.out
            assert "security lint" in out.err

    def test_security_lint_passes_safe_fixtures(self, capsys):
        for name in ("taint-safe-fixture", "taint-sanitized-fixture",
                     "safe-fixture"):
            assert cli_main(["analyze", name, "--security", "--lint"]) == 0
        assert "security lint: ok" in capsys.readouterr().out

    def test_security_json_mode(self, capsys):
        assert cli_main(["analyze", "taint-table-fixture", "--security",
                         "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is False

    def test_analyze_json_reports_syscall_reachability(self, capsys):
        assert cli_main(["analyze", "agrep", "--json", "--scale",
                         "0.3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        reach = payload["syscall_reachability"]
        assert {e["name"] for e in reach["main"]} >= {"open", "read"}
        for entries in reach.values():
            for entry in entries:
                assert set(entry) == {"num", "name"}


def _run_fixture(builder, **kwargs):
    fs = FileSystem()
    binary = builder(fs, **kwargs)
    transformed = SpecHintTool().transform(binary)
    system = make_system(fs, small_system_config(cache_blocks=48))
    process = system.kernel.spawn(transformed)
    system.kernel.run()
    return system, process


class TestRuntimeCorrelation:
    """Cross-validation: a statically predicted leak is empirically
    observable in the hint ledger, and a clean fixture's ledger is
    secret-invariant."""

    def test_predicted_offset_leak_observable_in_hint_ledger(self):
        # The lint flags the table walk's offset channel ...
        plan = analyze_security(build_taint_table_fixture())
        assert any("offset" in leak.channels for leak in plan.leaks)
        # ... and indeed: runs differing only in the secret byte disclose
        # different (ino, block) hint keys.  The access pattern carries
        # the secret, exactly as predicted.
        keys = {}
        for secret in (1, 6):
            system, process = _run_fixture(
                build_taint_table_fixture, secret_byte=secret
            )
            keys[secret] = system.manager.lifecycle.disclosed_keys()
            assert keys[secret]  # speculation disclosed at least one hint
        assert keys[1] != keys[6]
        # Same inode (same file opened), different block: the leak is in
        # the offset, matching the flagged channel.
        (ino1, blk1), (ino6, blk6) = keys[1][0], keys[6][0]
        assert ino1 == ino6
        assert blk1 != blk6

    def test_branch_leak_discloses_different_inodes(self):
        plan = analyze_security(build_taint_branch_fixture())
        assert any("ino" in leak.channels for leak in plan.leaks)
        inos = {}
        for secret in (0, 1):
            system, process = _run_fixture(
                build_taint_branch_fixture, secret_byte=secret
            )
            keys = system.manager.lifecycle.disclosed_keys()
            assert keys
            inos[secret] = {ino for ino, _ in keys}
        # Different secrets hint different inodes: the ino channel leaks.
        assert inos[0] != inos[1]

    @staticmethod
    def _ledgers_over_secrets(builder, payloads):
        """The disclosed hint keys of one run per secret ``payload``, each
        written over the start of the fixture's ``secret`` region."""
        ledgers = []
        for payload in payloads:
            fs = FileSystem()
            binary = builder(fs)
            offset = binary.data_symbols["secret"] - DATA_BASE
            data = bytearray(binary.data)
            data[offset:offset + len(payload)] = payload
            binary.data = bytes(data)
            transformed = SpecHintTool().transform(binary)
            system = make_system(fs, small_system_config(cache_blocks=48))
            system.kernel.spawn(transformed)
            system.kernel.run()
            ledgers.append(system.manager.lifecycle.disclosed_keys())
        return ledgers

    def test_safe_fixture_ledger_is_secret_invariant(self):
        # Control: the clean fixture's hint stream must not vary with the
        # secret (runs share identical code; only secret data differs).
        ledgers = self._ledgers_over_secrets(
            build_taint_safe_fixture,
            (bytes(range(1, 9)), bytes(range(101, 109))))
        assert ledgers[0] == ledgers[1]

    def test_sanitized_fixture_ledger_is_secret_invariant(self):
        # The lint clears the masked copy of the secret; the runtime must
        # agree: whatever the secret byte, the same hints are disclosed.
        assert analyze_security(build_taint_sanitized_fixture()).clean
        ledgers = self._ledgers_over_secrets(
            build_taint_sanitized_fixture,
            (bytes([0]), bytes([1]), bytes([42]), bytes([255])))
        assert ledgers[0]
        assert all(ledger == ledgers[0] for ledger in ledgers)

    def test_disclosed_keys_matches_records(self):
        system, _ = _run_fixture(build_taint_table_fixture, secret_byte=3)
        lifecycle = system.manager.lifecycle
        assert lifecycle.disclosed_keys() == \
            [r.key for r in lifecycle.records()]
