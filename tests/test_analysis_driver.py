"""Tests for the analysis driver: classification, reachability, lint,
and the per-app expectations the ``analyze --lint`` verdicts of
``test_analysis_integration.py`` rest on.
"""

import json

import pytest

from repro.analysis.driver import (
    TransferKind,
    analyze_binary,
    spec_roots,
)
from repro.analysis.fixtures import build_safe_fixture, build_unsafe_fixture
from repro.apps import agrep as agrep_mod
from repro.apps import gnuld as gnuld_mod
from repro.apps import postgres as postgres_mod
from repro.apps import xdataslice as xds_mod
from repro.errors import AnalysisError
from repro.harness.runner import program
from repro.spechint.tool import (
    COW_LOAD_CHECK_CYCLES,
    COW_STORE_CHECK_CYCLES,
    OPTIMIZED_STDLIB_CHECK_DIVISOR,
    CheckCosts,
    SpecHintTool,
    check_costs,
)
from repro.vm.assembler import Assembler
from repro.vm.isa import SYS_EXIT, SYS_READ, Reg

SCALE = 0.3

_EXPECTATIONS = {
    "agrep": agrep_mod.ANALYSIS_EXPECTATIONS,
    "gnuld": gnuld_mod.ANALYSIS_EXPECTATIONS,
    "xds": xds_mod.ANALYSIS_EXPECTATIONS,
    "postgres20": postgres_mod.ANALYSIS_EXPECTATIONS,
}


def _app_analysis(app):
    binary = program(app, SCALE)
    return analyze_binary(binary)


class TestCheckCosts:
    def test_plain_costs(self):
        costs = check_costs(optimized_stdlib=False)
        assert costs == CheckCosts(COW_LOAD_CHECK_CYCLES, COW_STORE_CHECK_CYCLES)

    def test_optimized_stdlib_divisor(self):
        costs = check_costs(optimized_stdlib=True)
        divisor = OPTIMIZED_STDLIB_CHECK_DIVISOR
        assert costs.load == max(1, COW_LOAD_CHECK_CYCLES // divisor)
        assert costs.store == max(1, COW_STORE_CHECK_CYCLES // divisor)


class TestTransferClassification:
    def test_resolved_return_unmappable_unknown(self):
        asm = Assembler("transfers")
        asm.data_word("slot")
        asm.entry("main")
        with asm.function("callee"):
            asm.ret()                              # 1: jr ra -> RETURN
        with asm.function("main"):
            asm.la(Reg.t0, "callee")
            asm.callr(Reg.t0)                      # RESOLVED
            asm.li(Reg.t1, 3)
            asm.blt(Reg.zero, Reg.a0, "skip_bad")
            asm.jr(Reg.t1)                         # UNMAPPABLE (3 not entry)
            asm.label("skip_bad")
            asm.la(Reg.t2, "slot")
            asm.load(Reg.t3, Reg.t2, 0)
            asm.blt(Reg.zero, Reg.a1, "skip_unk")
            asm.jr(Reg.t3)                         # UNKNOWN (loaded value)
            asm.label("skip_unk")
            asm.li(Reg.t4, 0)
            asm.callr(Reg.t4)                      # RESOLVED (constant entry)
            asm.syscall(SYS_EXIT)
        binary = asm.finish()
        analysis = analyze_binary(binary)
        kinds = sorted(t.kind.value for t in analysis.transfers.values())
        assert analysis.transfer_count(TransferKind.RESOLVED) == 2
        assert analysis.transfer_count(TransferKind.RETURN) == 1
        assert analysis.transfer_count(TransferKind.UNMAPPABLE) == 1
        assert analysis.transfer_count(TransferKind.UNKNOWN) == 1
        assert len(kinds) == 5
        resolved = [t for t in analysis.transfers.values()
                    if t.kind is TransferKind.RESOLVED]
        assert [t.target for t in resolved] == [binary.functions[0].entry] * 2
        assert [t.detail for t in resolved] == ["callee"] * 2

    def test_jump_table_kinds(self):
        asm = Assembler("tables")
        asm.entry("main")
        with asm.function("main"):
            good = asm.jump_table(["c0", "c1"])
            weird = asm.jump_table(["c0"], recognized=False)
            entries = asm.jump_table(["main"], recognized=False)
            asm.li(Reg.t0, 0)
            asm.switch(Reg.t0, good)        # TABLE_STATIC
            asm.label("c0")
            asm.switch(Reg.t0, weird)       # TABLE_UNMAPPABLE (c0 mid-func)
            asm.label("c1")
            asm.switch(Reg.t0, entries)     # TABLE_DYNAMIC (entries only)
            asm.syscall(SYS_EXIT)
        binary = asm.finish()
        analysis = analyze_binary(binary)
        assert analysis.transfer_count(TransferKind.TABLE_STATIC) == 1
        assert analysis.transfer_count(TransferKind.TABLE_UNMAPPABLE) == 1
        assert analysis.transfer_count(TransferKind.TABLE_DYNAMIC) == 1

    def test_a_reachable_unmappable_table_is_a_lint_error(self):
        asm = Assembler("parks")
        asm.data_space("buf", 64)
        asm.entry("main")
        with asm.function("main"):
            weird = asm.jump_table(["after"], recognized=False)
            asm.li(Reg.a0, 0)
            asm.la(Reg.a1, "buf")
            asm.li(Reg.a2, 64)
            asm.syscall(SYS_READ)
            asm.li(Reg.t0, 0)
            asm.switch(Reg.t0, weird)
            asm.label("after")
            asm.syscall(SYS_EXIT)
        (finding,) = analyze_binary(asm.finish()).lint_errors
        assert (finding.code, finding.function) == ("unmappable-jump-table", "main")
        assert finding.message.startswith("speculation parks at this switch: "
                                          "unrecognized table with non-entry targets")


class TestSpecReachability:
    def _binary(self):
        asm = Assembler("reach")
        asm.data_space("buf", 64)
        asm.entry("main")
        with asm.function("emit", output_routine=True):
            asm.ret()
        with asm.function("main"):
            asm.li(Reg.t0, 1)               # before read: unreachable
            asm.li(Reg.a0, 0)
            asm.la(Reg.a1, "buf")
            asm.li(Reg.a2, 64)
            asm.syscall(SYS_READ)
            asm.li(Reg.t1, 2)               # root
            asm.call("emit")                # output call: not followed
            asm.li(Reg.a0, 0)
            asm.syscall(SYS_EXIT)
        return asm.finish()

    def test_roots_follow_blocking_reads(self):
        binary = self._binary()
        roots = spec_roots(binary)
        (read_index,) = [
            i for i, insn in enumerate(binary.text)
            if insn.op.name == "SYSCALL" and insn.c == SYS_READ
        ]
        assert roots == frozenset({read_index + 1})

    def test_code_before_read_is_dead(self):
        binary = self._binary()
        analysis = analyze_binary(binary)
        main = [f for f in binary.functions if f.name == "main"][0]
        assert main.entry not in analysis.spec_reachable
        assert min(analysis.spec_roots) in analysis.spec_reachable

    def test_output_routine_body_not_entered(self):
        binary = self._binary()
        analysis = analyze_binary(binary)
        emit = [f for f in binary.functions if f.name == "emit"][0]
        assert all(i not in analysis.spec_reachable
                   for i in range(emit.entry, emit.end))


class TestAppExpectations:
    """The numbers each app's ``analyze --lint`` verdict rests on."""

    @pytest.mark.parametrize("app", sorted(_EXPECTATIONS))
    def test_matches_recorded_expectations(self, app):
        analysis = _app_analysis(app)
        expected = _EXPECTATIONS[app]
        warnings = [f for f in analysis.lint if f.severity == "warning"]
        report = SpecHintTool().transform(program(app, SCALE)).spec_meta.report
        assert report.stores_wrapped == expected["wrapped_stores"]
        assert analysis.transfer_count(TransferKind.RESOLVED) == \
            expected["resolved_transfers"]
        assert len(analysis.lint_errors) == expected["lint_errors"]
        assert len(warnings) == expected["lint_warnings"]

    def test_postgres_resolves_the_comparator_callr(self):
        analysis = _app_analysis("postgres20")
        (target,) = {fact.target for fact in analysis.transfers.values()
                     if fact.kind is TransferKind.RESOLVED}
        func = analysis.binary.function_at_entry(target)
        assert func is not None and func.name == "cmp_keys"


class TestFixturesAndLint:
    def test_unsafe_fixture_has_both_error_kinds(self):
        analysis = analyze_binary(build_unsafe_fixture())
        codes = sorted(f.code for f in analysis.lint_errors)
        assert codes == ["unknown-syscall", "unmappable-transfer"]
        # Errors sort before warnings and formatting is stable.
        assert analysis.lint[0].severity == "error"
        assert analysis.lint[0].format().startswith("error: [")

    def test_safe_fixture_lints_clean(self):
        analysis = analyze_binary(build_safe_fixture())
        assert analysis.lint_errors == []

    def test_transformed_binary_rejected(self):
        binary = program("agrep", SCALE)
        transformed = SpecHintTool().transform(binary)
        with pytest.raises(AnalysisError):
            analyze_binary(transformed)

    def test_falls_off_end_warning(self):
        asm = Assembler("off-end")
        asm.data_space("buf", 8)
        asm.entry("main")
        with asm.function("broken"):
            asm.li(Reg.t0, 1)               # falls into main
        with asm.function("main"):
            asm.li(Reg.a0, 0)
            asm.syscall(SYS_EXIT)
        binary = asm.finish()
        analysis = analyze_binary(binary)
        assert any(f.code == "falls-off-end" and f.function == "broken"
                   for f in analysis.lint)

    def test_jsonable_report_round_trips(self):
        analysis = _app_analysis("agrep")
        payload = json.loads(json.dumps(analysis.to_jsonable()))
        assert payload["binary"] == "agrep"
        assert "stores" not in payload
        assert payload["transfers"]["resolved"] == \
            analysis.transfer_count(TransferKind.RESOLVED)
        assert {f["name"] for f in payload["functions"]} == \
            set(analysis.cfgs)
        assert {key for f in payload["functions"] for key in f} == \
            {"name", "blocks", "spec_reachable", "syscalls"}

    def test_jsonable_syscall_reachability_detail(self):
        analysis = _app_analysis("agrep")
        payload = json.loads(json.dumps(analysis.to_jsonable()))
        reach = payload["syscall_reachability"]
        # Every function appears, mirroring the analysis verbatim.
        assert set(reach) == set(analysis.syscalls_per_function)
        for name, nums in analysis.syscalls_per_function.items():
            assert [e["num"] for e in reach[name]] == sorted(nums)
        # Entries carry both number and resolved name, sorted by number.
        main_names = {e["name"] for e in reach["main"]}
        assert {"open", "read"} <= main_names
        # A leaf function with no syscalls serializes as an empty list.
        assert [] in list(reach.values())

    def test_text_report_mentions_key_lines(self):
        analysis = _app_analysis("postgres20")
        text = analysis.format_text()
        assert text.startswith(f"analysis of {analysis.binary_name}")
        assert "  stores: " not in text
        assert "  function         blocks spec?  syscalls" in text
        assert "  transfers: 1 resolved" in text  # the cmp_keys callr
