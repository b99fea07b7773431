"""Integration tests: the static-analysis elision plan applied by the
SpecHint tool, surfaced by the runtime, checked by the oracle, and
reachable from the CLI.
"""

import json

import pytest

from repro.analysis import analyze_binary
from repro.apps.agrep import ANALYSIS_EXPECTATIONS as AGREP_EXPECT
from repro.apps.postgres import ANALYSIS_EXPECTATIONS as PG_EXPECT
from repro.cli import main
from repro.errors import MachineFault
from repro.fs.filesystem import FileSystem
from repro.harness.oracle import run_oracle_cell
from repro.harness.runner import _BUILDERS
from repro.spechint.tool import SpecHintTool
from repro.vm.isa import Op
from repro.vm.machine import Machine, SpeculationFault

from tests.test_spechint_runtime import reader_binary, corpus_fs, run_binary

SCALE = 0.3


def _build(app):
    return _BUILDERS[app](FileSystem(), SCALE, False)


class TestToolOptimize:
    def test_without_optimize_no_analysis_counters(self):
        report = SpecHintTool().transform(_build("agrep")).spec_meta.report
        assert not report.analysis_applied
        assert report.stores_elided == 0
        # Instrumentation cost is reported either way; without the
        # analysis nothing is saved.
        assert report.check_cycles_emitted == report.check_cycles_baseline

    def test_agrep_elides_expected_store_wrappers(self):
        transformed = SpecHintTool(optimize=True).transform(_build("agrep"))
        report = transformed.spec_meta.report
        assert report.analysis_applied
        assert report.stores_elided == AGREP_EXPECT["elidable_stores"]
        assert report.stores_wrapped == \
            AGREP_EXPECT["wrapped_stores"] - AGREP_EXPECT["elidable_stores"]
        assert report.store_elision_pct >= 20.0
        # Elided stores are plain clones in the shadow: the write guard
        # is their safety net, not a COW wrapper.
        shadow = transformed.text[transformed.spec_meta.shadow_base:]
        assert any(insn.op is Op.STORE for insn in shadow)

    def test_original_half_untouched_by_optimization(self):
        transformed = SpecHintTool(optimize=True).transform(_build("agrep"))
        original = _build("agrep")
        for i, insn in enumerate(original.text):
            twin = transformed.text[i]
            assert twin.op == insn.op
            assert (twin.a, twin.b, twin.c) == (insn.a, insn.b, insn.c)

    def test_check_cycle_deltas_match_the_analysis(self):
        binary = _build("agrep")
        analysis = analyze_binary(binary)
        report = SpecHintTool(optimize=True).transform(binary) \
            .spec_meta.report
        assert report.check_cycles_baseline == analysis.check_cycles_baseline
        assert report.check_cycles_emitted == analysis.check_cycles_optimized
        assert report.check_cycles_emitted < report.check_cycles_baseline

    def test_postgres_callr_statically_redirected(self):
        binary = _build("postgres20")
        analysis = analyze_binary(binary)
        transformed = SpecHintTool(optimize=True).transform(binary)
        meta = transformed.spec_meta
        report = meta.report
        assert report.transfers_statically_resolved == \
            PG_EXPECT["resolved_transfers"]
        ((site, target),) = analysis.elision_plan.resolved.items()
        shadow_insn = transformed.text[meta.shadow_base + site]
        assert shadow_insn.op is Op.CALL
        assert shadow_insn.c == target + meta.shadow_base
        assert shadow_insn.get_meta("call_target") == "cmp_keys"
        # The unoptimized tool routes the same site dynamically.
        baseline = SpecHintTool().transform(_build("postgres20"))
        assert baseline.text[meta.shadow_base + site].op is Op.SPEC_CALLR

    def test_map_all_addresses_disables_the_plan(self):
        report = SpecHintTool(optimize=True, map_all_addresses=True) \
            .transform(_build("agrep")).spec_meta.report
        assert report.analysis_applied
        assert report.stores_elided == 0
        assert report.transfers_statically_resolved == 0
        assert report.check_cycles_emitted == report.check_cycles_baseline


class _FakeThread:
    def __init__(self, is_spec):
        self.is_spec = is_spec


class TestSpecMemFault:
    """With COW wrappers elided, a plain memory fault on the speculating
    thread must park speculation, never crash the machine."""

    def test_spec_thread_fault_becomes_speculation_fault(self):
        with pytest.raises(SpeculationFault):
            Machine._spec_mem_fault(_FakeThread(True), MachineFault("boom"))

    def test_normal_thread_fault_reraises(self):
        with pytest.raises(MachineFault):
            Machine._spec_mem_fault(_FakeThread(False), MachineFault("boom"))


class TestRuntimeWithAnalysis:
    def test_output_identical_and_counters_surfaced(self):
        o_sys, o_proc = run_binary(reader_binary(), corpus_fs())
        transformed = SpecHintTool(optimize=True).transform(reader_binary())
        s_sys, s_proc = run_binary(transformed, corpus_fs())
        assert bytes(s_proc.output) == bytes(o_proc.output)
        assert s_proc.exit_code == o_proc.exit_code
        assert s_proc.spec is not None
        assert s_proc.spec.hints_issued > 0
        # The runtime surfaces the analysis deltas as first-class stats
        # and an audit-table record.
        assert s_sys.stats.get("spechint.analysis.stores_elided") > 0
        assert s_sys.stats.get("spechint.analysis.check_cycles_saved") > 0
        assert any(r.kind == "analysis"
                   for r in s_proc.spec.auditor.table.records())

    def test_no_isolation_violations_with_elisions(self):
        transformed = SpecHintTool(optimize=True).transform(reader_binary())
        s_sys, s_proc = run_binary(transformed, corpus_fs())
        assert s_sys.stats.get("spec.isolation_violations") == 0
        assert not s_proc.spec.gate.quarantined


class TestOracleWithAnalysis:
    def test_fault_free_cell_byte_identical(self):
        cell = run_oracle_cell("agrep", None, workload_scale=SCALE,
                               analysis_optimize=True)
        assert cell.passed, cell.detail

    def test_chaos_cell_byte_identical(self):
        cell = run_oracle_cell("agrep", "transient-errors",
                               workload_scale=SCALE, analysis_optimize=True)
        assert cell.passed, cell.detail


class TestAnalyzeCLI:
    def test_lint_ok_on_shipped_app(self, capsys):
        assert main(["analyze", "agrep", "--scale", str(SCALE),
                     "--lint"]) == 0
        out = capsys.readouterr().out
        assert "lint: ok" in out

    def test_lint_fails_on_unsafe_fixture(self, capsys):
        assert main(["analyze", "unsafe-fixture", "--lint"]) == 1
        captured = capsys.readouterr()
        assert "unmappable-transfer" in captured.out
        assert "error(s)" in captured.err

    def test_safe_fixture_clean(self, capsys):
        assert main(["analyze", "safe-fixture", "--lint"]) == 0

    def test_json_output_parses(self, capsys):
        assert main(["analyze", "agrep", "--scale", str(SCALE),
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["binary"] == "agrep"
        assert payload["elision"]["wrapped_stores"] == \
            AGREP_EXPECT["wrapped_stores"]

    def test_transform_optimize_prints_analysis_line(self, capsys):
        assert main(["transform", "postgres20", "--scale", str(SCALE),
                     "--optimize"]) == 0
        out = capsys.readouterr().out
        assert "analysis:" in out
        assert "transfers resolved" in out
