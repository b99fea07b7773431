"""Tests for the differential correctness oracle."""

import json

import pytest

from repro import cli
from repro.cli import main
from repro.errors import HarnessError, OracleMismatch, RetriesExhausted
from repro.harness import fuzz as fuzz_mod
from repro.harness.config import Variant
from repro.harness.invariants import _first_output_diff, _first_trace_diff
from repro.harness.oracle import (
    ORACLE_PROFILES,
    OracleCell,
    OracleReport,
    run_oracle,
    run_oracle_cell,
)
from repro.harness.results import RunResult
from repro.trace.tracer import NULL_TRACER

SCALE = 0.3


class TestDiffDescriptions:
    def test_first_output_byte_diff(self):
        msg = _first_output_diff(b"abc", b"abd")
        assert "byte 2" in msg

    def test_output_length_diff(self):
        msg = _first_output_diff(b"abc", b"abcd")
        assert "length" in msg

    def test_first_trace_diff(self):
        msg = _first_trace_diff([(1, 0, 10), (1, 10, 10)],
                                [(1, 0, 10), (2, 10, 10)])
        assert "read #1" in msg

    def test_trace_count_diff(self):
        msg = _first_trace_diff([(1, 0, 10)], [(1, 0, 10), (1, 10, 10)])
        assert "count" in msg


class TestProfiles:
    def test_oracle_profiles_cover_all_chaos_modes(self):
        from repro.faults.plan import PROFILES

        assert None in ORACLE_PROFILES  # fault-free baseline included
        named = {p for p in ORACLE_PROFILES if p is not None}
        assert named == {name for name in PROFILES if name != "none"}


class TestOracleCell:
    def test_fault_free_cell_passes(self):
        cell = run_oracle_cell("agrep", None, workload_scale=SCALE)
        assert cell.passed, cell.detail
        assert cell.original is not None and cell.speculating is not None
        assert cell.original.output == cell.speculating.output
        assert len(cell.original.read_trace) > 0
        assert cell.original.read_trace == cell.speculating.read_trace
        assert cell.profile_name == "fault-free"

    def test_chaos_cell_passes(self):
        cell = run_oracle_cell("agrep", "transient-errors",
                               workload_scale=SCALE)
        assert cell.passed, cell.detail

    def test_cell_jsonable_shape(self):
        cell = run_oracle_cell("agrep", None, workload_scale=SCALE)
        entry = cell.to_jsonable()
        assert entry["app"] == "agrep"
        assert entry["passed"] is True
        assert "isolation_violations" in entry


def _fake_run_experiment(output_by_variant, trace_by_variant=None):
    """A stand-in for the runner: canned results, no live system."""
    trace_by_variant = trace_by_variant or {}

    def fake(cfg, tracer=NULL_TRACER):
        variant = cfg.variant.value
        return RunResult(
            app=cfg.app, variant=variant, cycles=1, cpu_hz=1,
            output=output_by_variant[variant],
            read_trace=trace_by_variant.get(variant, ()),
        ), None

    return fake


class TestMismatchDetection:
    def test_output_divergence_detected(self, monkeypatch):
        monkeypatch.setattr(
            fuzz_mod, "run_experiment_with_system", _fake_run_experiment({
                Variant.ORIGINAL.value: b"good",
                Variant.SPECULATING.value: b"bad!",
            }))
        cell = run_oracle_cell("agrep", None)
        assert not cell.passed
        assert "output" in cell.detail

    def test_trace_divergence_detected(self, monkeypatch):
        monkeypatch.setattr(
            fuzz_mod, "run_experiment_with_system", _fake_run_experiment(
                {Variant.ORIGINAL.value: b"same",
                 Variant.SPECULATING.value: b"same"},
                {Variant.ORIGINAL.value: ((1, 0, 10),),
                 Variant.SPECULATING.value: ((1, 0, 20),)},
            ))
        cell = run_oracle_cell("agrep", None)
        assert not cell.passed
        assert "demand read" in cell.detail

    def test_strict_mode_raises_typed_error(self, monkeypatch):
        monkeypatch.setattr(
            fuzz_mod, "run_experiment_with_system", _fake_run_experiment({
                Variant.ORIGINAL.value: b"good",
                Variant.SPECULATING.value: b"bad!",
            }))
        with pytest.raises(OracleMismatch, match="agrep under fault-free"):
            run_oracle(("agrep",), profiles=(None,), strict=True)

    def test_collect_mode_records_failures(self, monkeypatch):
        monkeypatch.setattr(
            fuzz_mod, "run_experiment_with_system", _fake_run_experiment({
                Variant.ORIGINAL.value: b"good",
                Variant.SPECULATING.value: b"bad!",
            }))
        report = run_oracle(("agrep",), profiles=(None, "transient-errors"))
        assert not report.passed
        assert len(report.failures()) == 2
        assert "FAIL" in report.summary()


class TestTypedEscape:
    def test_one_sided_typed_error_is_a_failed_cell_not_an_abort(
            self, monkeypatch):
        """A typed error escaping one variant fails that cell — serially
        and on the pool alike — and every other cell still runs."""
        real = fuzz_mod.run_experiment_with_system

        def flaky(cfg, tracer=NULL_TRACER):
            if (cfg.variant is Variant.SPECULATING
                    and cfg.fault_plan is not None
                    and cfg.fault_plan.name == "stuck-disk"):
                raise RetriesExhausted("planted: demand read gave up")
            return real(cfg, tracer=tracer)

        monkeypatch.setattr(fuzz_mod, "run_experiment_with_system", flaky)
        profiles = (None, "stuck-disk", "transient-errors")
        serial = run_oracle(("agrep",), profiles=profiles,
                            workload_scale=SCALE)
        parallel = run_oracle(("agrep",), profiles=profiles,
                              workload_scale=SCALE, jobs=2)
        assert parallel.to_jsonable() == serial.to_jsonable()
        assert [cell.passed for cell in serial.cells] == [True, False, True]
        detail = serial.cells[1].detail
        assert detail.startswith("[spec-identity] asymmetric escape")
        assert "speculating RetriesExhausted" in detail


class TestOracleCli:
    @pytest.mark.parametrize("profile", ["transient-errors", "restart-storm"])
    def test_smoke_report_is_the_same_bytes_at_jobs_two(
            self, profile, tmp_path, capsys):
        """``run --oracle`` passes, dumps no divergence trace, and writes
        the serial run's report bytes at ``--jobs 2``."""
        reports = []
        for jobs in ("1", "2"):
            report = tmp_path / f"oracle-{jobs}.json"
            assert main(["run", "agrep", "--scale", str(SCALE), "--oracle",
                         "--chaos", profile, "--jobs", jobs,
                         "--oracle-report", str(report),
                         "--trace-out", str(tmp_path / "traces")]) == 0
            assert "oracle: PASS (1/1 cells identical)" in \
                capsys.readouterr().out
            reports.append(report.read_bytes())
        assert reports[0] == reports[1]
        assert not (tmp_path / "traces").exists()


    def test_a_symmetric_double_fault_passes_and_says_why(self, tmp_path, capsys):
        report = tmp_path / "oracle.json"
        assert main(["run", "agrep", "--scale", str(SCALE), "--oracle",
                     "--chaos", "double-fault", "--oracle-report", str(report)]) == 0
        assert "oracle: PASS (1/1 cells identical)" in capsys.readouterr().out
        (cell,) = json.loads(report.read_text())["cells"]
        assert cell["detail"] == ("both variants raised DataLossError "
                                  "(expected for this profile)")

    @pytest.mark.parametrize("where", ["directory", "missing folder"])
    def test_a_report_path_no_file_fits_is_refused_before_the_run(
            self, where, tmp_path, monkeypatch, capsys):
        from repro.harness import oracle

        monkeypatch.setattr(oracle, "run_oracle", lambda *a, **k: pytest.fail("ran"))
        path = str(tmp_path if where == "directory" else tmp_path / "no" / "oracle.json")
        assert main(["run", "agrep", "--scale", "0.05", "--oracle", "--chaos", "none",
                     "--oracle-report", path]) == 1
        assert capsys.readouterr() == ("", f"repro: error: HarnessError: --oracle-report "
                                           f"{path!r} is not a file in an existing directory\n")

    def test_a_report_write_that_fails_is_a_typed_error(self, tmp_path):
        with pytest.raises(HarnessError, match=f"cannot write report {str(tmp_path)!r}: "):
            cli._write_report(str(tmp_path), {})

    def test_a_mismatch_prints_its_detail_and_exits_1(self, monkeypatch, capsys):
        from repro.harness import oracle

        failing = OracleReport(cells=[OracleCell(
            app="agrep", profile="stuck-disk", passed=False,
            detail="[spec-identity] output divergence: output byte 3")])
        monkeypatch.setattr(oracle, "run_oracle", lambda *a, **k: failing)
        assert main(["run", "agrep", "--oracle", "--chaos", "stuck-disk"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[0].split() == ["agrep", "stuck-disk", "MISMATCH",
                                  "([spec-identity]", "output", "divergence:",
                                  "output", "byte", "3)"]
        assert out[1] == "oracle: FAIL (0/1 cells identical)"


class TestOracleReport:
    def test_empty_report_passes(self):
        assert OracleReport().passed

    def test_jsonable_roundtrips_through_json(self):
        import json

        report = OracleReport(cells=[
            OracleCell(app="agrep", profile=None, passed=True),
            OracleCell(app="gnuld", profile="stuck-disk", passed=False,
                       detail="output byte 0"),
        ])
        blob = json.dumps(report.to_jsonable())
        data = json.loads(blob)
        assert data["passed"] is False
        assert len(data["cells"]) == 2
