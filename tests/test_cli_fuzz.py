"""The ``repro fuzz`` command: campaign, coverage report, replay."""

from __future__ import annotations

import json
import math
import os

import pytest

from repro.cli import main

CORPUS = os.path.join(os.path.dirname(__file__), "corpus")


class TestFuzzCampaign:
    def test_small_campaign_passes(self, capsys):
        rc = main(["fuzz", "--budget", "2", "--seed", "7"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "fault-space coverage over 2 case(s)" in out
        assert "fuzz: PASS (2/2 cells clean" in out

    def test_coverage_report_written(self, tmp_path, capsys):
        report = tmp_path / "coverage.json"
        rc = main(["fuzz", "--budget", "2", "--seed", "7",
                   "--coverage-report", str(report)])
        assert rc == 0
        data = json.loads(report.read_text())
        assert data["seed"] == 7
        assert data["budget"] == 2
        assert data["passed"] is True
        assert data["coverage"]["cases"] == 2
        assert data["digest"]

    def test_exit_status_is_the_campaign_verdict(self, tmp_path, capsys,
                                                 monkeypatch):
        """A campaign with a failing cell exits 1, after writing its
        shrunk reproducer (the run and the shrink are stubbed here)."""
        from repro.faults import shrink
        from repro.faults.generate import CoverageLedger, FaultPlanGenerator
        from repro.harness import fuzz
        from repro.harness.invariants import Violation

        case = FaultPlanGenerator(7).case(0)
        failing = fuzz.FuzzReport(seed=7, budget=1, ledger=CoverageLedger(),
                                  cells=[fuzz.FuzzCellResult(
                                      case=case, violations=[
                                          Violation("hint-lifecycle", "planted")])])
        monkeypatch.setattr(fuzz, "run_fuzz", lambda *a, **k: failing)
        scales = []

        def run_cell(candidate, workload_scale):
            scales.append(workload_scale)
            return failing.cells[0]

        def shrunk(case, monitor, evaluate):
            assert [v.monitor for v in evaluate(case)] == [monitor]
            return shrink.ShrinkResult(case, monitor, evaluations=1)

        monkeypatch.setattr(fuzz, "run_fuzz_case", run_cell)
        monkeypatch.setattr(shrink, "shrink_case", shrunk)
        failures = tmp_path / "failures"
        assert main(["fuzz", "--budget", "1", "--seed", "7", "--scale", "0.2",
                     "--failures-dir", str(failures)]) == 1
        assert "fuzz: FAIL (0/1 cells clean" in capsys.readouterr().out
        assert os.listdir(failures) == ["repro-7-0000.json"]
        assert scales == [0.2]

    def test_campaign_digest_matches_across_runs(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            assert main(["fuzz", "--budget", "3", "--seed", "11",
                         "--coverage-report", str(path)]) == 0
        a = json.loads(paths[0].read_text())
        b = json.loads(paths[1].read_text())
        assert a["digest"] == b["digest"]
        assert a["coverage"] == b["coverage"]

    def test_unknown_app_is_a_clean_error(self, capsys):
        rc = main(["fuzz", "--budget", "1", "--apps", "nonesuch"])
        assert rc == 1
        assert "FuzzError" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["directory", "missing folder"])
    def test_a_coverage_report_path_no_file_fits_is_refused_before_the_campaign(
            self, where, tmp_path, monkeypatch, capsys):
        from repro.harness import fuzz

        monkeypatch.setattr(fuzz, "run_fuzz", lambda *a, **k: pytest.fail("ran"))
        path = str(tmp_path if where == "directory" else tmp_path / "no" / "cov.json")
        assert main(["fuzz", "--budget", "1", "--scale", "0.05",
                     "--coverage-report", path]) == 1
        assert capsys.readouterr() == ("", f"repro: error: HarnessError: --coverage-report "
                                           f"{path!r} is not a file in an existing directory\n")

    def test_a_failures_dir_that_is_a_file_is_refused_before_the_campaign(
            self, tmp_path, monkeypatch, capsys):
        from repro.harness import fuzz

        monkeypatch.setattr(fuzz, "run_fuzz", lambda *a, **k: pytest.fail("ran"))
        path = tmp_path / "failures"
        path.write_text("")
        assert main(["fuzz", "--budget", "1", "--failures-dir", str(path)]) == 1
        assert capsys.readouterr() == ("", f"repro: error: FuzzError: --failures-dir "
                                           f"{str(path)!r} is not a directory\n")

    def test_resume_requires_checkpoint(self, capsys):
        rc = main(["fuzz", "--budget", "1", "--resume"])
        assert rc == 1
        assert "--checkpoint" in capsys.readouterr().err


class TestFuzzReplay:
    def test_corpus_entry_replays_green(self, capsys):
        path = os.path.join(CORPUS, "cancel-drain-restart-storm.json")
        rc = main(["fuzz", "replay", path])
        out = capsys.readouterr().out
        assert rc == 0
        assert "clean: no invariant violations" in out
        assert "hint-lifecycle" in out

    def test_a_violation_prints_its_line_and_exits_1(self, capsys, monkeypatch):
        from repro.harness import fuzz
        from repro.harness.invariants import Violation

        monkeypatch.setattr(fuzz, "run_fuzz_case", lambda case, workload_scale:
                            fuzz.FuzzCellResult(case=case, violations=[
                                Violation("audit-chain", "planted")]))
        path = os.path.join(CORPUS, "cancel-drain-restart-storm.json")
        assert main(["fuzz", "replay", path]) == 1
        out = capsys.readouterr().out.splitlines()
        assert "clean: no invariant violations" not in out
        assert out[-1] == "  [audit-chain] planted"

    def test_a_reproducer_that_cannot_be_written_is_a_typed_error(self, tmp_path):
        from repro.errors import FuzzError
        from repro.faults.shrink import Reproducer

        reproducer = Reproducer.load(os.path.join(CORPUS, "cancel-drain-restart-storm.json"))
        with pytest.raises(FuzzError, match=f"cannot write reproducer {str(tmp_path)!r}: "):
            reproducer.save(str(tmp_path))

    def test_missing_file_is_a_clean_error(self, capsys):
        rc = main(["fuzz", "replay", "/nonexistent/repro.json"])
        assert rc == 1
        assert "FuzzError" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value,named", [
        ("index", "x", "index"),
        ("spec_overrides", [1, 2], "spec_overrides"),
        ("plan", {"slow_duration_s": math.nan, "slow_factor": 5}, "slow_duration_s"),
    ], ids=["index", "overrides", "nan-plan"])
    def test_hand_edited_reproducer_is_one_error_line(
            self, field, value, named, tmp_path, capsys):
        """A bad value in a hand-edited reproducer ends the replay with one
        typed line naming it, not a traceback and not a clean replay."""
        with open(os.path.join(CORPUS, "audit-chain-forged-restart.json")) as f:
            data = json.load(f)
        if field == "plan":
            data["case"]["plan"].update(value)
        else:
            data["case"][field] = value
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(data))
        rc = main(["fuzz", "replay", str(path)])
        captured = capsys.readouterr()
        assert rc == 1
        assert "clean" not in captured.out
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert "FuzzError" in lines[0] and named in lines[0]

    @pytest.mark.parametrize("edit,named", [
        (lambda data: [data], "reproducer must be a JSON object, got list"),
        (lambda data: dict(data, version=99), "reproducer version 99 not supported"),
        (lambda data: dict(data, case=[data["case"]]),
         "fuzz case must be a JSON object, got list"),
        (lambda data: dict(data, case=dict(data["case"], app="nonesuch")),
         "fuzz case app 'nonesuch' unknown"),
    ], ids=["not-an-object", "version", "case-not-an-object", "unknown-app"])
    def test_a_malformed_reproducer_is_one_error_line(self, edit, named, tmp_path, capsys):
        with open(os.path.join(CORPUS, "audit-chain-forged-restart.json")) as f:
            data = json.load(f)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(edit(data)))
        assert main(["fuzz", "replay", str(path)]) == 1
        captured = capsys.readouterr()
        assert "clean" not in captured.out
        (line,) = captured.err.strip().splitlines()
        assert "FuzzError" in line and named in line
