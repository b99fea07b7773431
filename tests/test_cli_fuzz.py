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
