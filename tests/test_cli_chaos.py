"""CLI tests for chaos mode and ReproError handling."""

import pytest

from repro.cli import build_parser, main
from repro.errors import RetriesExhausted


class TestChaosFlags:
    def test_chaos_choices_are_the_profiles(self):
        args = build_parser().parse_args(
            ["run", "agrep", "--chaos", "transient-errors"])
        assert args.chaos == "transient-errors"
        assert args.fault_seed == 7

    def test_unknown_profile_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "agrep", "--chaos", "gremlins"])

    def test_run_with_chaos_prints_fault_summary(self, capsys):
        assert main(["run", "agrep", "--scale", "0.2",
                     "--chaos", "transient-errors"]) == 0
        out = capsys.readouterr().out
        assert "chaos:" in out
        assert "transient-errors" in out
        assert "retries" in out

    def test_run_without_chaos_omits_fault_summary(self, capsys):
        assert main(["run", "agrep", "--scale", "0.2"]) == 0
        assert "chaos:" not in capsys.readouterr().out

    def test_chaos_none_is_fault_free(self, capsys, tmp_path):
        """``--chaos none`` is the fault-free run: no chaos block, and the
        ledger holds one record (same content-addressed id) for both."""
        from repro.registry.store import RunRegistry

        ledger = str(tmp_path / "runs.jsonl")
        base = ["run", "agrep", "--scale", "0.2", "--registry", ledger]
        assert main(base) == 0
        assert main(base + ["--chaos", "none"]) == 0
        assert "chaos:" not in capsys.readouterr().out
        (record,) = RunRegistry.open(ledger).records()
        assert record.chaos_profile == "none"
        assert record.result["fault_profile"] is None

    def test_compare_accepts_chaos(self, capsys):
        assert main(["compare", "agrep", "--scale", "0.2",
                     "--chaos", "stuck-disk"]) == 0
        assert "improvement" in capsys.readouterr().out


class TestErrorExit:
    def test_repro_error_exits_one_with_one_line(self, capsys, monkeypatch):
        import repro.harness.runner as runner

        def boom(cfg):
            raise RetriesExhausted("demand read for lbn 5 failed after 12 attempts")

        monkeypatch.setattr(runner, "run_experiment", boom)
        assert main(["run", "agrep"]) == 1
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1  # exactly one line
        assert "repro: error: RetriesExhausted" in captured.err
        assert "lbn 5" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("argv", [
        ["run", "agrep"],
        ["compare", "agrep"],
        ["sweep", "cache"],
        ["trace", "agrep"],
        ["fuzz", "--budget", "1"],
    ])
    def test_non_positive_scale_exits_one_with_one_line(self, argv, capsys):
        assert main(argv + ["--scale", "-1"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "repro: error: HarnessError: workload scale" in err

    @pytest.mark.parametrize("command", ["analyze", "transform"])
    @pytest.mark.parametrize("scale", ["nan", "inf", "0", "-1"])
    def test_bad_scale_of_a_static_command_exits_one_with_one_line(
        self, command, scale, capsys
    ):
        assert main([command, "agrep", "--scale", scale]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "repro: error: HarnessError: workload scale" in err

    @pytest.mark.parametrize("mb", ["0", "-4", "nan", "inf"])
    def test_bad_cache_size_exits_one_with_one_line(self, mb, capsys):
        assert main(["run", "agrep", "--scale", "0.1", "--cache-mb", mb]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "repro: error: HarnessError: cache size" in err

    def test_replay_of_a_non_positive_scale_exits_one(self, tmp_path, capsys):
        import json
        import os

        corpus = os.path.join(os.path.dirname(__file__), "corpus")
        with open(os.path.join(corpus, "audit-chain-forged-restart.json")) as f:
            data = json.load(f)
        data["workload_scale"] = -1
        path = tmp_path / "repro.json"
        path.write_text(json.dumps(data))
        assert main(["fuzz", "replay", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "repro: error: HarnessError: workload scale" in err

    def test_main_module_maps_error_to_exit_status(self):
        import subprocess
        import sys

        # A run that cannot succeed: total disk failure would raise
        # RetriesExhausted out of the library; __main__ must turn it into
        # exit status 1 and a single stderr line.
        code = (
            "import sys; sys.argv = ['repro', 'run', 'agrep']\n"
            "from unittest import mock\n"
            "import repro.cli as cli\n"
            "import repro.harness.runner as runner\n"
            "from repro.errors import DiskFaultError\n"
            "def boom(cfg): raise DiskFaultError('disk 0 gave up')\n"
            "runner.run_experiment = boom\n"
            "sys.exit(cli.main(['run', 'agrep']))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert "repro: error: DiskFaultError: disk 0 gave up" in proc.stderr
        assert "Traceback" not in proc.stderr
