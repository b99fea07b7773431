"""The command line's surface: every entry has a reader.

``TestDesignTable`` walks ``build_parser()`` against the table of DESIGN.md
§16 ("The command line and who reads it"): a subcommand or option with no
row, a row naming a subcommand or option the parser lacks, a row that
says nothing reads it, or an **own smoke only** row fails.  ``TestIndependentVariables`` drives the options that set the
paper's independent variables (disks, cache size, processors) and the
fault seed a chaos run replays from, and fails if any of them is silently
ignored.
"""

import argparse
import os
import re

import pytest

from repro.cli import build_parser, main
from repro.faults.plan import profile
from repro.harness.config import ExperimentConfig, Variant
from repro.harness.results import RunResult
from repro.harness.runner import run_experiment
from repro.params import ArrayParams
from repro.registry.fingerprint import params_digest
from repro.registry.store import RunRegistry

DESIGN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "DESIGN.md")
SCALE = 0.05


def parser_surface():
    """``(commands, options)`` of ``build_parser()``: the path of every
    runnable subcommand (a parser that dispatches to a ``cmd_*``, e.g.
    ``run``, ``fuzz replay``, ``runs list``), and ``(command, option)``
    for every ``--option`` of every subcommand."""
    commands, options = set(), set()

    def walk(parser, path):
        if path and parser.get_default("func") is not None:
            commands.add(" ".join(path))
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, sub in action.choices.items():
                    walk(sub, path + (name,))
            elif path:
                options.update((" ".join(path), option)
                               for option in action.option_strings
                               if option.startswith("--") and option != "--help")

    walk(build_parser(), ())
    return commands, options


def design_rows():
    """``(commands, options, readers)`` per row of DESIGN.md §16's table;
    a row with an empty command cell belongs to the command above it."""
    with open(DESIGN) as handle:
        section = handle.read().split("## 16.", 1)[1].split("\n## ", 1)[0]
    rows, commands = [], ()
    for line in section.splitlines():
        if not line.startswith("| ") or line.startswith("| Command "):
            continue
        command_cell, option_cell, readers = (
            cell.strip() for cell in line.strip().strip("|").split("|"))
        commands = tuple(re.findall(r"`([^`]+)`", command_cell)) or commands
        options = tuple(token for token in re.findall(r"`([^`]+)`", option_cell)
                        if token.startswith("--"))
        rows.append((commands, options, readers))
    return rows


class TestDesignTable:
    def test_every_option_has_a_row_and_every_row_an_option(self):
        rows = design_rows()
        documented = {(command, option) for commands, options, _ in rows
                      for command in commands for option in options}
        _, actual = parser_surface()
        assert sorted(actual - documented) == [], "options with no §16 row"
        assert sorted(documented - actual) == [], "§16 rows the parser lacks"

    def test_every_subcommand_has_a_row_and_every_row_a_subcommand(self):
        documented = {command for commands, _, _ in design_rows()
                      for command in commands}
        actual, _ = parser_surface()
        assert sorted(actual - documented) == [], "subcommands with no §16 row"
        assert sorted(documented - actual) == [], "§16 rows the parser lacks"

    def test_no_row_is_own_smoke_only(self):
        # An entry whose only reader is a test that checks it ran has no
        # reader.
        own_smoke = [(commands, options) for commands, options, readers
                     in design_rows() if "own smoke only" in readers]
        assert own_smoke == []

    def test_no_row_is_read_by_nothing(self):
        unread = [(commands, options) for commands, options, readers
                  in design_rows() if readers.startswith("**none**")]
        assert unread == []


def _records(ledger):
    return RunRegistry.open(str(ledger)).records()


def _command(command, tmp_path, *extra):
    argv = [command, "agrep", "--scale", str(SCALE),
            "--registry", str(tmp_path / "runs.jsonl"), *extra]
    if command == "trace":
        argv += ["--out", str(tmp_path / "trace.jsonl")]
    return argv


COMMANDS = ("run", "compare", "trace")


class TestIndependentVariables:
    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("flag, value, configure", [
        ("--disks", "2", lambda cfg: cfg.with_(
            system=cfg.system.replace(array=ArrayParams(ndisks=2)))),
        ("--cache-mb", "6", lambda cfg: cfg.with_(cache_paper_mb=6.0)),
        ("--ncpus", "2", lambda cfg: cfg.with_(
            system=cfg.system.replace(ncpus=2))),
    ])
    def test_system_option_reaches_the_recorded_params_digest(
            self, tmp_path, capsys, command, flag, value, configure):
        assert main(_command(command, tmp_path, flag, value)) == 0
        capsys.readouterr()
        default = ExperimentConfig(app="agrep", workload_scale=SCALE)
        expected = params_digest(configure(default))
        assert expected != params_digest(default)
        records = _records(tmp_path / "runs.jsonl")
        assert len(records) == (3 if command == "compare" else 1)
        assert {record.params_digest for record in records} == {expected}

    @pytest.mark.parametrize("command", COMMANDS)
    def test_fault_seed_reaches_the_fault_plan(self, tmp_path, capsys, command):
        assert main(_command(command, tmp_path, "--chaos", "transient-errors",
                             "--fault-seed", "11")) == 0
        capsys.readouterr()
        (recorded,) = [record for record in _records(tmp_path / "runs.jsonl")
                       if record.variant == "speculating"]
        events = RunResult.from_jsonable(recorded.result).fault_events()

        def library_events(seed):
            return run_experiment(ExperimentConfig(
                app="agrep", variant=Variant.SPECULATING, workload_scale=SCALE,
                fault_plan=profile("transient-errors", seed),
            )).fault_events()

        assert events == library_events(11)
        assert events != library_events(7)

    def test_fault_seed_reaches_the_oracle_cell(self, tmp_path, capsys):
        assert main(["run", "agrep", "--scale", str(SCALE), "--oracle",
                     "--chaos", "transient-errors", "--fault-seed", "11",
                     "--registry", str(tmp_path / "runs.jsonl")]) == 0
        capsys.readouterr()
        (cell,) = [record for record in _records(tmp_path / "runs.jsonl")
                   if record.kind == "oracle-cell"]
        assert cell.result["case"]["plan"]["seed"] == 11

    def test_trace_variant_names_the_default_output(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["trace", "agrep", "--scale", str(SCALE),
                     "--variant", "manual"]) == 0
        assert "agrep/manual:" in capsys.readouterr().out
        assert (tmp_path / "trace-agrep-manual.jsonl").is_file()
