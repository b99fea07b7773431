"""Integration tests: the static analysis and the SpecHint tool reachable
from the CLI, and the machine's handling of a memory fault on the
speculating thread.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.apps.agrep import ANALYSIS_EXPECTATIONS as AGREP_EXPECT
from repro.apps.postgres import ANALYSIS_EXPECTATIONS as PG_EXPECT
from repro.cli import main
from repro.errors import MachineFault
from repro.harness.config import ALL_APPS
from repro.vm.machine import Machine, SpeculationFault

SCALE = 0.3
SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")


class _FakeThread:
    def __init__(self, is_spec):
        self.is_spec = is_spec


class TestSpecMemFault:
    """A plain memory fault on the speculating thread must park
    speculation, never crash the machine."""

    def test_spec_thread_fault_becomes_speculation_fault(self):
        with pytest.raises(SpeculationFault):
            Machine._spec_mem_fault(_FakeThread(True), MachineFault("boom"))

    def test_normal_thread_fault_reraises(self):
        with pytest.raises(MachineFault):
            Machine._spec_mem_fault(_FakeThread(False), MachineFault("boom"))


#: Prints ``analyze --json`` of every app, without and with ``--security``.
_ANALYZE_ALL = """
from repro.cli import main
for app in {apps!r}:
    for mode in ([], ["--security"]):
        assert main(["analyze", app, "--scale", "{scale}", *mode, "--json"]) == 0
"""


class TestAnalyzeCLI:
    @pytest.mark.parametrize("app", ALL_APPS)
    def test_lint_ok_on_shipped_app(self, app, capsys):
        assert main(["analyze", app, "--scale", str(SCALE), "--lint"]) == 0
        out = capsys.readouterr().out
        assert "lint: ok" in out

    def test_analyze_json_is_a_fixed_point(self):
        """The static pipeline's report is the same bytes in interpreters
        whose string hashes differ: no set or dict order leaks into it."""
        script = _ANALYZE_ALL.format(apps=ALL_APPS, scale=SCALE)
        runs = [subprocess.Popen(
            [sys.executable, "-c", script], stdout=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": SRC_DIR, "PYTHONHASHSEED": seed},
        ) for seed in ("1", "2")]
        (first, _), (second, _) = (run.communicate(timeout=120) for run in runs)
        assert [run.returncode for run in runs] == [0, 0]
        assert first.count(b'"binary": ') == 2 * len(ALL_APPS)
        assert first == second

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
        assert payload["transfers"]["resolved"] == \
            AGREP_EXPECT["resolved_transfers"]
        assert "elision" not in payload

    def test_transform_prints_the_wrapped_stores(self, capsys):
        assert main(["transform", "postgres20", "--scale", str(SCALE)]) == 0
        out = capsys.readouterr().out
        assert f", {PG_EXPECT['wrapped_stores']} stores (" in out
        assert "analysis:" not in out
