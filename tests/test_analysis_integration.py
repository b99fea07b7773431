"""Integration tests: the static analysis and the SpecHint tool reachable
from the CLI, and the machine's handling of a memory fault on the
speculating thread.
"""

import json

import pytest

from repro.apps.agrep import ANALYSIS_EXPECTATIONS as AGREP_EXPECT
from repro.apps.postgres import ANALYSIS_EXPECTATIONS as PG_EXPECT
from repro.cli import main
from repro.errors import MachineFault
from repro.vm.machine import Machine, SpeculationFault

SCALE = 0.3


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
        assert payload["transfers"]["resolved"] == \
            AGREP_EXPECT["resolved_transfers"]
        assert "elision" not in payload

    def test_transform_prints_the_wrapped_stores(self, capsys):
        assert main(["transform", "postgres20", "--scale", str(SCALE)]) == 0
        out = capsys.readouterr().out
        assert f", {PG_EXPECT['wrapped_stores']} stores (" in out
        assert "analysis:" not in out
