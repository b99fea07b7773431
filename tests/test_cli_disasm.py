"""Tests for the CLI and the instruction formatter."""

import pytest

from repro.cli import build_parser, main
from repro.vm.disasm import format_insn
from repro.vm.isa import Insn, Op, Reg


class TestDisasm:
    def test_format_basic_insns(self):
        assert format_insn(Insn(Op.NOP)) == "nop"
        assert "li" in format_insn(Insn(Op.LI, int(Reg.t0), 0, 42))
        assert "42" in format_insn(Insn(Op.LI, int(Reg.t0), 0, 42))
        assert "t1" in format_insn(Insn(Op.MOV, int(Reg.t0), int(Reg.t1)))

    def test_format_memory_with_cow_cost(self):
        plain = format_insn(Insn(Op.LOAD, int(Reg.t0), int(Reg.t1), 8))
        cow = format_insn(Insn(Op.COW_LOAD, int(Reg.t0), int(Reg.t1), 8, 5))
        assert "8(t1)" in plain
        assert "cow" in cow and "+5c" in cow

    def test_format_syscall_names(self):
        text = format_insn(Insn(Op.SYSCALL, 0, 0, 4))
        assert "read" in text

    def test_every_opcode_formats(self):
        """No opcode may crash the disassembler."""
        for op in Op:
            text = format_insn(Insn(op, 1, 2, 0, 0))
            assert isinstance(text, str) and text


class TestCliParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "agrep"])
        assert args.variant == "speculating"
        assert args.disks == 4

    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "notepad"])


class TestCliCommands:
    def test_run_command(self, capsys):
        assert main(["run", "agrep", "--scale", "0.1",
                     "--variant", "original"]) == 0
        out = capsys.readouterr().out
        assert "agrep/original" in out
        assert "elapsed" in out

    def test_run_speculating_prints_spec_stats(self, capsys):
        assert main(["run", "agrep", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "speculation:" in out
        assert "restarts" in out

    def test_compare_command(self, capsys):
        assert main(["compare", "agrep", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "speculating" in out and "manual" in out
        assert "improvement" in out

    def test_transform_command(self, capsys):
        assert main(["transform", "agrep", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "wrapped:" in out
        assert "shadow" in out

    def test_paper_command(self, capsys):
        assert main(["paper"]) == 0
        out = capsys.readouterr().out
        assert "OSDI 1999" in out
        assert "gnuld" in out

    def test_sweep_cache_small(self, capsys):
        assert main(["sweep", "cache", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "Table 7" in out
