"""Instruction-formatter edge cases: function-boundary control flow and
jump-table operand rendering."""

import pytest

from repro.vm.assembler import Assembler
from repro.vm.disasm import format_insn
from repro.vm.isa import SYS_EXIT, Insn, Op, Reg


def build_boundary_binary():
    """`spin` ends on a branch; `broken` falls through into `main`."""
    asm = Assembler("edges")
    asm.entry("main")
    with asm.function("spin"):
        asm.label("spin_top")
        asm.addi(Reg.t0, Reg.t0, 1)
        asm.blt(Reg.t0, Reg.t1, "spin_top")  # last insn of the function
    with asm.function("broken"):
        asm.li(Reg.t2, 7)                    # falls into main
    with asm.function("main"):
        asm.li(Reg.a0, 0)
        asm.syscall(SYS_EXIT)
    return asm.finish()


class TestFunctionBoundaries:
    def test_branch_at_last_instruction_renders_its_target(self):
        binary = build_boundary_binary()
        spin = binary.functions[0]
        text = format_insn(binary.text[spin.end - 1], binary)
        # The taken target is the function's own entry, so the label
        # resolves to the function name rather than a raw index.
        assert text.startswith("blt")
        assert "spin" in text

    def test_branch_target_outside_entries_renders_raw_index(self):
        binary = build_boundary_binary()
        # spin_top is index 0 == spin's entry; craft a mid-function view
        # by formatting without the binary: no label resolution at all.
        text = format_insn(binary.text[1])
        assert "@0" in text


class TestJumpTableOperands:
    def _binary(self, ncases=2, recognized=True):
        asm = Assembler("tables")
        asm.entry("main")
        with asm.function("main"):
            labels = [f"case{i}" for i in range(ncases)]
            table = asm.jump_table(labels, recognized=recognized)
            asm.li(Reg.t0, 0)
            asm.switch(Reg.t0, table)
            for label in labels:
                asm.label(label)
                asm.nop()
            asm.li(Reg.a0, 0)
            asm.syscall(SYS_EXIT)
        return asm.finish()

    def _switch_line(self, binary):
        (index,) = [i for i, insn in enumerate(binary.text)
                    if insn.op.name == "SWITCH"]
        return format_insn(binary.text[index], binary)

    def test_recognized_table_lists_targets(self):
        line = self._switch_line(self._binary())
        assert "table#0" in line
        assert "[@2, @3]" in line
        assert "unrecognized" not in line

    def test_unrecognized_table_is_tagged(self):
        line = self._switch_line(self._binary(recognized=False))
        assert "unrecognized; [" in line

    def test_long_tables_are_truncated(self):
        line = self._switch_line(self._binary(ncases=9))
        assert line.count("@") == 6
        assert "..." in line

    def test_without_binary_only_table_id(self):
        binary = self._binary()
        (index,) = [i for i, insn in enumerate(binary.text)
                    if insn.op.name == "SWITCH"]
        line = format_insn(binary.text[index])
        assert line.strip().endswith("table#0")


@pytest.mark.parametrize("op", list(Op), ids=lambda op: op.name)
def test_every_opcode_has_its_own_format(op):
    """The formatter's last case is SCWORK's: any other opcode reaching it
    would print under a name not its own."""
    assert format_insn(Insn(op)).startswith(op.name.lower())
