"""Tests for the assembler and binary format."""

import pytest

from repro.errors import AssemblyError
from repro.vm.assembler import Assembler
from repro.vm.binary import INSN_BYTES
from repro.vm.isa import Op, Reg
from repro.vm.memory import DATA_BASE


def minimal(name="t"):
    asm = Assembler(name)
    asm.entry("main")
    return asm


class TestDataSection:
    def test_word_address_and_alignment(self):
        asm = minimal()
        asm.data_bytes("pad", b"xyz")
        addr = asm.data_word("w", 7)
        assert addr % 8 == 0
        assert addr >= DATA_BASE + 3

    def test_asciiz_nul_terminated(self):
        asm = minimal()
        asm.data_asciiz("s", "hi")
        with asm.function("main"):
            asm.halt()
        binary = asm.finish()
        offset = binary.data_symbols["s"] - DATA_BASE
        assert binary.data[offset:offset + 3] == b"hi\x00"

    def test_duplicate_symbol_rejected(self):
        asm = minimal()
        asm.data_word("x")
        with pytest.raises(AssemblyError):
            asm.data_word("x")

    def test_data_addr_lookup(self):
        asm = minimal()
        addr = asm.data_space("buf", 64)
        assert asm.data_addr("buf") == addr
        with pytest.raises(AssemblyError):
            asm.data_addr("missing")

    def test_data_words_array(self):
        asm = minimal()
        asm.data_words("arr", [1, 2, 3])
        with asm.function("main"):
            asm.halt()
        binary = asm.finish()
        offset = binary.data_symbols["arr"] - DATA_BASE
        assert binary.data[offset:offset + 8] == (1).to_bytes(8, "little")


class TestLabelsAndFixups:
    def test_branch_target_resolved(self):
        asm = minimal()
        with asm.function("main"):
            asm.label("top")
            asm.jmp("top")
        binary = asm.finish()
        jmp = binary.text[0]
        assert jmp.op is Op.JMP
        assert jmp.c == 0

    def test_forward_reference_resolved(self):
        asm = minimal()
        with asm.function("main"):
            asm.jmp("end")
            asm.nop()
            asm.label("end")
            asm.halt()
        binary = asm.finish()
        assert binary.text[0].c == 2

    def test_unknown_label_rejected(self):
        asm = minimal()
        with asm.function("main"):
            asm.jmp("nowhere")
        with pytest.raises(AssemblyError):
            asm.finish()

    def test_duplicate_label_rejected(self):
        asm = minimal()
        with asm.function("main"):
            asm.label("x")
            with pytest.raises(AssemblyError):
                asm.label("x")

    def test_missing_entry_rejected(self):
        asm = Assembler("t")
        with asm.function("main"):
            asm.halt()
        with pytest.raises(AssemblyError):
            asm.finish()


class TestFunctions:
    def test_function_extent_recorded(self):
        asm = minimal()
        with asm.function("f"):
            asm.nop()
            asm.ret()
        with asm.function("main"):
            asm.halt()
        binary = asm.finish()
        f = binary.function("f")
        assert (f.entry, f.end) == (0, 2)
        assert binary.function_at_entry(0) is f
        assert binary.function_containing(1) is f

    def test_nested_function_rejected(self):
        asm = minimal()
        with pytest.raises(AssemblyError):
            with asm.function("a"):
                with asm.function("b"):
                    pass

    def test_output_routine_flag(self):
        asm = minimal()
        with asm.function("printf", output_routine=True):
            asm.ret()
        with asm.function("main"):
            asm.halt()
        binary = asm.finish()
        assert "printf" in binary.output_routines

    def test_optimized_stdlib_flag(self):
        asm = minimal()
        with asm.function("memcpy", optimized_stdlib=True):
            asm.ret()
        with asm.function("main"):
            asm.halt()
        binary = asm.finish()
        assert "memcpy" in binary.optimized_stdlib


class TestMetadata:
    def test_stack_relative_marked(self):
        asm = minimal()
        with asm.function("main"):
            asm.load(Reg.t0, Reg.sp, 8)
            asm.load(Reg.t0, Reg.fp, 8)
            asm.load(Reg.t0, Reg.a0, 8)
            asm.halt()
        binary = asm.finish()
        assert binary.text[0].get_meta("stack")
        assert binary.text[1].get_meta("stack")
        assert not binary.text[2].get_meta("stack")

    def test_call_target_recorded(self):
        asm = minimal()
        with asm.function("f"):
            asm.ret()
        with asm.function("main"):
            asm.call("f")
            asm.halt()
        binary = asm.finish()
        call = binary.text[1]
        assert call.get_meta("call_target") == "f"
        assert call.c == 0

    def test_la_function_address(self):
        asm = minimal()
        with asm.function("f"):
            asm.ret()
        with asm.function("main"):
            asm.la(Reg.t0, "f")
            asm.halt()
        binary = asm.finish()
        la = binary.text[1]
        assert la.get_meta("funcaddr") == "f"
        assert la.c == 0  # the function's entry index

    def test_la_data_symbol(self):
        asm = minimal()
        asm.data_word("g", 0)
        with asm.function("main"):
            asm.la(Reg.t0, "g")
            asm.halt()
        binary = asm.finish()
        assert binary.text[0].c == binary.data_symbols["g"]

    def test_enclosing_function_recorded(self):
        asm = minimal()
        with asm.function("main"):
            asm.nop()
        binary = asm.finish()
        assert binary.text[0].get_meta("func") == "main"


class TestJumpTables:
    def test_recognized_table(self):
        asm = minimal()
        with asm.function("main"):
            table = asm.jump_table(["a", "b"])
            asm.switch(Reg.t0, table)
            asm.label("a")
            asm.nop()
            asm.label("b")
            asm.halt()
        binary = asm.finish()
        assert binary.jump_table(0).targets == (1, 2)
        assert binary.jump_table(0).recognized

    def test_unrecognized_flag(self):
        asm = minimal()
        with asm.function("main"):
            table = asm.jump_table(["a"], recognized=False)
            asm.switch(Reg.t0, table)
            asm.label("a")
            asm.halt()
        binary = asm.finish()
        assert not binary.jump_table(0).recognized


class TestRegisters:
    def test_register_by_name(self):
        asm = minimal()
        with asm.function("main"):
            asm.li("t3", 5)
            asm.halt()
        binary = asm.finish()
        assert binary.text[0].a == int(Reg.t3)

    def test_unknown_register_rejected(self):
        asm = minimal()
        with asm.function("main"):
            with pytest.raises(AssemblyError):
                asm.li("bogus", 1)
            asm.halt()

    def test_zero_register_not_writable(self):
        asm = minimal()
        with asm.function("main"):
            with pytest.raises(AssemblyError):
                asm.li(Reg.zero, 1)
            with pytest.raises(AssemblyError):
                asm.add(Reg.zero, Reg.t0, Reg.t1)
            with pytest.raises(AssemblyError):
                asm.load(Reg.zero, Reg.t0, 0)
            asm.halt()

    def test_zero_register_readable(self):
        asm = minimal()
        with asm.function("main"):
            asm.add(Reg.t0, Reg.zero, Reg.zero)  # reads are fine
            asm.store(Reg.zero, Reg.sp, -8)      # as a store *value* too
            asm.halt()
        asm.finish()

    def test_size_accounting(self):
        asm = minimal()
        asm.data_bytes("d", b"1234")
        with asm.function("main"):
            asm.nop()
            asm.halt()
        binary = asm.finish()
        assert binary.text_bytes == 2 * INSN_BYTES
        assert binary.data_bytes == 4
        assert binary.size_bytes == binary.text_bytes + 4 + 4096


class TestErrors:
    """Each malformed program is one typed :class:`AssemblyError`."""

    @pytest.mark.parametrize("reg", [32, -1, 2.0])
    def test_a_register_index_outside_the_file(self, reg):
        asm = minimal()
        with asm.function("main"):
            with pytest.raises(AssemblyError, match="bad register"):
                asm.li(reg, 1)
            asm.li(31, 1)
            asm.halt()
        assert asm.finish().text[0].a == 31

    def test_negative_cwork(self):
        asm = minimal()
        with asm.function("main"):
            with pytest.raises(AssemblyError, match="cwork operands must be non-negative"):
                asm.cwork(10, nloads=-1)
            asm.halt()

    def test_an_unclosed_function(self):
        asm = minimal()
        with asm.function("main"):
            asm.halt()
            with pytest.raises(AssemblyError, match="function 'main' never closed"):
                asm.finish()

    def test_a_jump_table_label_that_does_not_exist(self):
        asm = minimal()
        with asm.function("main"):
            asm.switch(Reg.t0, asm.jump_table(["main", "nowhere"]))
        with pytest.raises(AssemblyError, match="jump table 0 references 'nowhere'"):
            asm.finish()

    def test_an_entry_label_that_does_not_exist(self):
        asm = Assembler("t")
        asm.entry("start")
        with asm.function("main"):
            asm.halt()
        with pytest.raises(AssemblyError, match="t: unknown entry label 'start'"):
            asm.finish()

    def test_a_label_target_outside_a_function_is_fixed_up(self):
        asm = minimal()
        asm.jmp("main")
        with asm.function("main"):
            asm.halt()
        binary = asm.finish()
        assert binary.text[0].c == binary.function("main").entry
