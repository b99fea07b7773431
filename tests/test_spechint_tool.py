"""Tests for the SpecHint binary modification tool."""

import pytest

from repro.errors import UnsupportedBinary
from repro.analysis.driver import (
    COW_LOAD_CHECK_CYCLES,
    COW_STORE_CHECK_CYCLES,
    OPTIMIZED_STDLIB_CHECK_DIVISOR,
)
from repro.spechint.tool import SpecHintTool, SpeculatingBinary
from repro.vm.assembler import Assembler
from repro.vm.isa import Op, Reg, SYS_READ, SYS_EXIT
from repro.vm.stdlib import emit_stdlib


def build_sample():
    asm = Assembler("sample")
    emit_stdlib(asm)
    asm.data_space("buf", 64)
    asm.data_asciiz("msg", "hi")
    asm.entry("main")
    with asm.function("helper"):
        asm.load(Reg.t0, Reg.a0, 0)
        asm.store(Reg.t0, Reg.a0, 8)
        asm.load(Reg.t1, Reg.sp, 0)
        asm.ret()
    with asm.function("main"):
        table = asm.jump_table(["c0", "c1"])
        weird = asm.jump_table(["c0"], recognized=False)
        asm.cwork(1000, 50, 20)
        asm.la(Reg.t2, "helper")
        asm.callr(Reg.t2)
        asm.call("helper")
        asm.la(Reg.a0, "msg")
        asm.li(Reg.a1, 2)
        asm.call("print_str")
        asm.li(Reg.a0, 3)
        asm.la(Reg.a1, "buf")
        asm.li(Reg.a2, 16)
        asm.syscall(SYS_READ)
        asm.li(Reg.t3, 0)
        asm.switch(Reg.t3, table)
        asm.label("c0")
        asm.switch(Reg.t3, weird)
        asm.label("c1")
        asm.li(Reg.a0, 0)
        asm.syscall(SYS_EXIT)
    return asm.finish()


@pytest.fixture
def transformed():
    return SpecHintTool().transform(build_sample())


class TestRestrictions:
    def test_no_relocations_rejected(self):
        binary = build_sample()
        binary.has_relocations = False
        with pytest.raises(UnsupportedBinary):
            SpecHintTool().transform(binary)

    def test_multithreaded_rejected(self):
        binary = build_sample()
        binary.single_threaded = False
        with pytest.raises(UnsupportedBinary):
            SpecHintTool().transform(binary)

    def test_dynamic_linking_rejected(self):
        binary = build_sample()
        binary.statically_linked = False
        with pytest.raises(UnsupportedBinary):
            SpecHintTool().transform(binary)

    def test_double_transform_rejected(self, transformed):
        with pytest.raises(UnsupportedBinary):
            SpecHintTool().transform(transformed)


class TestShadowStructure:
    def test_text_doubles(self, transformed):
        assert isinstance(transformed, SpeculatingBinary)
        meta = transformed.spec_meta
        assert len(transformed.text) == 2 * meta.original_text_len
        assert meta.shadow_base == meta.original_text_len

    def test_original_half_untouched(self, transformed):
        original = build_sample()
        for i, insn in enumerate(original.text):
            twin = transformed.text[i]
            assert twin.op == insn.op
            assert (twin.a, twin.b, twin.c) == (insn.a, insn.b, insn.c)

    def test_loads_stores_wrapped(self, transformed):
        meta = transformed.spec_meta
        shadow = transformed.text[meta.shadow_base:]
        ops = {insn.op for insn in shadow}
        assert Op.COW_LOAD in ops
        assert Op.COW_STORE in ops
        assert Op.LOAD not in ops
        assert Op.STORE not in ops

    def test_stack_relative_loads_carry_no_check_cost(self, transformed):
        meta = transformed.spec_meta
        shadow = transformed.text[meta.shadow_base:]
        stack_loads = [
            insn for insn in shadow
            if insn.op is Op.COW_LOAD and insn.get_meta("stack")
        ]
        assert stack_loads
        assert all(insn.d == 0 for insn in stack_loads)

    def test_ordinary_loads_carry_check_cost(self, transformed):
        meta = transformed.spec_meta
        shadow = transformed.text[meta.shadow_base:]
        plain_loads = [
            insn for insn in shadow
            if insn.op is Op.COW_LOAD and not insn.get_meta("stack")
            and insn.get_meta("func") in ("main", "helper")
        ]
        assert plain_loads
        assert all(insn.d == COW_LOAD_CHECK_CYCLES for insn in plain_loads)

    def test_cwork_dilated(self, transformed):
        meta = transformed.spec_meta
        original = build_sample()
        for i, insn in enumerate(original.text):
            if insn.op is Op.CWORK and insn.get_meta("func") == "main":
                twin = transformed.text[meta.shadow_base + i]
                assert twin.op is Op.SCWORK
                expected = (
                    insn.a
                    + insn.b * COW_LOAD_CHECK_CYCLES
                    + insn.c * COW_STORE_CHECK_CYCLES
                )
                assert twin.a == expected

    def test_optimized_stdlib_reduced_checks(self, transformed):
        meta = transformed.spec_meta
        original = build_sample()
        memcpy = original.function("memcpy")
        reduced = max(1, COW_LOAD_CHECK_CYCLES // OPTIMIZED_STDLIB_CHECK_DIVISOR)
        for i in range(memcpy.entry, memcpy.end):
            twin = transformed.text[meta.shadow_base + i]
            if twin.op is Op.COW_LOAD and not twin.get_meta("stack"):
                assert twin.d == reduced

    def test_static_transfers_redirected(self, transformed):
        meta = transformed.spec_meta
        original = build_sample()
        for i, insn in enumerate(original.text):
            if insn.op is Op.JMP:
                twin = transformed.text[meta.shadow_base + i]
                assert twin.c == insn.c + meta.shadow_base

    def test_call_to_output_routine_stripped(self, transformed):
        meta = transformed.spec_meta
        original = build_sample()
        stripped = [
            transformed.text[meta.shadow_base + i]
            for i, insn in enumerate(original.text)
            if insn.op is Op.CALL and insn.get_meta("call_target") == "print_str"
        ]
        assert stripped
        assert all(insn.op is Op.NOP for insn in stripped)

    def test_ordinary_calls_redirected(self, transformed):
        meta = transformed.spec_meta
        original = build_sample()
        helper_entry = original.function("helper").entry
        redirected = [
            transformed.text[meta.shadow_base + i]
            for i, insn in enumerate(original.text)
            if insn.op is Op.CALL and insn.get_meta("call_target") == "helper"
        ]
        assert redirected
        assert all(insn.c == helper_entry + meta.shadow_base for insn in redirected)

    def test_read_becomes_spec_read(self, transformed):
        meta = transformed.spec_meta
        shadow = transformed.text[meta.shadow_base:]
        assert any(insn.op is Op.SPEC_READ for insn in shadow)

    def test_other_syscalls_guarded(self, transformed):
        meta = transformed.spec_meta
        shadow = transformed.text[meta.shadow_base:]
        guarded = [insn for insn in shadow if insn.op is Op.SPEC_SYSCALL]
        assert guarded
        assert not any(insn.op is Op.SYSCALL for insn in shadow)

    def test_dynamic_transfers_routed(self, transformed):
        meta = transformed.spec_meta
        shadow = transformed.text[meta.shadow_base:]
        ops = {insn.op for insn in shadow}
        assert Op.SPEC_JR in ops
        assert Op.SPEC_CALLR in ops
        assert Op.JR not in ops
        assert Op.CALLR not in ops

    def test_recognized_jump_table_duplicated(self, transformed):
        meta = transformed.spec_meta
        original = build_sample()
        # A shadow twin with shifted targets exists.
        twins = [
            t for t in transformed.jump_tables
            if t.targets == tuple(x + meta.shadow_base
                                  for x in original.jump_tables[0].targets)
        ]
        assert len(twins) == 1

    def test_unrecognized_table_routed_dynamically(self, transformed):
        meta = transformed.spec_meta
        shadow = transformed.text[meta.shadow_base:]
        spec_switches = [insn for insn in shadow if insn.op is Op.SPEC_SWITCH]
        assert len(spec_switches) == 1
        # It still points at the *original* (unrecognized) table.
        assert spec_switches[0].c == 1

    def test_la_of_function_keeps_original_entry(self, transformed):
        meta = transformed.spec_meta
        original = build_sample()
        helper_entry = original.function("helper").entry
        for i, insn in enumerate(original.text):
            if insn.op is Op.LA and insn.get_meta("funcaddr") == "helper":
                twin = transformed.text[meta.shadow_base + i]
                assert twin.c == helper_entry  # NOT redirected

    def test_function_map_covers_all_functions(self, transformed):
        meta = transformed.spec_meta
        original = build_sample()
        for f in original.functions:
            assert meta.function_map[f.entry] == f.entry + meta.shadow_base


class TestReport:
    def test_report_statistics(self, transformed):
        report = transformed.spec_meta.report
        assert report.binary_name == "sample"
        assert report.modification_time_s >= 0
        assert report.loads_wrapped > 0
        assert report.stores_wrapped > 0
        assert report.stack_relative_skipped > 0
        assert report.reads_substituted == 1
        assert report.output_calls_stripped >= 1
        assert report.jump_tables_remapped == 1
        assert report.jump_tables_unrecognized == 1
        assert report.transformed_size_bytes > report.original_size_bytes
        assert report.size_increase_pct > 0

    def test_declared_size_honoured(self):
        binary = build_sample()
        binary.declared_size_bytes = 1_000_000
        report = SpecHintTool().transform(binary).spec_meta.report
        assert report.original_size_bytes == 1_000_000
