"""Tests for the SpecVM interpreter (normal execution)."""

import pytest

from repro.errors import ArithmeticFault, IllegalAddress, IsolationViolation, MachineFault
from repro.vm.blocks import _STRAIGHT, _TRANSFER
from repro.vm.isa import Insn, Op, Reg, SYS_SBRK, to_signed
from repro.vm.machine import Machine
from repro.vm.memory import DATA_BASE

from tests.conftest import assemble, run_program


def reg_after(build, reg=Reg.s0):
    """Run a tiny program and return a register of the main thread."""
    system, process = run_program(build)
    return process.original_thread.reg(reg)


class TestAlu:
    def test_li_and_mov(self):
        def body(asm):
            asm.li(Reg.t0, 1234)
            asm.mov(Reg.s0, Reg.t0)

        assert reg_after(body) == 1234

    def test_add_sub(self):
        def body(asm):
            asm.li(Reg.t0, 10)
            asm.li(Reg.t1, 3)
            asm.sub(Reg.s0, Reg.t0, Reg.t1)

        assert reg_after(body) == 7

    def test_wraparound_64_bits(self):
        def body(asm):
            asm.li(Reg.t0, (1 << 63))
            asm.add(Reg.s0, Reg.t0, Reg.t0)

        assert reg_after(body) == 0

    def test_mul_div_mod(self):
        def body(asm):
            asm.li(Reg.t0, 17)
            asm.li(Reg.t1, 5)
            asm.div(Reg.s0, Reg.t0, Reg.t1)
            asm.mod(Reg.s1, Reg.t0, Reg.t1)
            asm.mul(Reg.s2, Reg.t0, Reg.t1)
            asm.li(Reg.t2, (1 << 63) + 3)
            asm.li(Reg.t3, 2)
            asm.mul(Reg.s3, Reg.t2, Reg.t3)  # 2**64 + 6: wraps to 6

        system, process = run_program(body)
        assert process.original_thread.reg(Reg.s0) == 3
        assert process.original_thread.reg(Reg.s1) == 2
        assert process.original_thread.reg(Reg.s2) == 85
        assert process.original_thread.reg(Reg.s3) == 6

    def test_signed_division(self):
        def body(asm):
            asm.li(Reg.t0, -7)
            asm.li(Reg.t1, 2)
            asm.div(Reg.s0, Reg.t0, Reg.t1)

        assert to_signed(reg_after(body)) == -4  # floor division

    def test_division_by_zero_faults(self):
        def body(asm):
            asm.li(Reg.t0, 1)
            asm.div(Reg.s0, Reg.t0, Reg.zero)

        with pytest.raises(ArithmeticFault):
            run_program(body)

    def test_shifts_and_logic(self):
        def body(asm):
            asm.li(Reg.t0, 0b1100)
            asm.shli(Reg.s0, Reg.t0, 2)
            asm.shri(Reg.s1, Reg.t0, 2)
            asm.andi(Reg.s2, Reg.t0, 0b0110)
            asm.ori(Reg.s3, Reg.t0, 0b0001)

        system, process = run_program(body)
        t = process.original_thread
        assert t.reg(Reg.s0) == 0b110000
        assert t.reg(Reg.s1) == 0b11
        assert t.reg(Reg.s2) == 0b0100
        assert t.reg(Reg.s3) == 0b1101

        def three_register_forms(asm):
            asm.li(Reg.t0, 0b1100)
            asm.li(Reg.t1, 0b0110)
            asm.and_(Reg.s0, Reg.t0, Reg.t1)
            asm.or_(Reg.s1, Reg.t0, Reg.t1)
            asm.li(Reg.t2, 2)
            asm.shl(Reg.s2, Reg.t0, Reg.t2)
            asm.shr(Reg.s3, Reg.t0, Reg.t2)
            # Shift counts are masked to 6 bits: 66 shifts by 2, 64 by 0.
            asm.li(Reg.t3, 66)
            asm.shl(Reg.s4, Reg.t0, Reg.t3)
            asm.shr(Reg.s5, Reg.t0, Reg.t3)
            asm.li(Reg.t4, 64)
            asm.shl(Reg.s6, Reg.t0, Reg.t4)
            # Bits shifted past bit 63 are dropped (64-bit wrap).
            asm.li(Reg.t5, (1 << 63) | 1)
            asm.li(Reg.t6, 1)
            asm.shl(Reg.s7, Reg.t5, Reg.t6)

        system, process = run_program(three_register_forms)
        t = process.original_thread
        assert t.reg(Reg.s0) == 0b0100
        assert t.reg(Reg.s1) == 0b1110
        assert t.reg(Reg.s2) == 0b110000
        assert t.reg(Reg.s3) == 0b11
        assert t.reg(Reg.s4) == 0b110000
        assert t.reg(Reg.s5) == 0b11
        assert t.reg(Reg.s6) == 0b1100
        assert t.reg(Reg.s7) == 2

    def test_slt_signed(self):
        def body(asm):
            asm.li(Reg.t0, -1)
            asm.li(Reg.t1, 1)
            asm.slt(Reg.s0, Reg.t0, Reg.t1)
            asm.slt(Reg.s1, Reg.t1, Reg.t0)

        system, process = run_program(body)
        assert process.original_thread.reg(Reg.s0) == 1
        assert process.original_thread.reg(Reg.s1) == 0

    def test_zero_register_reads_zero(self):
        def body(asm):
            asm.addi(Reg.s0, Reg.zero, 5)

        assert reg_after(body) == 5


class TestControlFlow:
    def test_halt_is_exit_zero(self):
        def body(asm):
            asm.li(Reg.s0, 5)
            asm.halt()
            asm.li(Reg.s0, 9)  # never reached

        system, process = run_program(body)
        assert process.exited and process.exit_code == 0
        assert process.original_thread.reg(Reg.s0) == 5

    def test_loop_with_branch(self):
        def body(asm):
            asm.li(Reg.s0, 0)
            asm.li(Reg.t0, 10)
            asm.label("loop")
            asm.addi(Reg.s0, Reg.s0, 1)
            asm.blt(Reg.s0, Reg.t0, "loop")

        assert reg_after(body) == 10

    def test_call_and_ret(self):
        system, process = run_program(_call_program, with_stdlib=False)
        assert process.original_thread.reg(Reg.s0) == 99

    def test_indirect_call_through_register(self):
        def body(asm):
            asm.la(Reg.t0, "helper")
            asm.callr(Reg.t0)
            asm.jmp("end")
            asm.label("helper")
            asm.li(Reg.s0, 7)
            asm.ret()
            asm.label("end")

        assert reg_after(body) == 7

    def test_jump_table_switch(self):
        def body(asm):
            table = asm.jump_table(["case0", "case1"])
            asm.li(Reg.t0, 1)
            asm.switch(Reg.t0, table)
            asm.label("case0")
            asm.li(Reg.s0, 100)
            asm.jmp("end")
            asm.label("case1")
            asm.li(Reg.s0, 200)
            asm.label("end")

        assert reg_after(body) == 200

    def test_switch_out_of_range_faults(self):
        def body(asm):
            table = asm.jump_table(["case0"])
            asm.li(Reg.t0, 5)
            asm.switch(Reg.t0, table)
            asm.label("case0")

        with pytest.raises(MachineFault):
            run_program(body)

    def test_jr_outside_text_faults(self):
        def body(asm):
            asm.li(Reg.t0, 1 << 30)
            asm.jr(Reg.t0)

        with pytest.raises(MachineFault):
            run_program(body)


class TestMemoryOps:
    def test_store_load_roundtrip(self):
        def body(asm):
            asm.data_word("g", 0)
            asm.la(Reg.t0, "g")
            asm.li(Reg.t1, 777)
            asm.store(Reg.t1, Reg.t0, 0)
            asm.load(Reg.s0, Reg.t0, 0)

        assert reg_after(body) == 777

    def test_byte_ops(self):
        def body(asm):
            asm.data_space("b", 16)
            asm.la(Reg.t0, "b")
            asm.li(Reg.t1, 0xAB)
            asm.storeb(Reg.t1, Reg.t0, 3)
            asm.loadb(Reg.s0, Reg.t0, 3)

        assert reg_after(body) == 0xAB

    def test_stack_push_pop(self):
        def body(asm):
            asm.li(Reg.t0, 31)
            asm.push(Reg.t0)
            asm.li(Reg.t0, 0)
            asm.pop(Reg.s0)

        assert reg_after(body) == 31

    def test_unmapped_access_faults(self):
        def body(asm):
            asm.li(Reg.t0, 64)  # inside the null guard
            asm.load(Reg.s0, Reg.t0, 0)

        with pytest.raises(IllegalAddress):
            run_program(body)


class TestTimeAccounting:
    def test_cwork_consumes_declared_cycles(self):
        def body(asm):
            asm.cwork(50_000, 10, 5)

        system, process = run_program(body)
        assert system.clock.now >= 50_000

    def test_cwork_cost_excludes_declared_memops_in_normal_mode(self):
        def slim(asm):
            asm.cwork(10_000, 0, 0)

        def loaded(asm):
            asm.cwork(10_000, 500, 500)

        slim_sys, _ = run_program(slim)
        loaded_sys, _ = run_program(loaded)
        assert slim_sys.clock.now == loaded_sys.clock.now

    def test_cpu_cycles_tracked_per_thread(self):
        def body(asm):
            asm.cwork(5000, 0, 0)

        system, process = run_program(body)
        assert process.original_thread.cpu_cycles >= 5000

    def test_sbrk_syscall(self):
        def body(asm):
            asm.li(Reg.a0, 4096)
            asm.syscall(SYS_SBRK)
            asm.mov(Reg.s0, Reg.v0)

        value = reg_after(body)
        assert value >= DATA_BASE  # old break (empty data segment)


def _call_program(asm):
    asm.jmp("start")
    asm.label("sub")
    asm.li(Reg.s0, 99)
    asm.ret()
    asm.label("start")
    asm.call("sub")


class TestOneDefinitionPerInstruction:
    def test_every_opcode_is_templated_or_a_system_instruction(self, system):
        """An instruction is defined once: by its template in
        ``vm/blocks.py``, which blocks and single steps both run, or, for a
        system instruction, by the machine's dispatch entry — never both."""
        machine = system.kernel.machine
        for op in Op:
            templated = op in _STRAIGHT or op in _TRANSFER
            dispatched = machine._dispatch[op] != machine._op_invalid
            assert templated != dispatched, op
            assert not (op in _STRAIGHT and op in _TRANSFER), op
            if templated:
                assert not hasattr(Machine, f"_op_{op.name.lower()}"), op

    def test_a_cow_opcode_in_a_program_with_no_cow_map_is_invalid(self, system):
        """The COW opcodes are templated only where a COW map is bound (a
        speculating binary's process): anywhere else one is the machine's,
        and an invalid instruction."""
        binary = assemble(lambda asm: asm.li(Reg.s0, 12345))
        at = next(i for i, insn in enumerate(binary.text) if insn.c == 12345)
        binary.text = binary.text[:at] + (Insn(Op.COW_LOAD, Reg.s0, Reg.sp),) \
            + binary.text[at + 1:]
        system.kernel.spawn(binary)
        with pytest.raises(MachineFault, match=f"invalid opcode {Op.COW_LOAD} at pc={at}"):
            system.kernel.run()


class TestIsolation:
    def test_an_isolation_violation_off_speculation_propagates(self, system):
        """Only a speculating thread's violation is quarantined; on the
        original thread it is the simulator's fault and ends the run."""
        def body(asm):
            asm.data_word("g", 0)
            asm.la(Reg.t0, "g")
            asm.store(Reg.t0, Reg.t0, 0)
        process = system.kernel.spawn(assemble(body))

        def guard(addr, length):
            raise IsolationViolation(f"write to {addr:#x}")
        process.mem.write_guard = guard
        with pytest.raises(IsolationViolation, match="write to"):
            system.kernel.run()
