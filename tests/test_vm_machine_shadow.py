"""Machine-level tests of shadow-code execution: COW dispatch, SCWORK,
dynamic control transfers, budget mode, and speculative fault handling."""


from repro.fs.filesystem import FileSystem
from repro.kernel.thread import ThreadState
from repro.spechint.tool import SpecHintTool
from repro.vm.assembler import Assembler
from repro.vm.isa import Op, Reg, SYS_EXIT

from tests.conftest import make_system, small_system_config


def build_and_spawn(body, fs=None, data=None):
    """Assemble, transform, spawn; return (system, process)."""
    asm = Assembler("shadowtest")
    if data:
        data(asm)
    asm.entry("main")
    with asm.function("main"):
        body(asm)
        asm.li(Reg.a0, 0)
        asm.syscall(SYS_EXIT)
    binary = SpecHintTool().transform(asm.finish())
    system = make_system(fs or FileSystem(), small_system_config())
    process = system.kernel.spawn(binary)
    return system, process


def run_spec_thread(system, process, max_steps=5):
    """Execute the speculating thread at its shadow entry point."""
    thread = process.spec_thread
    thread.state = ThreadState.RUNNABLE
    thread.pc = process.binary.spec_meta.shadow_base
    # Give it a stack so pushes work.
    thread.regs[int(Reg.sp)] = process.mem.stack_top
    reason = system.kernel.machine.execute(thread, budget=10_000_000)
    return thread, reason


class TestCowDispatch:
    def test_shadow_store_isolated_from_memory(self):
        def data(asm):
            asm.data_word("g", 111)

        def body(asm):
            asm.la(Reg.t0, "g")
            asm.li(Reg.t1, 999)
            asm.store(Reg.t1, Reg.t0, 0)
            asm.load(Reg.s0, Reg.t0, 0)

        system, process = build_and_spawn(body, data=data)
        g_addr = process.binary.data_symbols["g"]
        thread, reason = run_spec_thread(system, process)
        # Speculation saw its own write...
        assert thread.reg(Reg.s0) == 999
        # ...but main memory still holds the original value.
        assert process.mem.load_word(g_addr) == 111
        assert reason == "spec_idle"  # parked at the guarded exit

    def test_shadow_byte_ops(self):
        def data(asm):
            asm.data_space("buf", 16)

        def body(asm):
            asm.la(Reg.t0, "buf")
            asm.li(Reg.t1, 0x5A)
            asm.storeb(Reg.t1, Reg.t0, 2)
            asm.loadb(Reg.s0, Reg.t0, 2)

        system, process = build_and_spawn(body, data=data)
        thread, _ = run_spec_thread(system, process)
        assert thread.reg(Reg.s0) == 0x5A
        buf = process.binary.data_symbols["buf"]
        assert process.mem.load_byte(buf + 2) == 0

    def test_cow_check_cost_charged(self):
        """A COW load costs more speculative cycles than a plain ALU op."""
        def data(asm):
            asm.data_word("g", 1)

        def body(asm):
            asm.la(Reg.t0, "g")
            asm.load(Reg.s0, Reg.t0, 0)

        system, process = build_and_spawn(body, data=data)
        thread, _ = run_spec_thread(system, process)
        params = system.config.spechint
        assert thread.cpu_cycles >= params.cow_load_check_cycles


class TestScwork:
    def test_scwork_consumes_dilated_cycles(self):
        def body(asm):
            asm.cwork(10_000, 1_000, 0)

        system, process = build_and_spawn(body)
        thread, _ = run_spec_thread(system, process)
        params = system.config.spechint
        expected = 10_000 + 1_000 * params.cow_load_check_cycles
        assert thread.cpu_cycles >= expected

    def test_budget_mode_interrupts_scwork(self):
        def body(asm):
            asm.cwork(1_000_000, 0, 0)

        system, process = build_and_spawn(body)
        thread = process.spec_thread
        thread.state = ThreadState.RUNNABLE
        thread.pc = process.binary.spec_meta.shadow_base
        reason = system.kernel.machine.execute(thread, budget=10_000)
        assert reason == "budget"
        assert thread.cwork_remaining > 0
        # Global clock untouched in budget mode.
        assert system.clock.now == 0


class TestDynamicTransfers:
    def test_spec_callr_maps_function_entry(self):
        def body(asm):
            asm.jmp("start")
            asm.label("start")
            asm.la(Reg.t0, "helper")  # original-text function address
            asm.callr(Reg.t0)
            asm.li(Reg.s2, 1)
            asm.jmp("end")
            asm.label("end")
            asm.nop()

        def data(asm):
            pass

        # Build with a helper function.
        asm = Assembler("callrtest")
        asm.entry("main")
        with asm.function("helper"):
            asm.li(Reg.s0, 77)
            asm.ret()
        with asm.function("main"):
            asm.la(Reg.t0, "helper")
            asm.callr(Reg.t0)
            asm.li(Reg.a0, 0)
            asm.syscall(SYS_EXIT)
        binary = SpecHintTool().transform(asm.finish())
        system = make_system(FileSystem(), small_system_config())
        process = system.kernel.spawn(binary)

        thread = process.spec_thread
        thread.state = ThreadState.RUNNABLE
        meta = binary.spec_meta
        thread.pc = meta.function_map[binary.function("main").entry]
        thread.regs[int(Reg.sp)] = process.mem.stack_top
        system.kernel.machine.execute(thread, budget=1_000_000)
        # The handling routine mapped the original entry to shadow code
        # and the helper ran speculatively.
        assert thread.reg(Reg.s0) == 77

    def test_spec_jr_to_wild_address_parks(self):
        def body(asm):
            asm.li(Reg.t0, 7)  # mid-text, not a function entry
            asm.jr(Reg.t0)
            asm.nop()
            asm.nop()
            asm.nop()
            asm.nop()
            asm.nop()
            asm.nop()
            asm.nop()

        system, process = build_and_spawn(body)
        thread, reason = run_spec_thread(system, process)
        assert reason == "spec_idle"
        assert system.stats.get("spec.park.left_shadow") == 1

    @staticmethod
    def _spec_switch(index):
        """Run the shadow of ``switch t0`` over an unrecognized table whose
        slot 0 is a function entry and slot 1 a mid-function label."""
        asm = Assembler("specswitch")
        asm.entry("main")
        with asm.function("helper"):
            asm.li(Reg.s0, 77)
            asm.label("inside")
            asm.li(Reg.a0, 0)
            asm.syscall(SYS_EXIT)
        with asm.function("main"):
            table = asm.jump_table(["helper", "inside"], recognized=False)
            asm.li(Reg.t0, index)
            asm.switch(Reg.t0, table)
            asm.li(Reg.a0, 0)
            asm.syscall(SYS_EXIT)
        binary = SpecHintTool().transform(asm.finish())
        meta = binary.spec_meta
        switch = next(
            i for i in binary.text[meta.shadow_base:] if i.op is Op.SPEC_SWITCH
        )
        assert switch.c == table  # unrecognized: no shadow twin of the table
        system = make_system(FileSystem(), small_system_config())
        process = system.kernel.spawn(binary)
        thread = process.spec_thread
        thread.state = ThreadState.RUNNABLE
        thread.pc = meta.function_map[binary.function("main").entry]
        reason = system.kernel.machine.execute(thread, budget=1_000_000)
        assert reason == "spec_idle"
        return system, process, thread

    def test_spec_switch_maps_a_function_entry_to_its_shadow_twin(self):
        system, process, thread = self._spec_switch(0)
        assert thread.reg(Reg.s0) == 77  # the helper's shadow ran
        assert system.stats.get("spec.signals") == 0
        assert system.stats.get("spec.park.unrecognized_jump_table") == 0

    def test_spec_switch_out_of_range_becomes_signal(self):
        system, process, thread = self._spec_switch(2)
        assert system.stats.get("spec.signals") == 1
        assert thread.reg(Reg.s0) == 0

    def test_spec_switch_to_unmappable_target_parks(self):
        system, process, thread = self._spec_switch(1)
        assert system.stats.get("spec.park.unrecognized_jump_table") == 1
        assert system.stats.get("spec.signals") == 0
        assert thread.reg(Reg.s0) == 0


class TestSpeculativeFaults:
    def test_division_fault_becomes_signal(self):
        def body(asm):
            asm.li(Reg.t0, 1)
            asm.div(Reg.t1, Reg.t0, Reg.zero)

        system, process = build_and_spawn(body)
        thread, reason = run_spec_thread(system, process)
        assert reason == "spec_idle"
        assert system.stats.get("spec.signals") == 1
        assert thread.state is ThreadState.SPEC_IDLE

    def test_wild_address_becomes_signal(self):
        def body(asm):
            asm.li(Reg.t0, 64)  # null-guard page
            asm.load(Reg.t1, Reg.t0, 0)

        system, process = build_and_spawn(body)
        thread, reason = run_spec_thread(system, process)
        assert reason == "spec_idle"
        assert system.stats.get("spec.signals") == 1

    def test_switch_out_of_range_becomes_signal(self):
        asm = Assembler("switchtest")
        asm.entry("main")
        with asm.function("main"):
            table = asm.jump_table(["case0"])
            asm.li(Reg.t0, 99)
            asm.switch(Reg.t0, table)
            asm.label("case0")
            asm.li(Reg.a0, 0)
            asm.syscall(SYS_EXIT)
        binary = SpecHintTool().transform(asm.finish())
        system = make_system(FileSystem(), small_system_config())
        process = system.kernel.spawn(binary)
        thread = process.spec_thread
        thread.state = ThreadState.RUNNABLE
        thread.pc = binary.spec_meta.shadow_base
        reason = system.kernel.machine.execute(thread, budget=1_000_000)
        assert reason == "spec_idle"
        assert system.stats.get("spec.signals") == 1
