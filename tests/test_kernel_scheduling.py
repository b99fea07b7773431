"""Tests for scheduling: strict priority, preemption, and the Section 5
multiprocessor extension."""

import pytest

from repro.errors import SimulationError
from repro.kernel.thread import PRIO_ORIGINAL, PRIO_SPECULATING, ThreadState
from repro.spechint.tool import SpecHintTool
from repro.vm.isa import SYS_EXIT, Reg
from repro.vm.assembler import Assembler

from tests.conftest import make_system, small_system_config

from tests.test_spechint_runtime import corpus_fs, reader_binary


def run_speculating(ncpus=1, per_block_cycles=20_000):
    binary = SpecHintTool().transform(
        reader_binary(per_block_cycles=per_block_cycles)
    )
    system = make_system(
        corpus_fs(), small_system_config(cache_blocks=48, ncpus=ncpus)
    )
    process = system.kernel.spawn(binary)
    system.kernel.run()
    return system, process


class TestStrictPriority:
    def test_spec_thread_has_lower_priority(self):
        system, process = run_speculating()
        assert process.original_thread.priority == PRIO_ORIGINAL
        assert process.spec_thread.priority == PRIO_SPECULATING
        assert PRIO_SPECULATING < PRIO_ORIGINAL

    def test_spec_thread_only_runs_while_original_stalled_up(self):
        """Uniprocessor: the speculating thread's CPU time is bounded by
        the original thread's total stall time."""
        system, process = run_speculating(ncpus=1)
        spec_cpu = process.spec_thread.cpu_cycles
        original_cpu = process.original_thread.cpu_cycles
        total = system.clock.now
        # Original stalls = total - original CPU (roughly); spec can only
        # have used those cycles.
        assert spec_cpu <= (total - original_cpu) + 10_000

    def test_all_threads_exit_with_process(self):
        system, process = run_speculating()
        assert process.exited
        for thread in process.threads:
            assert thread.state is ThreadState.EXITED


class TestMultiprocessorExtension:
    def test_mp_run_completes_correctly(self):
        up_system, up_proc = run_speculating(ncpus=1)
        mp_system, mp_proc = run_speculating(ncpus=2)
        assert bytes(mp_proc.output) == bytes(up_proc.output)

    def test_mp_spec_gets_more_cpu_time(self):
        """On a second CPU, speculation also runs during computation."""
        _, up_proc = run_speculating(ncpus=1, per_block_cycles=60_000)
        _, mp_proc = run_speculating(ncpus=2, per_block_cycles=60_000)
        assert mp_proc.spec_thread.cpu_cycles >= up_proc.spec_thread.cpu_cycles

    def test_mp_elapsed_in_same_ballpark(self):
        """MP speculation may issue hints much earlier; on tiny workloads
        the extra outstanding prefetches can even delay demand reads (the
        effect the paper sees for 1-disk Gnuld), so we only bound the
        divergence, we don't require a win."""
        up_system, _ = run_speculating(ncpus=1, per_block_cycles=60_000)
        mp_system, _ = run_speculating(ncpus=2, per_block_cycles=60_000)
        assert mp_system.clock.now <= up_system.clock.now * 1.6


class TestDeadlockDetection:
    @pytest.mark.parametrize("ncpus", [1, 2])
    def test_all_blocked_no_events_raises(self, ncpus):
        """A thread blocked forever with no pending events is a simulator
        bug and must be loud, not a hang, on one CPU or two."""
        system = make_system(config=small_system_config(ncpus=ncpus))
        binary_asm = Assembler("hang")
        binary_asm.entry("main")
        with binary_asm.function("main"):
            binary_asm.li(Reg.a0, 0)
            binary_asm.syscall(SYS_EXIT)
        binary = binary_asm.finish()
        process = system.kernel.spawn(binary)
        process.original_thread.block()  # wedge it artificially
        with pytest.raises(SimulationError, match="deadlock: no runnable threads"):
            system.kernel.run()

    @pytest.mark.parametrize("ncpus", [1, 2])
    def test_cycle_limit_enforced(self, ncpus):
        def spin(asm):
            asm.label("forever")
            asm.cwork(10_000, 0, 0)
            asm.jmp("forever")

        system = make_system(config=small_system_config(ncpus=ncpus))
        asm = Assembler("spin")
        asm.entry("main")
        with asm.function("main"):
            spin(asm)
            asm.syscall(SYS_EXIT)
        process = system.kernel.spawn(asm.finish())
        with pytest.raises(SimulationError, match="cycle limit 1000000 exceeded"):
            system.kernel.run(cycle_limit=1_000_000)


class TestContextSwitchAccounting:
    def test_context_switches_cost_time(self):
        """Alternating original/speculating execution charges switches."""
        system, process = run_speculating()
        # The run completed and the clock is beyond pure I/O + CPU time;
        # just assert the bookkeeping hooks ran.
        assert system.stats.get("kernel.runs") == 1
