"""Multiprogramming tests (Section 5 / Section 3's contention caveat).

The kernel supports multiple processes; TIP keeps per-process hint queues.
The paper warns that "if there is contention for the processor ... then
speculative execution will have less opportunity to improve performance" —
under strict priorities, any runnable original thread starves every
speculating thread.
"""

from repro.harness.runner import build_system
from repro.harness.shapes import spinner_binary
from repro.params import SystemConfig
from repro.spechint.tool import SpecHintTool

from tests.conftest import small_system_config
from tests.test_spechint_runtime import corpus_fs, reader_binary


def run_speculating_reader(with_spinner: bool):
    fs = corpus_fs(nfiles=8)
    system = build_system(small_system_config(cache_blocks=64), fs)
    reader = system.kernel.spawn(
        SpecHintTool().transform(reader_binary(nfiles=8))
    )
    if with_spinner:
        system.kernel.spawn(spinner_binary(iterations=400))
    system.kernel.run()
    return system, reader


class TestTwoProcesses:
    def test_both_processes_complete_correctly(self):
        fs = corpus_fs(nfiles=8)
        system = build_system(SystemConfig(), fs)
        a = system.kernel.spawn(
            SpecHintTool().transform(reader_binary(nfiles=8, name="A"))
        )
        b = system.kernel.spawn(
            SpecHintTool().transform(reader_binary(nfiles=8, name="B"))
        )
        system.kernel.run()
        assert a.exited and b.exited
        assert bytes(a.output) == bytes(b.output)  # same files, same sums

    def test_tip_keeps_per_process_hint_state(self):
        fs = corpus_fs(nfiles=8)
        system = build_system(SystemConfig(), fs)
        a = system.kernel.spawn(
            SpecHintTool().transform(reader_binary(nfiles=8, name="A"))
        )
        b = system.kernel.spawn(
            SpecHintTool().transform(reader_binary(nfiles=8, name="B"))
        )
        system.kernel.run()
        acc_a = system.manager.accuracy_of(a.pid)
        acc_b = system.manager.accuracy_of(b.pid)
        assert acc_a.consumed > 0
        assert acc_b.consumed > 0

    def test_second_process_shares_the_cache(self):
        """Process B's reads hit blocks process A brought in."""
        fs = corpus_fs(nfiles=6)
        system = build_system(small_system_config(cache_blocks=64), fs)
        a = system.kernel.spawn(reader_binary(nfiles=6, name="A"))
        b = system.kernel.spawn(reader_binary(nfiles=6, name="B"))
        system.kernel.run()
        assert system.stats.get("cache.block_reuses") > 0


class TestCpuContention:
    def test_contention_starves_speculation(self):
        """A runnable compute-bound process preempts the speculating
        thread (strict priorities), shrinking its CPU share."""
        _, alone = run_speculating_reader(with_spinner=False)
        _, contended = run_speculating_reader(with_spinner=True)
        assert contended.spec_thread.cpu_cycles < \
            alone.spec_thread.cpu_cycles

    def test_contention_reduces_hinting(self):
        alone_sys, _ = run_speculating_reader(with_spinner=False)
        cont_sys, _ = run_speculating_reader(with_spinner=True)
        assert (cont_sys.stats.get("spec.hints_issued")
                <= alone_sys.stats.get("spec.hints_issued"))

    def test_reader_still_correct_under_contention(self):
        _, alone = run_speculating_reader(with_spinner=False)
        _, contended = run_speculating_reader(with_spinner=True)
        assert bytes(contended.output) == bytes(alone.output)
