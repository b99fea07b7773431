"""Tests for the speculation isolation auditor.

Covers the three layers of the isolation contract — write containment,
the tamper-evident audit table, and the restart-boundary digest — plus the
speculation gate's graded quarantine response, and the end-to-end guarantee: a deliberately
broken COW hook is caught as a typed :class:`IsolationViolation` and
quarantined without corrupting the run's output.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IsolationViolation
from repro.harness.config import ExperimentConfig, Variant
from repro.harness import runner
from repro.harness.runner import run_experiment
from repro.params import SpecHintParams
from repro.spechint.auditor import (
    AuditTable,
    IsolationAuditor,
    _chain_digest,
)
from repro.spechint.cow import CowMap
from repro.spechint.gate import CLOSED, RESTART
from repro.vm.memory import (
    DATA_BASE,
    MASK64,
    SPEC_HEAP_BASE,
    AddressSpace,
)
from tests.spec_gate_reference import build_gate


class _Proc:
    """Minimal process stand-in for auditor unit tests."""

    def __init__(self, data=b"\xAA" * 4096):
        self.mem = AddressSpace(data)
        self.fds = {}


class TestAuditTable:
    def test_empty_table_verifies(self):
        table = AuditTable()
        table.verify()
        assert len(table) == 0

    def test_records_chain_and_verify(self):
        table = AuditTable()
        table.record("write_suppressed", "fd=1 len=64")
        table.record("syscall_blocked", "num=9")
        table.record("restart", "cancelled=3")
        table.verify()
        assert table.records_total == 3
        assert len({r.digest for r in table.records()}) == 3

    def test_tampered_detail_breaks_chain(self):
        table = AuditTable()
        table.record("write_suppressed", "fd=1 len=64")
        table.record("restart", "cancelled=0")
        table.records()[0].detail = "fd=1 len=65"  # rewrite history
        with pytest.raises(IsolationViolation, match="tampered"):
            table.verify()

    def test_tampered_head_detected(self):
        table = AuditTable()
        table.record("restart")
        table.head_digest = "0" * 24
        with pytest.raises(IsolationViolation, match="head digest"):
            table.verify()

    def test_folding_keeps_chain_verifiable(self):
        table = AuditTable(capacity=4)
        for i in range(20):
            table.record("write_suppressed", f"n={i}")
        assert len(table) == 4
        assert table.records_total == 20
        table.verify()

    def test_tamper_after_fold_still_detected(self):
        table = AuditTable(capacity=4)
        for i in range(10):
            table.record("write_suppressed", f"n={i}")
        table.records()[-1].kind = "restart"
        with pytest.raises(IsolationViolation):
            table.verify()


def full_rehash_verdict(table):
    """``AuditTable.verify`` as it was before it remembered what it wrote:
    re-hash every retained record.  The message it would raise, or None."""
    running = table.anchor_digest
    for entry in table.records():
        if entry.digest != _chain_digest(running, entry.seq, entry.kind, entry.detail):
            return (f"audit record #{entry.seq} ({entry.kind}) fails its "
                    f"chain digest: table was tampered with")
        running = entry.digest
    return None if running == table.head_digest else "audit table head digest mismatch"


def verdict(table):
    try:
        table.verify()
    except IsolationViolation as exc:
        return str(exc)
    return None


def _history(capacity=6):
    """An auditor whose table has been verified at one restart (with
    records folded out of the window) and has grown since."""
    auditor = IsolationAuditor(_Proc(), capacity=capacity)
    table = auditor.table
    for i in range(8):
        table.record("write_suppressed", f"fd=1 len={i}")
    auditor.capture_boundary(None)
    auditor.verify_restart_boundary(None)
    table.record("restart", "cancelled=3")
    table.record("syscall_blocked", "num=9")
    return auditor


def _swap(table, i, j):
    records = table._records
    records[i], records[j] = records[j], records[i]


#: Tampers each caught at the next restart boundary, by the memoised check
#: exactly as by the full re-hash.
TAMPERS = {
    "rewritten record an earlier restart verified":
        lambda table: setattr(table.records()[1], "detail", "fd=1 len=999"),
    "anchor after a fold":
        lambda table: setattr(table, "anchor_digest", "0" * 24),
    "lone digest field":
        lambda table: setattr(table.records()[2], "digest", "f" * 24),
    "dropped record":
        lambda table: table._records.remove(table.records()[3]),
    "dropped last record":
        lambda table: table._records.pop(),
    "two swapped records":
        lambda table: _swap(table, 2, 3),
    "rewritten seq":
        lambda table: setattr(table.records()[0], "seq", 1),
}


class TestTamperMatrix:
    @pytest.mark.parametrize("tamper", sorted(TAMPERS))
    def test_caught_at_the_next_restart_boundary(self, tamper):
        auditor = _history()
        table = auditor.table
        assert table.records_total > table.capacity  # records were folded
        auditor.verify_restart_boundary(None)  # a clean restart first
        TAMPERS[tamper](table)
        expected = full_rehash_verdict(table)
        assert expected is not None
        with pytest.raises(IsolationViolation) as caught:
            auditor.verify_restart_boundary(None)
        assert str(caught.value) == expected

    @settings(max_examples=300, deadline=None)
    @given(ops=st.lists(st.one_of(
        st.tuples(st.just("record"), st.sampled_from(["restart", "write_suppressed"]),
                  st.text(max_size=3)),
        st.tuples(st.just("field"), st.integers(0, 20),
                  st.sampled_from(["seq", "kind", "detail", "digest"]), st.text(max_size=3)),
        st.tuples(st.just("anchor"), st.text(max_size=3)),
        st.tuples(st.just("head"), st.text(max_size=3)),
        st.tuples(st.just("drop"), st.integers(0, 20)),
        st.tuples(st.just("swap"), st.integers(0, 20), st.integers(0, 20)),
        st.tuples(st.just("restore"), st.integers(0, 20)),
    ), max_size=40), capacity=st.integers(1, 6))
    def test_verdict_equals_the_full_rehash_for_every_table_state(self, ops, capacity):
        """Any interleaving of writes, tampers and restorations of what was
        written: the memoised ``verify`` says what re-hashing says."""
        table = AuditTable(capacity=capacity)
        written = {}
        for op in ops:
            records = table._records
            if op[0] == "record":
                entry = table.record(op[1], op[2])
                written[entry.seq] = (entry.seq, entry.kind, entry.detail, entry.digest)
            elif op[0] == "field" and records:
                entry = records[op[1] % len(records)]
                value = op[3]
                if op[2] == "seq":
                    value = entry.seq + 1 + len(value)
                setattr(entry, op[2], value)
            elif op[0] == "anchor":
                table.anchor_digest = op[1]
            elif op[0] == "head":
                table.head_digest = op[1]
            elif op[0] == "drop" and records:
                del records[op[1] % len(records)]
            elif op[0] == "swap" and records:
                _swap(table, op[1] % len(records), op[2] % len(records))
            elif op[0] == "restore" and records:
                # Put a record back the way it was written: a forged state
                # that happens to equal an honest one must verify again.
                entry = records[op[1] % len(records)]
                original = written.get(entry.seq)
                if original is not None:
                    entry.seq, entry.kind, entry.detail, entry.digest = original
            assert verdict(table) == full_rehash_verdict(table), op


def read(gate):
    """One off-track original-thread read on a healthy array."""
    return gate.on_read(False, lambda: False)


class TestQuarantine:
    def test_inactive_initially(self):
        built = build_gate()
        assert not built.gate.quarantined
        assert read(built.gate) == RESTART
        assert built.stats.get("spec.quarantine_released") == 0

    def test_windows_double_per_violation(self):
        gate = build_gate().gate
        gate.on_violation("first")
        assert gate.quarantine_reads == 64
        gate.on_violation("second")
        assert gate.quarantine_reads == 128

    def test_tick_releases_after_window(self):
        built = build_gate()
        built.gate.on_violation("x")
        assert built.gate.quarantined
        for _ in range(63):
            assert read(built.gate) == CLOSED
        assert read(built.gate) == RESTART  # the 64th read releases
        assert not built.gate.quarantined
        assert built.stats.get("spec.quarantine_released") == 1
        assert built.table.records()[-1].kind == "quarantine_released"

    def test_permanent_after_max_violations(self):
        built = build_gate()
        for reason in ("one", "two", "three"):
            built.gate.on_violation(reason)
        assert built.gate.permanent
        assert built.gate.quarantined
        for _ in range(1000):
            assert read(built.gate) == CLOSED  # never releases
        assert [r.detail for r in built.table.records()
                if r.kind == "quarantine"] == ["one", "two", "three"]
        assert built.stats.get("spec.quarantine_permanent") == 1


class TestWriteContainment:
    def test_spec_heap_writes_permitted(self):
        proc = _Proc()
        auditor = IsolationAuditor(proc)
        proc.mem.spec_sbrk(128)
        auditor.arm(proc.mem)
        proc.mem.store_word(SPEC_HEAP_BASE, 42)  # no raise
        auditor.disarm(proc.mem)
        assert auditor.violations == 0

    def test_data_segment_write_vetoed_before_landing(self):
        proc = _Proc()
        auditor = IsolationAuditor(proc)
        before = proc.mem.raw_read(DATA_BASE, 8)
        auditor.arm(proc.mem)
        with pytest.raises(IsolationViolation, match="escaped COW containment"):
            proc.mem.store_word(DATA_BASE, 0xDEAD)
        auditor.disarm(proc.mem)
        # The veto fired before the bytes landed.
        assert proc.mem.raw_read(DATA_BASE, 8) == before
        assert auditor.violations == 1

    def test_raw_write_also_guarded(self):
        proc = _Proc()
        auditor = IsolationAuditor(proc)
        auditor.arm(proc.mem)
        with pytest.raises(IsolationViolation):
            proc.mem.raw_write(DATA_BASE, b"oops")
        auditor.disarm(proc.mem)

    def test_disarm_restores_normal_writes(self):
        proc = _Proc()
        auditor = IsolationAuditor(proc)
        auditor.arm(proc.mem)
        auditor.disarm(proc.mem)
        proc.mem.store_word(DATA_BASE, 7)  # no guard, no raise
        assert proc.mem.load_word(DATA_BASE) == 7


class TestCowContainment:
    def test_normal_cow_writes_pass(self):
        proc = _Proc()
        auditor = IsolationAuditor(proc)
        cow = CowMap(proc.mem, SpecHintParams(), auditor=auditor)
        cow.store_word(DATA_BASE, 1)
        cow.write_bytes(DATA_BASE + 100, b"contained")
        assert auditor.cow_writes_checked == 2
        assert auditor.violations == 0

    def test_uncopied_region_is_a_violation(self):
        proc = _Proc()
        auditor = IsolationAuditor(proc)
        cow = CowMap(proc.mem, SpecHintParams(), auditor=auditor)
        with pytest.raises(IsolationViolation, match="containment map"):
            auditor.check_cow_containment(cow, DATA_BASE, 8)


class TestRestartBoundary:
    def test_capture_then_verify_clean(self):
        proc = _Proc()
        auditor = IsolationAuditor(proc)
        regs = [0] * 32
        auditor.capture_boundary(regs)
        auditor.verify_restart_boundary(regs)
        assert auditor.boundary_verifies == 1

    def test_fd_binding_change_detected(self):
        from repro.kernel.process import FdState

        proc = _Proc()
        auditor = IsolationAuditor(proc)
        auditor.capture_boundary(None)
        proc.fds[3] = FdState(3, None, "sneaky")  # non-shadow state mutated
        with pytest.raises(IsolationViolation, match="non-shadow state"):
            auditor.verify_restart_boundary(None)

    def test_heap_break_change_detected(self):
        proc = _Proc()
        auditor = IsolationAuditor(proc)
        auditor.capture_boundary(None)
        proc.mem.sbrk(4096)
        with pytest.raises(IsolationViolation, match="non-shadow state"):
            auditor.verify_restart_boundary(None)

    def test_saved_regs_mutation_detected(self):
        proc = _Proc()
        auditor = IsolationAuditor(proc)
        regs = [0] * 32
        auditor.capture_boundary(regs)
        regs[5] = 999
        with pytest.raises(IsolationViolation, match="register snapshot"):
            auditor.verify_restart_boundary(regs)

    def test_spec_heap_growth_is_not_a_violation(self):
        """The speculative heap is shadow state: growing it between the
        capture and the restart is exactly what speculation is allowed
        to do."""
        proc = _Proc()
        auditor = IsolationAuditor(proc)
        auditor.capture_boundary(None)
        proc.mem.spec_sbrk(4096)
        auditor.verify_restart_boundary(None)  # no raise


SCALE = 0.3


def _result(app="agrep", variant=Variant.SPECULATING, **kwargs):
    return run_experiment(ExperimentConfig(
        app=app, variant=variant, workload_scale=SCALE, **kwargs
    ))


class TestEndToEnd:
    def test_clean_run_has_no_violations(self):
        result = _result()
        assert result.isolation_violations == 0
        assert result.quarantines == 0
        assert result.audit_records >= 0
        assert result.audit_head_digest
        # Every completed restart passed the cancel-drain verification.
        assert result.c("spec.cancel_drain_verified") == result.spec_restarts

    def test_broken_cow_hook_is_caught_and_quarantined(self, monkeypatch):
        """A COW hook rewritten (test-only) to write straight into main
        memory must be vetoed as an IsolationViolation, quarantined, and
        the run must still complete with baseline-identical output.

        Runs on xds rather than agrep: agrep's shadow code performs no
        wrapped stores at this scale, so its speculation never reaches the
        COW write path at all.
        """

        def broken_write(self, addr, payload):
            self.mem.raw_write(addr, payload)  # escape containment
            return 0

        monkeypatch.setattr(CowMap, "_write", broken_write)
        result = _result(app="xds")
        assert result.isolation_violations > 0
        assert result.quarantines > 0
        assert result.spec_parks.get("isolation_quarantine", 0) > 0

        baseline = _result(app="xds", variant=Variant.ORIGINAL)
        assert result.output == baseline.output
        assert result.read_trace == baseline.read_trace

    def test_broken_cow_hook_fault_events_recorded(self, monkeypatch):
        def broken_write(self, addr, payload):
            self.mem.raw_write(addr, payload)
            return 0

        monkeypatch.setattr(CowMap, "_write", broken_write)
        result = _result(app="xds")
        events = result.fault_events()
        assert events.get("spec.isolation_violations", 0) > 0
        assert events.get("spec.quarantines", 0) > 0

    def test_broken_fused_store_is_caught_and_quarantined(self, monkeypatch):
        """A shadow word store is one ``CowMap.store_word`` call that never
        enters ``_write``, from the interpreter and from translated blocks
        alike: rewritten to hit main memory, it must trip the write guard
        (armed around block execution too) and quarantine."""

        def broken_store(self, addr, value):
            self.mem.raw_write(addr, (value & MASK64).to_bytes(8, "little"))
            return 0

        monkeypatch.setattr(CowMap, "store_word", broken_store)
        self._assert_quarantined_with_baseline_output(_result(app="xds"))

    def test_fused_store_outside_the_containment_map_is_caught(self, monkeypatch):
        """A copy table that loses the regions it is given: every fused
        store lands in a scratch buffer and main memory stays clean, so the
        write guard sees nothing — only the containment check inside
        ``store_word``/``store_byte`` notices the write is not contained."""

        class LossyTable(dict):
            def __setitem__(self, region, copy):
                pass

            def __missing__(self, region):
                return bytearray(8192)

        real_init = CowMap.__init__

        def lossy_init(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            self._copies = LossyTable()

        monkeypatch.setattr(CowMap, "__init__", lossy_init)
        self._assert_quarantined_with_baseline_output(_result(app="xds"))

    def test_plain_store_escaping_from_a_translated_block_is_caught(self, monkeypatch):
        """An analysis that wrongly proves every store heap-confined leaves
        plain stores in the shadow code.  With blocks translated at first
        entry the escaping store runs as generated code; the armed write
        guard must veto it there exactly as under the interpreter."""
        import traceback

        import repro.vm.machine as machine_module
        from repro.analysis.driver import ElisionPlan, SiteCheck
        from repro.spechint.runtime import SpecProcessState
        from repro.vm.isa import Op

        real_site_check = ElisionPlan.site_check

        def all_stores_elided(self, index, insn):
            if insn.op in (Op.STORE, Op.STOREB):
                return SiteCheck.HEAP_STORE
            return real_site_check(self, index, insn)

        raised_in = []
        real_quarantine = SpecProcessState.quarantine

        def spying_quarantine(self, thread, violation):
            raised_in.append(
                [frame.name for frame in traceback.extract_tb(violation.__traceback__)])
            return real_quarantine(self, thread, violation)

        monkeypatch.setattr(ElisionPlan, "site_check", all_stores_elided)
        monkeypatch.setattr(SpecProcessState, "quarantine", spying_quarantine)
        monkeypatch.setattr(machine_module, "HOT_ENTRIES", 0)
        # The cell must run the tool under the broken analysis instead of
        # the speculating executable this process already made (and must
        # not leave its own behind for later cells).
        monkeypatch.setattr(runner, "_transformed", runner._transformed.__wrapped__)
        self._assert_quarantined_with_baseline_output(_result(app="xds"))
        assert any(name.startswith("block_") for name in raised_in[0])

    @staticmethod
    def _assert_quarantined_with_baseline_output(result):
        assert result.isolation_violations > 0
        assert result.quarantines > 0
        assert result.spec_parks.get("isolation_quarantine", 0) > 0
        baseline = _result(app=result.app, variant=Variant.ORIGINAL)
        assert result.output == baseline.output
        assert result.read_trace == baseline.read_trace

    def test_leaked_hints_at_restart_are_a_violation(self, monkeypatch):
        """If TIPIO_CANCEL_ALL fails to drain the queue, the restart's
        drain check must catch it — quarantine, not silent corruption."""
        from repro.tip.manager import TipManager

        monkeypatch.setattr(
            TipManager, "outstanding_hints", lambda self, pid: 3
        )
        result = _result()
        assert result.isolation_violations > 0
        assert result.spec_parks.get("isolation_quarantine", 0) > 0
        baseline = _result(variant=Variant.ORIGINAL)
        assert result.output == baseline.output

    def test_a_restart_hashes_only_what_was_appended_since_the_last(self, monkeypatch):
        """The engagement check of the memoised chain: between two restart
        boundaries the auditor issues exactly one SHA-256 per record
        appended (each hashed once, when written) and none to re-verify."""
        import hashlib
        from types import SimpleNamespace

        import repro.spechint.auditor as auditor_module

        calls = [0]

        def counting_sha256(data=b""):
            calls[0] += 1
            return hashlib.sha256(data)

        monkeypatch.setattr(auditor_module, "hashlib",
                            SimpleNamespace(sha256=counting_sha256))
        seen = []
        real_verify = IsolationAuditor.verify_restart_boundary

        def noting_verify(self, saved_regs):
            seen.append((calls[0], self.table.records_total, len(self.table)))
            return real_verify(self, saved_regs)

        monkeypatch.setattr(IsolationAuditor, "verify_restart_boundary", noting_verify)
        result = _result(app="gnuld")
        assert result.spec_restarts >= 3 and len(seen) == result.spec_restarts
        grew = []
        for before, at in zip(seen, seen[1:]):
            appended = at[1] - before[1]
            assert at[0] - before[0] == appended
            grew.append(appended < at[2])
        # A re-hash of the window would have hashed more than was appended.
        assert any(grew)

    @pytest.mark.parametrize("app", ["gnuld", "xds"])
    def test_every_restart_verifies_the_boundary_of_the_last_read(self, app, monkeypatch):
        """The boundary is captured only while a restart is pending, yet
        each restart verifies exactly the snapshot that capturing at every
        matched, throttled or restart-requesting read would have left."""
        from repro.spechint.runtime import SpecProcessState

        every_read = {}
        reads = [0]
        real_capture = SpecProcessState._capture_boundary

        def capture(self):
            reads[0] += 1
            regs = self._saved_regs
            every_read[id(self.auditor)] = (
                self.auditor._boundary(), tuple(regs) if regs is not None else None)
            real_capture(self)

        verified = []
        real_verify = IsolationAuditor.verify_restart_boundary

        def verify(self, saved_regs):
            assert (self._boundary_state, self._saved_regs) == every_read[id(self)]
            verified.append(self)
            return real_verify(self, saved_regs)

        monkeypatch.setattr(SpecProcessState, "_capture_boundary", capture)
        monkeypatch.setattr(IsolationAuditor, "verify_restart_boundary", verify)
        result = _result(app=app)
        assert verified and len(verified) == result.spec_restarts
        assert verified[0].boundary_captures < reads[0]
