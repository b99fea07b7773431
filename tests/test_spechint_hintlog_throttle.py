"""Tests for the hint log and the speculation gate's cancel-triggered
throttle."""

from repro.spechint.gate import HOLD, RESTART
from repro.spechint.hintlog import HintLog
from tests.spec_gate_reference import build_gate


class TestHintLog:
    def test_empty_log_is_off_track(self):
        log = HintLog()
        assert not log.check_and_consume(1, 0, 100)
        assert log.empty_total == 1

    def test_matching_entry_consumed(self):
        log = HintLog()
        log.append(1, 0, 100, hinted=True)
        assert log.check_and_consume(1, 0, 100)
        assert log.matched_total == 1
        assert log.unconsumed == 0

    def test_match_requires_all_fields(self):
        log = HintLog()
        log.append(1, 0, 100, hinted=True)
        assert not log.check_and_consume(2, 0, 100)  # wrong file
        log.reset()
        log.append(1, 0, 100, hinted=True)
        assert not log.check_and_consume(1, 8, 100)  # wrong offset
        log.reset()
        log.append(1, 0, 100, hinted=True)
        assert not log.check_and_consume(1, 0, 64)  # wrong length

    def test_mismatch_does_not_consume(self):
        log = HintLog()
        log.append(1, 0, 100, hinted=True)
        log.check_and_consume(2, 0, 100)
        assert log.unconsumed == 1
        assert log.mismatched_total == 1

    def test_entries_consumed_in_order(self):
        log = HintLog()
        log.append(1, 0, 10, hinted=True)
        log.append(1, 10, 10, hinted=True)
        assert log.check_and_consume(1, 0, 10)
        assert log.check_and_consume(1, 10, 10)
        assert not log.check_and_consume(1, 20, 10)

    def test_out_of_order_is_off_track(self):
        """The original thread only checks the *next* entry."""
        log = HintLog()
        log.append(1, 0, 10, hinted=True)
        log.append(1, 10, 10, hinted=True)
        assert not log.check_and_consume(1, 10, 10)

    def test_reset_clears_everything(self):
        log = HintLog()
        log.append(1, 0, 10, hinted=True)
        log.check_and_consume(1, 0, 10)
        log.reset()
        assert len(log) == 0
        assert log.unconsumed == 0
        assert not log.check_and_consume(1, 0, 10)

    def test_unhinted_predictions_match_too(self):
        """Zero-byte EOF reads are predicted but not hinted; they must
        still keep speculation on track (Agrep's extra reads)."""
        log = HintLog()
        log.append(1, 5000, 8192, hinted=False)
        assert log.check_and_consume(1, 5000, 8192)

    def test_appended_total_lifetime(self):
        log = HintLog()
        for i in range(3):
            log.append(1, i, 1, hinted=True)
        log.reset()
        log.append(1, 0, 1, hinted=True)
        assert log.appended_total == 4


def throttle(cancel_limit, disable_reads):
    return build_gate(throttle_cancel_limit=cancel_limit,
                      throttle_disable_reads=disable_reads)


def off_track_read(gate):
    return gate.on_read(False, lambda: False)


class TestThrottle:
    def test_disabled_by_default_limit_zero(self):
        gate = throttle(0, 32).gate
        for _ in range(100):
            gate.on_cancel(10)
            assert off_track_read(gate) == RESTART

    def test_trips_after_limit(self):
        gate = throttle(3, 5).gate
        for _ in range(2):
            gate.on_cancel(1)
        assert not gate.throttled_reads
        gate.on_cancel(1)
        assert gate.throttled_reads == 5

    def test_empty_cancels_do_not_count(self):
        gate = throttle(2, 5).gate
        for _ in range(10):
            gate.on_cancel(0)
        assert not gate.throttled_reads

    def test_disable_window_counts_down(self):
        built = throttle(1, 3)
        built.gate.on_cancel(1)
        results = [off_track_read(built.gate) for _ in range(4)]
        assert results == [HOLD, HOLD, HOLD, RESTART]
        assert built.stats.get("spec.throttle_suppressed") == 3

    def test_rearms_after_window(self):
        gate = throttle(1, 2).gate
        gate.on_cancel(1)
        off_track_read(gate)
        off_track_read(gate)
        assert off_track_read(gate) == RESTART
        gate.on_cancel(1)
        assert gate.throttled_reads == 2
