"""The speculation gate's predecessors, kept as a reference model.

Before :class:`repro.spechint.gate.SpeculationGate`, three classes decided
whether the speculating thread could run or restart, and the runtime
consulted them at three sites, each in its own order.  This module holds
those classes verbatim — :class:`SpeculationWatchdog` (the trips and the
degraded-mode suspension), :class:`SpeculationThrottle` and
:class:`IsolationQuarantine` — and :class:`ReferenceGate` replays the
runtime's three decision orders over them behind the gate's interface
(``on_read`` / ``on_restart`` / ``closed`` and the signal intake).  It is
deliberately the old code and must stay that way: ``test_spechint_gate.py``
drives it beside the gate and requires the same decision, park reason,
trip reason, counters and audit records after every step.

:class:`Built` wires either one to a fresh counter registry and audit table;
:func:`build_gate` is the gate so wired, for the gate's unit tests.
"""

from collections import deque
from typing import Callable, Deque, List, Optional

from repro.params import SpecHintParams
from repro.sim import metrics
from repro.sim.stats import StatRegistry
from repro.spechint.auditor import AuditTable
from repro.spechint.gate import (
    CLOSED,
    HOLD,
    QUARANTINE_BASE_READS,
    QUARANTINE_MAX_VIOLATIONS,
    RESTART,
    SUSPEND,
    SpeculationGate,
)
from repro.trace.tracer import NULL_TRACER


class SpeculationWatchdog:
    """Decides when speculation is doing more harm than good."""

    def __init__(
        self,
        restart_limit: int = 64,
        fault_limit: int = 256,
        min_accuracy: float = 0.02,
        accuracy_window: int = 256,
    ) -> None:
        self.restart_limit = restart_limit
        self.fault_limit = fault_limit
        self.min_accuracy = min_accuracy
        self.accuracy_window = accuracy_window

        self._window: Deque[bool] = deque(maxlen=max(1, accuracy_window))
        #: ``sum(self._window)``, kept as checks enter and leave the window.
        self._window_matches = 0
        self._consecutive_restarts = 0

        #: Lifetime statistics.
        self.restarts = 0
        self.faults = 0
        self.checks = 0
        self.matches = 0

        self.disabled = False
        self.trip_reason: Optional[str] = None

        #: Resumable degraded-mode suspension (storage array lost a disk).
        self.suspended = False
        #: Lifetime count of degraded-mode suspensions.
        self.suspensions = 0

    # -- signal intake -------------------------------------------------------

    def note_check(self, matched: bool) -> bool:
        """One original-thread hint-log check; returns True when it trips."""
        self.checks += 1
        if matched:
            self.matches += 1
            self._consecutive_restarts = 0
        window = self._window
        if len(window) == window.maxlen and window[0]:
            self._window_matches -= 1  # the oldest check leaves the window
        window.append(matched)
        if matched:
            self._window_matches += 1
        if (
            self.min_accuracy > 0.0
            and self.accuracy_window > 0
            and len(window) == window.maxlen
        ):
            accuracy = self._window_matches / len(window)
            if accuracy < self.min_accuracy:
                return self._trip("low_accuracy")
        return False

    def note_restart(self) -> bool:
        """One speculation restart; returns True when it trips."""
        self.restarts += 1
        self._consecutive_restarts += 1
        if 0 < self.restart_limit <= self._consecutive_restarts:
            return self._trip("restart_storm")
        return False

    def note_fault(self) -> bool:
        """One speculative fault (signal); returns True when it trips."""
        self.faults += 1
        if 0 < self.fault_limit <= self.faults:
            return self._trip("fault_storm")
        return False

    def set_degraded(self, degraded: bool) -> Optional[str]:
        """Track the array's degraded state; returns the transition.

        Returns ``"suspended"`` when speculation should pause, ``"resumed"``
        when it may continue, or None when nothing changed.
        """
        if degraded and not self.suspended:
            self.suspended = True
            self.suspensions += 1
            return "suspended"
        if not degraded and self.suspended:
            self.suspended = False
            return "resumed"
        return None

    # -- state ---------------------------------------------------------------

    @property
    def sliding_accuracy(self) -> float:
        """Match fraction over the current window (1.0 when empty)."""
        if not self._window:
            return 1.0
        return self._window_matches / len(self._window)

    def _trip(self, reason: str) -> bool:
        if not self.disabled:
            self.disabled = True
            self.trip_reason = reason
        return True

    def __repr__(self) -> str:
        state = f"tripped:{self.trip_reason}" if self.disabled else "armed"
        if self.suspended:
            state += ",suspended"
        return (
            f"SpeculationWatchdog({state}, restarts={self.restarts}, "
            f"faults={self.faults}, accuracy={self.sliding_accuracy:.2f})"
        )


class SpeculationThrottle:
    """Ad-hoc erroneous-speculation damper."""

    def __init__(self, cancel_limit: int, disable_reads: int) -> None:
        self.cancel_limit = cancel_limit
        self.disable_reads = disable_reads
        self._recent_cancels = 0
        self._disabled_remaining = 0
        #: Lifetime statistics.
        self.trips = 0
        self.suppressed_restarts = 0

    @property
    def enabled(self) -> bool:
        return self.cancel_limit > 0

    @property
    def currently_disabled(self) -> bool:
        return self._disabled_remaining > 0

    def note_cancel(self, hints_cancelled: int) -> None:
        """Record a CANCEL_ALL that cancelled ``hints_cancelled`` hints."""
        if not self.enabled or hints_cancelled <= 0:
            return
        self._recent_cancels += 1
        if self._recent_cancels >= self.cancel_limit:
            self._recent_cancels = 0
            self._disabled_remaining = self.disable_reads
            self.trips += 1

    def allow_restart(self) -> bool:
        """Called per off-track read: may speculation restart now?

        While disabled, each call counts down the disable window.
        """
        if not self.enabled:
            return True
        if self._disabled_remaining > 0:
            self._disabled_remaining -= 1
            self.suppressed_restarts += 1
            return False
        return True


class IsolationQuarantine:
    """Bounded-restart quarantine: how long speculation stays benched.

    The first violation suspends speculation for ``base_reads``
    original-thread read calls; each further violation doubles the window;
    after ``max_violations`` the quarantine is permanent.  This generalizes
    the watchdog's one-way disable to a graded response.
    """

    def __init__(self, base_reads: int = 64, max_violations: int = 3) -> None:
        self.base_reads = max(1, base_reads)
        self.max_violations = max(1, max_violations)
        self.violations = 0
        self.reads_remaining = 0
        self.permanent = False
        self.reasons: List[str] = []

    @property
    def active(self) -> bool:
        return self.permanent or self.reads_remaining > 0

    def impose(self, reason: str) -> None:
        self.violations += 1
        self.reasons.append(reason)
        if self.violations >= self.max_violations:
            self.permanent = True
            self.reads_remaining = 0
        else:
            self.reads_remaining = self.base_reads * (2 ** (self.violations - 1))

    def tick_read(self) -> bool:
        """Count one original-thread read; True when this read releases the
        quarantine."""
        if self.permanent or self.reads_remaining <= 0:
            return False
        self.reads_remaining -= 1
        return self.reads_remaining == 0

    def __repr__(self) -> str:
        if self.permanent:
            return f"IsolationQuarantine(permanent, {self.violations} violations)"
        if self.reads_remaining:
            return f"IsolationQuarantine({self.reads_remaining} reads left)"
        return "IsolationQuarantine(clear)"


class ReferenceGate:
    """The runtime's three decision sites as they were, over the three
    classes above; the counters and audit records are the ones the runtime
    wrote at each site (trace instants are left out)."""

    def __init__(
        self,
        params: SpecHintParams,
        stats: StatRegistry,
        tracer: object,
        table: AuditTable,
        on_trip: Callable[[], None],
    ) -> None:
        self.stats = stats
        self.table = table
        self.on_trip = on_trip
        self.watchdog = SpeculationWatchdog(
            restart_limit=params.watchdog_restart_limit,
            fault_limit=params.watchdog_fault_limit,
            min_accuracy=params.watchdog_min_accuracy,
            accuracy_window=params.watchdog_accuracy_window,
        )
        self.throttle = SpeculationThrottle(
            params.throttle_cancel_limit, params.throttle_disable_reads
        )
        self.quarantine_state = IsolationQuarantine(
            base_reads=QUARANTINE_BASE_READS,
            max_violations=QUARANTINE_MAX_VIOLATIONS,
        )

    @property
    def trip_reason(self) -> Optional[str]:
        return self.watchdog.trip_reason

    @property
    def closed(self) -> bool:
        """``SpecProcessState._wake_spec_thread``'s test."""
        return (
            self.watchdog.disabled
            or self.watchdog.suspended
            or self.quarantine_state.active
        )

    def on_read(self, degraded: bool, check: Callable[[], bool]) -> str:
        """``SpecProcessState._before_read_inner``."""
        if self.watchdog.disabled:
            return CLOSED
        transition = self.watchdog.set_degraded(degraded)
        if transition == "suspended":
            self.stats.bump(metrics.SPEC_DEGRADED_SUSPENSIONS)
            return SUSPEND  # (sets restart_flag, then the next test returns)
        elif transition == "resumed":
            self.stats.bump(metrics.SPEC_DEGRADED_RESUMES)
        if self.watchdog.suspended:
            return CLOSED

        if self.quarantine_state.active:
            if not self.quarantine_state.tick_read():
                return CLOSED
            self.stats.bump(metrics.SPEC_QUARANTINE_RELEASED)
            self.table.record("quarantine_released")

        matched = check()
        if self.watchdog.note_check(matched):
            self.on_trip()
            return CLOSED
        if matched:
            return HOLD
        if not self.throttle.allow_restart():
            self.stats.bump(metrics.SPEC_THROTTLE_SUPPRESSED)
            return HOLD
        return RESTART

    def on_restart(self) -> Optional[str]:
        """``SpecProcessState.perform_restart``, up to the restart proper."""
        if self.watchdog.disabled:
            return "watchdog_disabled"
        if self.quarantine_state.active:
            return "quarantined"
        if self.watchdog.suspended:
            return "degraded_mode"
        if self.watchdog.note_restart():
            self.on_trip()
            return "watchdog_disabled"
        return None

    def on_fault(self) -> None:
        """``SpecProcessState.note_signal``."""
        if self.watchdog.note_fault():
            self.on_trip()

    def on_cancel(self, hints_cancelled: int) -> None:
        """The restart's ``CANCEL_ALL``."""
        self.throttle.note_cancel(hints_cancelled)

    def on_violation(self, reason: str) -> None:
        """``SpecProcessState.quarantine``, up to the cancel."""
        self.stats.bump(metrics.SPEC_ISOLATION_VIOLATIONS)
        self.quarantine_state.impose(reason)
        self.stats.bump(metrics.SPEC_QUARANTINES)
        if self.quarantine_state.permanent:
            self.stats.bump(metrics.SPEC_QUARANTINE_PERMANENT)
        self.table.record("quarantine", reason)


class Built:
    """A gate under test and what it writes to."""

    def __init__(self, gate_class: type, **params: object) -> None:
        self.stats = StatRegistry()
        self.table = AuditTable()
        self.trips: List[Optional[str]] = []
        self.gate = gate_class(
            SpecHintParams(**params), self.stats, NULL_TRACER, self.table,
            lambda: self.trips.append(self.gate.trip_reason),
        )


def build_gate(**params: object) -> Built:
    """A :class:`SpeculationGate` over ``SpecHintParams(**params)``."""
    return Built(SpeculationGate, **params)
