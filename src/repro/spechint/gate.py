"""The speculation gate: every reason speculation may not run or restart.

The paper's safety argument is that speculation may be switched off but
can never make execution wrong; this is the one place that switches it
off.  The runtime asks the gate before each original-thread read
(:meth:`SpeculationGate.on_read`), before waking the speculating thread
(:attr:`~SpeculationGate.closed`) and at each restart
(:meth:`~SpeculationGate.on_restart`).  It closes for four reasons:

* a **watchdog trip**, for the rest of the run: a restart storm, a fault
  storm or low hint-log accuracy (the ``watchdog_*`` parameters; the first
  reason sticks);
* a **degraded suspension**, while the storage array is degraded or
  rebuilding and speculative prefetches would only compete with
  reconstruction and resilver traffic: a pause, not a trip;
* an **isolation quarantine**, for ``QUARANTINE_BASE_READS * 2**(n-1)``
  reads after the n-th isolation violation and for good from the
  ``QUARANTINE_MAX_VIOLATIONS``-th; it does not count down while
  speculation is suspended;
* the Section 5 **throttle**, "disabling speculative execution for a brief
  time after some number of cancel requests" (the ``throttle_*``
  parameters): its window counts down on off-track reads only.

The gate writes its own counters, trace instants and audit records; what
a trip does to the run (park, cancel hints) is the runtime's ``on_trip``.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional

from repro.params import SpecHintParams
from repro.sim import metrics
from repro.sim.stats import StatRegistry
from repro.spechint.auditor import AuditTable
from repro.trace.tracer import CAT_SPEC, TID_ORIGINAL, TID_SPECULATING, Tracer

#: Quarantine length, in original-thread reads, after the first isolation
#: violation; it doubles with each further violation.
QUARANTINE_BASE_READS = 64
#: Violations from which the quarantine lasts for the rest of the run.
QUARANTINE_MAX_VIOLATIONS = 3

#: :meth:`SpeculationGate.on_read` verdicts.
CLOSED = "closed"  #: the gate is shut: the read runs vanilla
SUSPEND = "suspend"  #: the array just went degraded: bench the spec thread
HOLD = "hold"  #: no restart (matched, or throttled): speculation carries on
RESTART = "restart"  #: off track: request a restart


class SpeculationGate:
    """Decides whether speculation may run or restart, for one process."""

    def __init__(
        self,
        params: SpecHintParams,
        stats: StatRegistry,
        tracer: Tracer,
        table: AuditTable,
        on_trip: Callable[[], None],
    ) -> None:
        self.stats = stats
        self.tracer = tracer
        self.table = table
        self.on_trip = on_trip

        self.restart_limit = params.watchdog_restart_limit
        self.fault_limit = params.watchdog_fault_limit
        self.min_accuracy = params.watchdog_min_accuracy
        self.accuracy_window = params.watchdog_accuracy_window
        self._window: Deque[bool] = deque(maxlen=max(1, self.accuracy_window))
        #: ``sum(self._window)``, kept as checks enter and leave the window.
        self._window_matches = 0
        self._consecutive_restarts = 0
        self._faults = 0
        #: Why the watchdog tripped; None while it has not.
        self.trip_reason: Optional[str] = None

        self.suspended = False

        self.violations = 0
        self.quarantine_reads = 0

        self.cancel_limit = params.throttle_cancel_limit
        self.disable_reads = params.throttle_disable_reads
        self._recent_cancels = 0
        self.throttled_reads = 0

    @property
    def permanent(self) -> bool:
        """Is the quarantine for the rest of the run?"""
        return self.violations >= QUARANTINE_MAX_VIOLATIONS

    @property
    def quarantined(self) -> bool:
        return self.permanent or self.quarantine_reads > 0

    @property
    def closed(self) -> bool:
        """May the speculating thread not be woken now?"""
        return self.trip_reason is not None or self.suspended or self.quarantined

    @property
    def accuracy(self) -> float:
        """Match fraction over the accuracy window (1.0 when empty)."""
        return self._window_matches / len(self._window) if self._window else 1.0

    # -- decision sites ------------------------------------------------------

    def on_read(self, degraded: bool, check: Callable[[], bool]) -> str:
        """An original-thread read: poll the array's state, then, if the
        gate is open, run the hint-log ``check`` and judge its outcome."""
        if self.trip_reason is not None:
            return CLOSED  # vanilla execution for the rest of the run
        if degraded != self.suspended:
            self.suspended = degraded
            if degraded:
                self.stats.bump(metrics.SPEC_DEGRADED_SUSPENSIONS)
                self._instant("degraded_suspend", TID_ORIGINAL)
                return SUSPEND
            # Resumed: the stale hint log will mismatch, and the restart
            # request wakes the spec thread with a fresh boundary.
            self.stats.bump(metrics.SPEC_DEGRADED_RESUMES)
            self._instant("degraded_resume", TID_ORIGINAL)
        elif degraded:
            return CLOSED
        if self.permanent:
            return CLOSED
        if self.quarantine_reads:
            self.quarantine_reads -= 1
            if self.quarantine_reads:
                return CLOSED
            # This read released the quarantine: the stale hint log will
            # mismatch and request a restart.
            self.stats.bump(metrics.SPEC_QUARANTINE_RELEASED)
            self.table.record("quarantine_released")

        matched = check()
        if self._note_check(matched):
            self._trip("low_accuracy")
            return CLOSED
        if matched:
            return HOLD  # speculation may still be on track
        if self.throttled_reads:
            self.throttled_reads -= 1
            self.stats.bump(metrics.SPEC_THROTTLE_SUPPRESSED)
            return HOLD
        return RESTART

    def on_restart(self) -> Optional[str]:
        """A restart is due: the reason to park instead, or None."""
        if self.trip_reason is not None:
            return "watchdog_disabled"
        if self.quarantined:
            return "quarantined"
        if self.suspended:
            return "degraded_mode"
        self._consecutive_restarts += 1
        if 0 < self.restart_limit <= self._consecutive_restarts:
            self._trip("restart_storm")
            return "watchdog_disabled"
        return None

    # -- signal intake -------------------------------------------------------

    def on_fault(self) -> None:
        """One speculative fault (signal)."""
        self._faults += 1
        if 0 < self.fault_limit <= self._faults:
            self._trip("fault_storm")

    def on_cancel(self, hints_cancelled: int) -> None:
        """A restart's ``CANCEL_ALL`` cancelled ``hints_cancelled`` hints."""
        if self.cancel_limit <= 0 or hints_cancelled <= 0:
            return
        self._recent_cancels += 1
        if self._recent_cancels >= self.cancel_limit:
            self._recent_cancels = 0
            self.throttled_reads = self.disable_reads

    def on_violation(self, reason: str) -> None:
        """An isolation violation: impose the next quarantine."""
        self.stats.bump(metrics.SPEC_ISOLATION_VIOLATIONS)
        self.violations += 1
        self.quarantine_reads = (
            0 if self.permanent else QUARANTINE_BASE_READS << (self.violations - 1))
        self.stats.bump(metrics.SPEC_QUARANTINES)
        if self.permanent:
            self.stats.bump(metrics.SPEC_QUARANTINE_PERMANENT)
        self.table.record("quarantine", reason)
        self._instant("quarantine", TID_SPECULATING, permanent=self.permanent)

    # -- internals -----------------------------------------------------------

    def _note_check(self, matched: bool) -> bool:
        """Slide the accuracy window; True when it trips the watchdog."""
        if matched:
            self._consecutive_restarts = 0
        window = self._window
        if len(window) == window.maxlen and window[0]:
            self._window_matches -= 1  # the oldest check leaves the window
        window.append(matched)
        if matched:
            self._window_matches += 1
        return (
            self.min_accuracy > 0.0
            and self.accuracy_window > 0
            and len(window) == window.maxlen
            and self._window_matches / len(window) < self.min_accuracy
        )

    def _trip(self, reason: str) -> None:
        if self.trip_reason is None:
            self.trip_reason = reason
        self.on_trip()

    def _instant(self, name: str, tid: int, **args: object) -> None:
        if self.tracer.enabled:
            self.tracer.instant(CAT_SPEC, name, tid=tid, **args)

    def __repr__(self) -> str:
        reasons = [f"tripped:{self.trip_reason}"] if self.trip_reason else []
        reasons += [name for name, on in (("suspended", self.suspended),
                                           ("quarantined", self.quarantined),
                                           ("throttled", self.throttled_reads))
                    if on]
        return f"SpeculationGate({','.join(reasons) or 'open'})"
