"""The speculation watchdog: the paper's safety guarantee made operational.

Speculation is supposed to be pure opportunity — wrong hints cost some
wasted prefetches, but execution stays correct.  That still leaves a
pathological regime (the paper's Gnuld-on-one-disk case, or a fault plan
forcing constant divergence) where speculation burns CPU and hint-channel
bandwidth while never being right.  The watchdog observes three signals
and, when any crosses its limit, disables speculation for the rest of the
run, falling back to vanilla execution:

* **restart storms** — consecutive speculation restarts with no hint-log
  match in between;
* **fault storms** — cumulative speculative faults (signals);
* **low hint accuracy** — the fraction of hint-log checks that matched,
  over a sliding window of recent read calls.

A limit of 0 disables that trigger.  The defaults are generous enough that
none of the paper's benchmarks ever trip the watchdog; the chaos profiles
(notably ``restart-storm``) exist to trip it on purpose.

Distinct from tripping, the watchdog also carries a *resumable* degraded-
mode suspension: while the storage array is degraded (a disk died and the
rebuild has not finished), speculation's prefetch appetite only competes
with reconstruction and resilver traffic, so the runtime suspends
speculative execution via :meth:`set_degraded` and resumes it when the
rebuild completes.  Suspension is policy, not a safety trip — it clears
itself, and never sets ``disabled``.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional


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
