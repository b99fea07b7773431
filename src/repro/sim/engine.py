"""Event queue for the discrete-event simulation.

Events are callbacks scheduled at absolute cycle times.  The engine does not
own a run loop of its own: the SpecVM machine drives time forward while
executing instructions and asks the engine to dispatch any events whose time
has arrived (:meth:`EventEngine.dispatch_due`).  When every thread is blocked,
the kernel fast-forwards the clock to the next event (:meth:`EventEngine.advance_to_next`).
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.clock import SimClock

EventCallback = Callable[[], None]


class Event:
    """A scheduled callback.  Cancellation is supported via :meth:`cancel`."""

    __slots__ = ("when", "seq", "callback", "cancelled", "label")

    def __init__(self, when: int, seq: int, callback: EventCallback, label: str) -> None:
        self.when = when
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self.label = label

    def cancel(self) -> None:
        """Prevent the callback from running when the event comes due."""
        self.cancelled = True


class EventEngine:
    """Priority queue of :class:`Event` objects sharing a :class:`SimClock`.

    Ties in time are broken by scheduling order (FIFO), which keeps the
    simulation deterministic.
    """

    #: Horizon value meaning "no pending events".
    NO_EVENTS = 1 << 62

    def __init__(self, clock: SimClock) -> None:
        self.clock = clock
        self._heap: List[Tuple[int, int, Event]] = []
        self._seq = 0
        #: Total events dispatched (for tests and reporting).
        self.dispatched = 0
        #: Time of the earliest pending event (fast path for the machine's
        #: per-instruction preemption check).  May be conservatively early
        #: when the earliest event was cancelled; dispatch_due refreshes it.
        self.horizon: int = self.NO_EVENTS

    def schedule_at(self, when: int, callback: EventCallback, label: str = "") -> Event:
        """Schedule ``callback`` at absolute cycle time ``when``."""
        if when < self.clock.now:
            raise SimulationError(
                f"cannot schedule event {label!r} at {when} before now={self.clock.now}"
            )
        self._seq += 1
        event = Event(when, self._seq, callback, label)
        heapq.heappush(self._heap, (when, self._seq, event))
        if when < self.horizon:
            self.horizon = when
        return event

    def schedule_after(self, delay: int, callback: EventCallback, label: str = "") -> Event:
        """Schedule ``callback`` ``delay`` cycles from now."""
        if delay < 0:
            raise SimulationError(f"negative event delay {delay} for {label!r}")
        return self.schedule_at(self.clock.now + delay, callback, label)

    @property
    def pending(self) -> int:
        """Number of non-cancelled events still queued."""
        return sum(1 for _, _, e in self._heap if not e.cancelled)

    def next_event_time(self) -> Optional[int]:
        """Time of the earliest pending event, or None if the queue is empty."""
        self._drop_cancelled_head()
        if not self._heap:
            self.horizon = self.NO_EVENTS
            return None
        self.horizon = self._heap[0][0]
        return self._heap[0][0]

    def dispatch_due(self) -> int:
        """Run every pending event with ``when <= now``; return count run."""
        ran = 0
        while True:
            self._drop_cancelled_head()
            if not self._heap or self._heap[0][0] > self.clock.now:
                self.horizon = self._heap[0][0] if self._heap else self.NO_EVENTS
                return ran
            _, _, event = heapq.heappop(self._heap)  # not cancelled: dropped above
            self.dispatched += 1
            ran += 1
            event.callback()

    def advance_to_next(self) -> bool:
        """Jump the clock to the next event and dispatch everything due then.

        Returns False (without moving time) when no events are pending —
        i.e. the simulation would deadlock, which callers treat as an error
        or as natural termination depending on context.
        """
        when = self.next_event_time()
        if when is None:
            return False
        self.clock.advance_to(when)
        self.dispatch_due()
        return True

    def _drop_cancelled_head(self) -> None:
        while self._heap and self._heap[0][2].cancelled:
            heapq.heappop(self._heap)
