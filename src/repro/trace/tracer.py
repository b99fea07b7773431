"""Structured event tracing for the simulated system.

One :class:`Tracer` per simulation records timestamped events into a
bounded ring buffer.  Design constraints, in order:

1. **Zero behavioral perturbation.**  The tracer only ever *reads* the
   simulation clock; it never advances it, schedules events, or touches
   any simulated state.  A run with tracing enabled is cycle-identical to
   the same run without it.
2. **Zero cost when disabled.**  Every instrumentation site guards its
   event construction with ``if tracer.enabled:`` against the shared
   :data:`NULL_TRACER` singleton, so a disabled run pays one attribute
   test per site, and builds no argument dicts.
3. **Bounded memory.**  The ring buffer drops the *oldest* events when
   full (the end of a run — where the interesting divergence usually is —
   survives); the drop count is reported, never silent.

Events use the Chrome ``trace_event`` phase vocabulary directly so the
exporters are trivial: ``"i"`` (instant), ``"X"`` (complete span with a
duration), ``"C"`` (counter sample).  Timestamps are simulated cycles.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, Iterator, Optional, Tuple

from repro.errors import TraceError
from repro.sim.clock import SimClock

# -- categories -------------------------------------------------------------

CAT_KERNEL = "kernel"      # syscalls, read path, blocks/wakeups
CAT_SCHED = "sched"        # context switches, thread execution slices
CAT_SPEC = "spec"          # speculation: restarts, parks, COW, hint checks
CAT_HINT = "hint"          # hint lifecycle: disclosed ... consumed/cancelled/wasted
CAT_TIP = "tip"            # TIP manager decisions (prefetch scheduling)
CAT_CACHE = "cache"        # block cache transitions
CAT_STORAGE = "storage"    # per-disk service spans and queue depths

ALL_CATEGORIES: Tuple[str, ...] = (
    CAT_KERNEL, CAT_SCHED, CAT_SPEC, CAT_HINT, CAT_TIP, CAT_CACHE, CAT_STORAGE,
)

#: Synthetic thread ids for the Chrome/Perfetto track layout.
TID_ORIGINAL = 0
TID_SPECULATING = 1
TID_SYSTEM = 90
TID_DISK_BASE = 100  # disk N renders as track TID_DISK_BASE + N


def parse_categories(spec: str) -> Tuple[str, ...]:
    """Parse a ``--categories`` list like ``"hint,storage"``.

    Unknown names and an empty list (``""``, ``",,"``) raise
    :class:`TraceError` (a typo'd category silently recording nothing is
    the observability version of a typo'd counter).
    """
    names = tuple(part.strip() for part in spec.split(",") if part.strip())
    if not names:
        raise TraceError(
            f"empty trace category list {spec!r}; expected one or more of "
            f"{', '.join(ALL_CATEGORIES)}"
        )
    for name in names:
        if name not in ALL_CATEGORIES:
            raise TraceError(
                f"unknown trace category {name!r}; expected one of "
                f"{', '.join(ALL_CATEGORIES)}"
            )
    return names


class TraceEvent:
    """One recorded event (phase vocabulary matches Chrome trace_event)."""

    __slots__ = ("ts", "category", "name", "ph", "tid", "dur", "args")

    def __init__(
        self,
        ts: int,
        category: str,
        name: str,
        ph: str,
        tid: int,
        dur: int = 0,
        args: Optional[Dict[str, object]] = None,
    ) -> None:
        self.ts = ts
        self.category = category
        self.name = name
        self.ph = ph
        self.tid = tid
        self.dur = dur
        self.args = args

    def to_jsonable(self) -> Dict[str, object]:
        """Chrome trace_event dict (also the JSONL record shape)."""
        entry: Dict[str, object] = {
            "name": self.name,
            "cat": self.category,
            "ph": self.ph,
            "ts": self.ts,
            "pid": 1,
            "tid": self.tid,
        }
        if self.ph == "X":
            entry["dur"] = self.dur
        if self.args:
            entry["args"] = self.args
        return entry

    def __repr__(self) -> str:
        return (
            f"TraceEvent({self.ts}, {self.category}:{self.name}, "
            f"ph={self.ph}, tid={self.tid})"
        )


class Tracer:
    """Ring-buffered, category-filterable event recorder."""

    #: Default ring capacity (events).  ~100 bytes/event -> tens of MB max.
    DEFAULT_CAPACITY = 1 << 18

    def __init__(
        self,
        clock: SimClock,
        capacity: int = DEFAULT_CAPACITY,
        categories: Optional[Iterable[str]] = None,
    ) -> None:
        if capacity <= 0:
            raise TraceError(f"tracer capacity must be positive, got {capacity}")
        self.clock = clock
        self.capacity = capacity
        #: None = record every category.
        self.categories: Optional[frozenset] = (
            frozenset(categories) if categories is not None else None
        )
        if self.categories is not None:
            for name in self.categories:
                if name not in ALL_CATEGORIES:
                    raise TraceError(f"unknown trace category {name!r}")
        self.enabled = True
        self._events: Deque[TraceEvent] = deque(maxlen=capacity)
        #: Lifetime emitted count; ``emitted - len(events)`` were dropped.
        self.emitted = 0

    # -- wiring -------------------------------------------------------------

    def bind_clock(self, clock: SimClock) -> None:
        """Rebind to a run's clock.

        The harness creates the clock deep inside ``build_system``, after
        the caller has already decided whether (and how) to trace — so a
        caller-constructed tracer starts on a placeholder clock and is
        bound to the real one here.  Rebinding mid-run would corrupt
        timestamps; bind before the first event.
        """
        if self.emitted:
            raise TraceError("cannot rebind the clock of a tracer in use")
        self.clock = clock

    # -- recording ----------------------------------------------------------

    def wants(self, category: str) -> bool:
        """True when events of ``category`` would be recorded."""
        if not self.enabled:
            return False
        return self.categories is None or category in self.categories

    def instant(
        self, category: str, name: str, tid: int = TID_SYSTEM,
        **args: object,
    ) -> None:
        """Record a point-in-time event at the current clock reading."""
        if not self.wants(category):
            return
        self._append(TraceEvent(self.clock.now, category, name, "i", tid,
                                args=args or None))

    def complete(
        self, category: str, name: str, start: int, duration: int,
        tid: int = TID_SYSTEM, **args: object,
    ) -> None:
        """Record a span that began at ``start`` and lasted ``duration``."""
        if not self.wants(category):
            return
        self._append(TraceEvent(start, category, name, "X", tid,
                                dur=max(0, duration), args=args or None))

    def counter(
        self, category: str, name: str, value: int, tid: int = TID_SYSTEM,
    ) -> None:
        """Record a counter sample (renders as a Perfetto counter track)."""
        if not self.wants(category):
            return
        self._append(TraceEvent(self.clock.now, category, name, "C", tid,
                                args={"value": value}))

    def _append(self, event: TraceEvent) -> None:
        self._events.append(event)
        self.emitted += 1

    # -- reading ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    @property
    def dropped(self) -> int:
        """Events evicted by the ring buffer."""
        return self.emitted - len(self._events)

    def events(self) -> Iterator[TraceEvent]:
        """Recorded events, oldest first."""
        return iter(self._events)

    def __repr__(self) -> str:
        return (
            f"Tracer(events={len(self._events)}, dropped={self.dropped}, "
            f"enabled={self.enabled})"
        )


class NullTracer(Tracer):
    """The disabled tracer: every record call is a no-op.

    Shared by every un-traced simulation (it holds no per-run state), so
    components can unconditionally keep a ``tracer`` attribute and guard
    hot instrumentation with ``if self.tracer.enabled:``.
    """

    def __init__(self) -> None:
        super().__init__(SimClock(), capacity=1)
        self.enabled = False

    def wants(self, category: str) -> bool:  # noqa: ARG002 - interface
        return False

    def instant(self, category: str, name: str, tid: int = TID_SYSTEM,
                **args: object) -> None:
        pass

    def complete(self, category: str, name: str, start: int, duration: int,
                 tid: int = TID_SYSTEM, **args: object) -> None:
        pass

    def counter(self, category: str, name: str, value: int,
                tid: int = TID_SYSTEM) -> None:
        pass


#: Process-wide disabled tracer (safe to share: it never stores anything).
NULL_TRACER = NullTracer()
