"""The hint-lifecycle ledger as it was before finished hints were packed
into rows, kept as a reference model.

Every hint among the first ``capacity`` keeps its :class:`HintRecord`
object, open or terminal, in one dict for the whole run; ``records()`` and
``disclosed_keys()`` read that dict.  ``test_property_lifecycle.py`` drives
it beside :class:`repro.trace.lifecycle.HintLifecycle` and requires the same
counts, per-process open hints, lead times, readiness tally and records
after every step.  It is deliberately left as it was, including the check
for a second terminal state that only covers retained hints and runs after
the count is bumped; the property test never ends a hint twice.
"""

from typing import Dict, List, Optional, Sequence

from repro.sim.clock import SimClock
from repro.sim.stats import Distribution
from repro.trace.lifecycle import (
    CANCELLED,
    CONSUMED,
    WASTED,
    BlockKey,
    HintRecord,
)
from repro.trace.tracer import CAT_HINT, NULL_TRACER, TID_SYSTEM, Tracer


class ReferenceHintLifecycle:
    """The object-per-record ledger: every retained hint keeps its
    ``HintRecord`` for the whole run."""

    #: Records retained for :meth:`records`; aggregates stay exact beyond.
    DEFAULT_CAPACITY = 1 << 17

    def __init__(
        self,
        clock: SimClock,
        tracer: Tracer = NULL_TRACER,
        capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        self.clock = clock
        self.tracer = tracer
        self.capacity = capacity
        #: The first ``capacity`` hints' records, open or terminal.
        self._records: Dict[int, HintRecord] = {}
        #: Every open (non-terminal) hint's record, whatever the capacity.
        self._open: Dict[int, HintRecord] = {}
        #: Open hint seqs per block key, disclosure order.
        self._open_by_key: Dict[BlockKey, List[int]] = {}
        #: Open hints per pid (exact even past capacity).
        self._open_by_pid: Dict[int, int] = {}

        # Exact aggregates (never capped).
        self.disclosed_total = 0
        self.terminal_counts: Dict[str, int] = {
            CONSUMED: 0, CANCELLED: 0, WASTED: 0,
        }
        self.lead_times = Distribution("hint.lead_cycles")
        #: Consumed hints whose block had fully arrived before the read.
        self.ready_before_demand = 0

    # -- intake -------------------------------------------------------------

    def disclosed(self, seq: int, keys: Sequence[BlockKey], pid: int) -> None:
        """One segment's hints entered a process's queue: ``keys[i]`` with
        hint seq ``seq + i``.  One record per block."""
        now = self.clock.now
        self.disclosed_total += len(keys)
        self._open_by_pid[pid] = self._open_by_pid.get(pid, 0) + len(keys)
        records = self._records
        open_records = self._open
        open_by_key = self._open_by_key
        tracer = self.tracer
        for key in keys:
            record = open_records[seq] = HintRecord(seq, key, pid, now)
            if len(records) < self.capacity:
                records[seq] = record
            open_by_key.setdefault(key, []).append(seq)
            if tracer.enabled:
                tracer.instant(CAT_HINT, "hint.disclosed", tid=TID_SYSTEM,
                               seq=seq, ino=key[0], block=key[1], pid=pid)
            seq += 1

    # -- prefetch progress ---------------------------------------------------

    def prefetch_issued(self, key: BlockKey) -> None:
        """TIP sent a prefetch for ``key`` to the array."""
        record = self._first_open(key, unissued=True)
        if record is not None:
            record.issued_ts = self.clock.now
        tracer = self.tracer
        if tracer.enabled:
            tracer.instant(CAT_HINT, "hint.prefetch_issued", tid=TID_SYSTEM,
                           ino=key[0], block=key[1])

    def filled(self, key: BlockKey) -> None:
        """A fetch for ``key`` completed; the block is resident."""
        now = self.clock.now
        open_records = self._open
        for seq in self._open_by_key.get(key, ()):
            record = open_records[seq]
            if record.filled_ts is None:
                record.filled_ts = now

    def prefetch_dropped(self, key: BlockKey) -> None:
        """The prefetch failed terminally; the hint stays open (TIP may
        re-issue it) but its issue timestamp no longer stands."""
        record = self._first_open(key, unissued=False)
        if record is not None:
            record.drops += 1
            if record.filled_ts is None:
                record.issued_ts = None
        tracer = self.tracer
        if tracer.enabled:
            tracer.instant(CAT_HINT, "hint.prefetch_dropped", tid=TID_SYSTEM,
                           ino=key[0], block=key[1])

    def _first_open(self, key: BlockKey, unissued: bool) -> Optional[HintRecord]:
        open_records = self._open
        for seq in self._open_by_key.get(key, ()):
            record = open_records[seq]
            if unissued and record.issued_ts is not None:
                continue
            return record
        return None

    # -- terminal states -----------------------------------------------------

    def consumed(self, seq: int, pid: int) -> None:
        """The read this hint predicted arrived and matched it."""
        record = self._finish(seq, pid, CONSUMED)
        if record is not None:
            self.lead_times.observe(record.lead_cycles)
            if record.ready_before_demand:
                self.ready_before_demand += 1
            tracer = self.tracer
            if tracer.enabled:
                tracer.complete(CAT_HINT, "hint.lifetime",
                                record.disclosed_ts, record.lead_cycles,
                                tid=TID_SYSTEM, seq=seq, ino=record.key[0],
                                block=record.key[1], terminal=CONSUMED,
                                ready=record.ready_before_demand)

    def cancelled(self, seq: int, pid: int) -> None:
        """TIPIO_CANCEL_ALL dropped this hint."""
        self._finish(seq, pid, CANCELLED)

    def wasted(self, seq: int, pid: int, detail: str) -> None:
        """The hint never matched a read (stale-dropped or end-of-run)."""
        record = self._finish(seq, pid, WASTED)
        if record is not None:
            record.detail = detail

    def _finish(self, seq: int, pid: int, terminal: str) -> Optional[HintRecord]:
        self.terminal_counts[terminal] += 1
        open_count = self._open_by_pid.get(pid, 0)
        if open_count > 0:
            self._open_by_pid[pid] = open_count - 1
        record = self._open.pop(seq, None)
        if record is None:
            # Exactly-one-terminal-state invariant: a second terminal for
            # the same seq is a lifecycle bug, not a counting detail.
            assert seq not in self._records, (
                f"hint seq {seq} reached {terminal} after "
                f"{self._records[seq].terminal}"
            )
            return None
        record.terminal = terminal
        record.terminal_ts = self.clock.now
        seqs = self._open_by_key.get(record.key)
        if seqs is not None:
            try:
                seqs.remove(seq)
            except ValueError:
                pass
            if not seqs:
                del self._open_by_key[record.key]
        return record

    # -- queries -------------------------------------------------------------

    @property
    def open_total(self) -> int:
        """Hints disclosed but not yet terminal."""
        return self.disclosed_total - sum(self.terminal_counts.values())

    def open_for(self, pid: int) -> int:
        """Open hints of one process (reconciles with TIP's queue length)."""
        return self._open_by_pid.get(pid, 0)

    def records(self) -> List[HintRecord]:
        """The first ``capacity`` hints' records, disclosure order."""
        return [self._records[seq] for seq in sorted(self._records)]

    def disclosed_keys(self) -> List[BlockKey]:
        """Every (ino, block) key disclosed, in disclosure order.

        This is the hint ledger as an *observer* sees it — exactly the
        channel the speculation-security lint reasons about: if a secret
        influences which keys appear here, the secret has leaked into an
        observable access pattern.  The security correlation tests diff
        this sequence across runs that differ only in secret data.
        (Capped at ``capacity`` like :meth:`records`.)
        """
        return [self._records[seq].key for seq in sorted(self._records)]

    def summary_counts(self) -> Dict[str, int]:
        """The lifecycle ledger: disclosed and every terminal bucket."""
        return {
            "disclosed": self.disclosed_total,
            CONSUMED: self.terminal_counts[CONSUMED],
            CANCELLED: self.terminal_counts[CANCELLED],
            WASTED: self.terminal_counts[WASTED],
            "open": self.open_total,
        }

    @property
    def pct_ready_before_demand(self) -> float:
        """% of consumed hints whose prefetch completed before the read."""
        consumed = self.terminal_counts[CONSUMED]
        return 100.0 * self.ready_before_demand / consumed if consumed else 0.0
