"""Per-hint lifecycle accounting.

The informed-prefetching lineage behind TIP stands on per-hint accounting:
*when* was each hint disclosed, when did its prefetch go to a disk, when
did the block land in the cache, and how did the hint end — consumed by
the read it predicted, cancelled by ``TIPIO_CANCEL_ALL``, or wasted
(stale-dropped or never consumed)?  This module tracks exactly that for
every block-granularity hint queue entry, keyed by the TIP manager's hint
sequence number: an open hint has a :class:`HintRecord` object, and a
retained hint that has ended is packed into one fixed-size row.

Invariants (tested across every app and chaos profile):

* every disclosed hint ends in **exactly one** terminal state —
  ``disclosed == consumed + cancelled + wasted + open`` at all times, and
  ``open == 0`` after :meth:`~repro.tip.manager.TipManager.finalize`;
* per process, ``open_for(pid)`` equals the manager's
  ``outstanding_hints(pid)`` — in particular it drops to zero the moment
  ``TIPIO_CANCEL_ALL`` drains the queue.

The tracker never reads anything but the simulation clock: like the
tracer it is purely observational and cannot perturb a run.  Every open
hint has a record, so its timestamps feed the aggregates however many
hints came before it; only the first ``capacity`` hints are *retained*
once terminal, so a pathological hint storm thins the retained
per-hint records (:meth:`HintLifecycle.records`), never the accounting.
"""

from __future__ import annotations

import struct
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.sim.clock import SimClock
from repro.sim.stats import Distribution
from repro.trace.tracer import CAT_HINT, NULL_TRACER, TID_SYSTEM, Tracer

BlockKey = Tuple[int, int]  # (ino, file_block) — mirrors fs.cache.BlockKey

#: Terminal states a hint can end in.
CONSUMED = "consumed"
CANCELLED = "cancelled"
WASTED = "wasted"
_TERMINALS = (CONSUMED, CANCELLED, WASTED)

#: A retained hint once it has ended: seq, ino, block, pid, disclosed_ts,
#: issued_ts and filled_ts (-1 for never), terminal_ts, drops, and one byte
#: holding the terminal state and the index of its detail string: 73 bytes.
#: A finished full-scale speculating gnuld run's ledger (12,865 hints) holds
#: 1.1 MB of traced memory this way, 3.7 MB as one record object per hint.
_ROW = struct.Struct("<9qB")


class HintRecord:
    """Lifecycle of one block-granularity hint."""

    __slots__ = (
        "seq", "key", "pid", "disclosed_ts", "issued_ts", "filled_ts",
        "drops", "terminal", "terminal_ts", "detail",
    )

    def __init__(self, seq: int, key: BlockKey, pid: int, disclosed_ts: int) -> None:
        self.seq = seq
        self.key = key
        self.pid = pid
        self.disclosed_ts = disclosed_ts
        #: When TIP issued a prefetch for this hint's block (None = never).
        self.issued_ts: Optional[int] = None
        #: When the prefetched block became resident (None = never).
        self.filled_ts: Optional[int] = None
        #: How many times the array dropped this hint's prefetch.
        self.drops = 0
        #: Terminal state (None while the hint is open).
        self.terminal: Optional[str] = None
        self.terminal_ts: int = 0
        #: Why a wasted hint was wasted ("stale" / "unconsumed").
        self.detail: str = ""

    @property
    def lead_cycles(self) -> int:
        """Disclosure-to-terminal lead time."""
        return self.terminal_ts - self.disclosed_ts

    @property
    def ready_before_demand(self) -> bool:
        """The prefetch had fully arrived before the demand read consumed
        the hint — the overlap the whole system exists to create."""
        return (
            self.terminal == CONSUMED
            and self.filled_ts is not None
            and self.filled_ts <= self.terminal_ts
        )

    def to_jsonable(self) -> Dict[str, object]:
        return {
            "seq": self.seq,
            "ino": self.key[0],
            "block": self.key[1],
            "pid": self.pid,
            "disclosed_ts": self.disclosed_ts,
            "issued_ts": self.issued_ts,
            "filled_ts": self.filled_ts,
            "drops": self.drops,
            "terminal": self.terminal,
            "terminal_ts": self.terminal_ts,
            "detail": self.detail,
        }


class HintLifecycle:
    """Tracks every hint from disclosure to its terminal state.

    An open hint is a :class:`HintRecord` (its stamps still change); when a
    retained one ends it is packed into one :data:`_ROW` and the object is
    let go, and :meth:`records` builds objects from the rows on demand.  A
    speculating run discloses thousands of hints that ``TIPIO_CANCEL_ALL``
    ends at once, so the finished ones are nearly all of the ledger.
    """

    #: Hints retained for :meth:`records`; aggregates stay exact beyond.
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
        #: Every open (non-terminal) hint's record, whatever the capacity.
        self._open: Dict[int, HintRecord] = {}
        #: Open hint seqs per block key, disclosure order.
        self._open_by_key: Dict[BlockKey, List[int]] = {}
        #: Open hints per pid (exact even past capacity).
        self._open_by_pid: Dict[int, int] = {}
        #: Open hints that are not retained: disclosed once ``capacity``
        #: hints already were.
        self._past_capacity: Set[int] = set()
        #: The retained hints that have ended, one ``_ROW`` each, in the
        #: order they ended.
        self._rows = bytearray()
        #: Wasted-hint details, numbered in the rows' last byte.
        self._details: Dict[str, int] = {"": 0}
        #: One bit per seq, set when the hint reaches its terminal state.
        self._ended = bytearray()

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
        hint seq ``seq + i``.  One open record per block."""
        now = self.clock.now
        # The first ``retain`` of these keys are among the first
        # ``capacity`` hints disclosed.
        retain = self.capacity - self.disclosed_total
        self.disclosed_total += len(keys)
        self._open_by_pid[pid] = self._open_by_pid.get(pid, 0) + len(keys)
        open_records = self._open
        open_by_key = self._open_by_key
        tracer = self.tracer
        for key in keys:
            open_records[seq] = HintRecord(seq, key, pid, now)
            if retain <= 0:
                self._past_capacity.add(seq)
            retain -= 1
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
        self._finish(seq, pid, WASTED, detail)

    def _finish(
        self, seq: int, pid: int, terminal: str, detail: str = ""
    ) -> Optional[HintRecord]:
        # Exactly-one-terminal-state invariant, for every seq and before
        # anything is counted: a second terminal for the same seq is a
        # lifecycle bug, not a counting detail.
        ended = self._ended
        byte, bit = seq >> 3, 1 << (seq & 7)
        if byte >= len(ended):
            ended.extend(bytes(byte + 1 - len(ended)))
        assert not ended[byte] & bit, (
            f"hint seq {seq} reached {terminal} after another terminal state"
        )
        ended[byte] |= bit
        self.terminal_counts[terminal] += 1
        open_count = self._open_by_pid.get(pid, 0)
        if open_count > 0:
            self._open_by_pid[pid] = open_count - 1
        record = self._open.pop(seq, None)
        if record is None:
            return None
        record.terminal = terminal
        record.terminal_ts = self.clock.now
        record.detail = detail
        seqs = self._open_by_key.get(record.key)
        if seqs is not None:
            try:
                seqs.remove(seq)
            except ValueError:
                pass
            if not seqs:
                del self._open_by_key[record.key]
        if seq in self._past_capacity:
            self._past_capacity.remove(seq)
        else:
            self._rows += _pack(record, self._details)
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
        """The first ``capacity`` hints' records, disclosure order.

        An open hint's is its live record; an ended one's is built afresh
        from its row on every call.
        """
        details = list(self._details)
        records = [_unpack(row, details) for row in _ROW.iter_unpack(self._rows)]
        past_capacity = self._past_capacity
        records.extend(record for seq, record in self._open.items()
                       if seq not in past_capacity)
        records.sort(key=attrgetter("seq"))
        return records

    def disclosed_keys(self) -> List[BlockKey]:
        """Every (ino, block) key disclosed, in disclosure order.

        This is the hint ledger as an *observer* sees it — exactly the
        channel the speculation-security lint reasons about: if a secret
        influences which keys appear here, the secret has leaked into an
        observable access pattern.  The security correlation tests diff
        this sequence across runs that differ only in secret data.
        (Capped at ``capacity`` like :meth:`records`.)
        """
        return [record.key for record in self.records()]

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


def _pack(record: HintRecord, details: Dict[str, int]) -> bytes:
    """``record``, ended, as one ``_ROW``; a new detail joins ``details``."""
    detail = details.get(record.detail)
    if detail is None:
        detail = details[record.detail] = len(details)
    issued, filled = record.issued_ts, record.filled_ts
    return _ROW.pack(
        record.seq, record.key[0], record.key[1], record.pid,
        record.disclosed_ts,
        -1 if issued is None else issued,
        -1 if filled is None else filled,
        record.terminal_ts, record.drops,
        detail * len(_TERMINALS) + _TERMINALS.index(record.terminal),
    )


def _unpack(row: Tuple[int, ...], details: List[str]) -> HintRecord:
    """The record one ``_ROW`` was packed from."""
    (seq, ino, block, pid, disclosed_ts, issued_ts, filled_ts, terminal_ts,
     drops, code) = row
    record = HintRecord(seq, (ino, block), pid, disclosed_ts)
    record.issued_ts = None if issued_ts < 0 else issued_ts
    record.filled_ts = None if filled_ts < 0 else filled_ts
    record.drops = drops
    detail, terminal = divmod(code, len(_TERMINALS))
    record.terminal = _TERMINALS[terminal]
    record.terminal_ts = terminal_ts
    record.detail = details[detail]
    return record
