"""Per-hint lifecycle accounting.

The informed-prefetching lineage behind TIP stands on per-hint accounting:
*when* was each hint disclosed, when did its prefetch go to a disk, when
did the block land in the cache, and how did the hint end — consumed by
the read it predicted, cancelled by ``TIPIO_CANCEL_ALL``, or wasted
(stale-dropped or never consumed)?  This module tracks exactly that for
every block-granularity hint queue entry, keyed by the TIP manager's hint
sequence number.

An open hint has one :class:`HintRecord`, and it is the TIP manager's
queue entry itself: the manager creates it, queues it and indexes it by
block key; this ledger reads that index for its prefetch stamps and
:meth:`HintLifecycle.records`, and its terminal calls take the record.
What the ledger owns is history: the ended bitmap, the terminal counts,
the lead times and readiness tally, and one packed row per retained hint
that has ended.

Invariants (tested across every app and chaos profile):

* every disclosed hint ends in **exactly one** terminal state —
  ``disclosed == consumed + cancelled + wasted + open`` at all times, and
  ``open == 0`` after :meth:`~repro.tip.manager.TipManager.finalize`;
* a process's open hints are its TIP queue, by construction.

The ledger writes only its stamps and terminal fields, and the manager
reads none of them; like the tracer it reads nothing but the simulation
clock and cannot perturb a run.  Every open hint has a record, so its
timestamps feed the aggregates however many hints came before it; only
the first ``capacity`` hints are *retained* once terminal, so a
pathological hint storm thins the retained per-hint records
(:meth:`HintLifecycle.records`), never the accounting.
"""

from __future__ import annotations

import struct
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

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
    """One block-granularity hint: TIP's queue entry and the ledger's open
    record at once.

    Who writes what: the TIP manager creates it (``seq``, ``key``, ``pid``,
    ``disclosed_ts``, ``disk``) and afterwards writes only ``skips``; the
    ledger writes only the prefetch stamps, ``drops`` and the terminal
    fields, which the manager never reads.  ``disk`` and ``skips`` are
    neither packed into a row nor exported.
    """

    __slots__ = (
        "seq", "key", "pid", "disclosed_ts", "issued_ts", "filled_ts",
        "drops", "terminal", "terminal_ts", "detail", "disk", "skips",
    )

    def __init__(
        self, seq: int, key: BlockKey, pid: int, disclosed_ts: int, disk: int = -1
    ) -> None:
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
        #: Disk holding the block, resolved once at intake: the file's
        #: ``first_lbn`` and the stripe geometry never change (-1 on a
        #: record rebuilt from a row).
        self.disk = disk
        #: How many reads have scanned past this entry without matching it.
        self.skips = 0

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


#: Open records per block key, in disclosure order: the TIP manager's index.
OpenIndex = Dict[BlockKey, List[HintRecord]]


class HintLifecycle:
    """Tracks every hint from disclosure to its terminal state.

    An open hint is a :class:`HintRecord` in ``open_by_key``, the index the
    TIP manager keeps of its queues (its stamps still change); when a
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
        open_by_key: OpenIndex,
        tracer: Tracer = NULL_TRACER,
        capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        self.clock = clock
        self.tracer = tracer
        self.capacity = capacity
        #: Every open hint's record: the TIP manager's index, read only.
        self._queued = open_by_key
        #: Seqs from here on were disclosed once ``capacity`` hints already
        #: were, and are not retained (seqs grow in disclosure order).
        self._retained_below = 1 << 63
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

    def disclosed(self, records: Sequence[HintRecord]) -> None:
        """One segment's hints entered a process's queue, in seq order."""
        retain = self.capacity - self.disclosed_total
        if 0 <= retain < len(records):
            self._retained_below = records[retain].seq
        self.disclosed_total += len(records)
        tracer = self.tracer
        if tracer.enabled:
            for record in records:
                tracer.instant(CAT_HINT, "hint.disclosed", tid=TID_SYSTEM,
                               seq=record.seq, ino=record.key[0],
                               block=record.key[1], pid=record.pid)

    # -- prefetch progress ---------------------------------------------------

    def prefetch_issued(self, key: BlockKey) -> None:
        """TIP sent a prefetch for ``key`` to the array: the first open
        hint on it not yet issued is."""
        for record in self._queued.get(key, ()):
            if record.issued_ts is None:
                record.issued_ts = self.clock.now
                break
        tracer = self.tracer
        if tracer.enabled:
            tracer.instant(CAT_HINT, "hint.prefetch_issued", tid=TID_SYSTEM,
                           ino=key[0], block=key[1])

    def filled(self, key: BlockKey) -> None:
        """A fetch for ``key`` completed; the block is resident."""
        now = self.clock.now
        for record in self._queued.get(key, ()):
            if record.filled_ts is None:
                record.filled_ts = now

    def prefetch_dropped(self, key: BlockKey) -> None:
        """The prefetch failed terminally; the first open hint on ``key``
        stays open (TIP may re-issue it) but its issue timestamp no longer
        stands."""
        records = self._queued.get(key)
        if records:
            record = records[0]
            record.drops += 1
            if record.filled_ts is None:
                record.issued_ts = None
        tracer = self.tracer
        if tracer.enabled:
            tracer.instant(CAT_HINT, "hint.prefetch_dropped", tid=TID_SYSTEM,
                           ino=key[0], block=key[1])

    # -- terminal states -----------------------------------------------------

    def consumed(self, record: HintRecord) -> None:
        """The read this hint predicted arrived and matched it."""
        self._finish(record, CONSUMED)
        self.lead_times.observe(record.lead_cycles)
        if record.ready_before_demand:
            self.ready_before_demand += 1
        tracer = self.tracer
        if tracer.enabled:
            tracer.complete(CAT_HINT, "hint.lifetime",
                            record.disclosed_ts, record.lead_cycles,
                            tid=TID_SYSTEM, seq=record.seq, ino=record.key[0],
                            block=record.key[1], terminal=CONSUMED,
                            ready=record.ready_before_demand)

    def cancelled(self, record: HintRecord) -> None:
        """TIPIO_CANCEL_ALL dropped this hint."""
        self._finish(record, CANCELLED)

    def wasted(self, record: HintRecord, detail: str) -> None:
        """The hint never matched a read (stale-dropped or end-of-run)."""
        self._finish(record, WASTED, detail)

    def _finish(self, record: HintRecord, terminal: str, detail: str = "") -> None:
        # Exactly-one-terminal-state invariant, for every seq and before
        # anything is counted: a second terminal for the same seq is a
        # lifecycle bug, not a counting detail.
        seq = record.seq
        ended = self._ended
        byte, bit = seq >> 3, 1 << (seq & 7)
        if byte >= len(ended):
            ended.extend(bytes(byte + 1 - len(ended)))
        assert not ended[byte] & bit, (
            f"hint seq {seq} reached {terminal} after another terminal state"
        )
        ended[byte] |= bit
        self.terminal_counts[terminal] += 1
        record.terminal = terminal
        record.terminal_ts = self.clock.now
        record.detail = detail
        if seq < self._retained_below:
            self._rows += _pack(record, self._details)

    # -- queries -------------------------------------------------------------

    @property
    def open_total(self) -> int:
        """Hints disclosed but not yet terminal."""
        return self.disclosed_total - sum(self.terminal_counts.values())

    def records(self) -> List[HintRecord]:
        """The first ``capacity`` hints' records, disclosure order.

        An open hint's is its live record; an ended one's is built afresh
        from its row on every call.
        """
        details = list(self._details)
        records = [_unpack(row, details) for row in _ROW.iter_unpack(self._rows)]
        retained_below = self._retained_below
        records.extend(record for open_records in self._queued.values()
                       for record in open_records if record.seq < retained_below)
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
