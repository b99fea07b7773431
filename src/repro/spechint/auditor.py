"""The speculation isolation auditor.

The paper's entire safety argument rests on one invariant: software-enforced
copy-on-write and syscall suppression guarantee that speculative
pre-execution can never alter the original thread's state, no matter how
far off track it runs.  This module turns that assumption into an enforced,
tested contract, in three parts:

* **write containment** — while the speculating thread is on the CPU, an
  :class:`~repro.vm.memory.AddressSpace` write guard reports every main
  memory mutation *before* it lands.  The only range speculation may write
  directly is its private heap; everything else must go through the COW
  map, whose writes are additionally checked against the containment map
  (the set of copied regions).  A write that escapes either raises a typed
  :class:`~repro.errors.IsolationViolation` with main memory untouched;

* **tamper-evident audit table** — every suppressed side effect (writes
  pretended successful, forbidden syscalls parked, restarts, quarantines)
  is appended to a hash-chained record table.  The chain digest is
  re-verified at each restart boundary, so a record rewritten after the
  fact is detected;

* **restart-boundary snapshot** — the original thread snapshots its
  non-shadow state (fd-table bindings, heap break, the saved registers) at
  every read call; the speculating thread takes the snapshot again and
  compares before consuming the saved state in :meth:`perform_restart`.
  Speculation can only restart from state it provably did not disturb.

On any violation the runtime's :class:`~repro.spechint.gate.SpeculationGate`
quarantines speculation for a bounded, exponentially growing number of
original-thread reads, and permanently after a few repeat offences: a
transient corruption costs a bounded window of hinting, a persistent one
degenerates to vanilla execution.  The original thread is never touched
either way.
"""

from __future__ import annotations

import hashlib
from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Tuple

from repro.errors import IsolationViolation
from repro.vm.memory import SPEC_HEAP_BASE, SPEC_HEAP_MAX, AddressSpace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.process import Process
    from repro.spechint.cow import CowMap

#: Chain anchor for an empty audit table.
_GENESIS = "spechint-audit-genesis"

#: Retained audit records; older records fold into the chain anchor (the
#: hash chain stays verifiable end to end).
AUDIT_TABLE_CAPACITY = 1024


def _digest(*parts: object) -> str:
    """Short, stable hex digest of a tuple of printable parts (each part's
    ``repr`` followed by a unit separator)."""
    data = "".join(repr(part) + "\x1f" for part in parts)
    return hashlib.sha256(data.encode("utf-8")).hexdigest()[:24]


def _chain_digest(previous: str, seq: int, kind: str, detail: str) -> str:
    """``_digest(previous, seq, kind, detail)``, the audit chain's link,
    spelled out as one string and one hash call: every record is hashed
    when written, and again by :meth:`AuditTable.verify` whenever its link
    is no longer what was written."""
    data = f"{previous!r}\x1f{seq!r}\x1f{kind!r}\x1f{detail!r}\x1f"
    return hashlib.sha256(data.encode("utf-8")).hexdigest()[:24]


class AuditRecord:
    """One entry of the tamper-evident audit table."""

    __slots__ = ("seq", "kind", "detail", "digest")

    def __init__(self, seq: int, kind: str, detail: str, digest: str) -> None:
        self.seq = seq
        self.kind = kind
        self.detail = detail
        #: Chain digest covering this record and every record before it.
        self.digest = digest

    def __repr__(self) -> str:
        return f"AuditRecord({self.seq}, {self.kind!r}, {self.detail!r})"


class AuditTable:
    """Hash-chained, bounded log of suppressed speculative side effects.

    Each record's digest covers the previous digest, so rewriting any
    retained record breaks :meth:`verify`.  Old records fold into the
    anchor digest when the table exceeds its capacity — the chain stays
    verifiable end to end while memory stays bounded.

    A record is hashed when it is written; :meth:`verify` hashes it again
    only if its link content — the digest it follows, its seq, kind and
    detail — is not what was written.  ``_written`` maps the content of
    every retained link, as written, to its digest: it is a memo of
    :func:`_chain_digest` restricted to content the table itself hashed, so
    a lookup that hits returns exactly what re-hashing would, and the
    verdict of every table state is the full re-hash's.  What a tamper can
    reach (a record's fields, the anchor, the head, the record sequence)
    only makes lookups miss.
    """

    def __init__(self, capacity: int = AUDIT_TABLE_CAPACITY) -> None:
        self.capacity = max(1, capacity)
        self._records: Deque[AuditRecord] = deque()
        #: Digest of everything folded out of the retained window.
        self.anchor_digest = _digest(_GENESIS)
        self.head_digest = self.anchor_digest
        self.records_total = 0
        self._written: Dict[Tuple[str, int, str, str], str] = {}

    def record(self, kind: str, detail: str = "") -> AuditRecord:
        seq = self.records_total
        self.records_total += 1
        link = (self.head_digest, seq, kind, detail)
        digest = _chain_digest(*link)
        self._written[link] = digest
        entry = AuditRecord(seq, kind, detail, digest)
        self._records.append(entry)
        self.head_digest = digest
        while len(self._records) > self.capacity:
            folded = self._records.popleft()
            # The folded record's link as written follows the old anchor
            # (a tampered one is simply not found).
            self._written.pop(
                (self.anchor_digest, folded.seq, folded.kind, folded.detail), None)
            self.anchor_digest = folded.digest
        return entry

    def records(self) -> List[AuditRecord]:
        return list(self._records)

    def verify(self) -> None:
        """Check the chain; raises :class:`IsolationViolation` when any
        retained record was altered after it was written."""
        written = self._written
        running = self.anchor_digest
        for entry in self._records:
            link = (running, entry.seq, entry.kind, entry.detail)
            expected = written.get(link)
            if expected is None:
                expected = _chain_digest(*link)
            if entry.digest != expected:
                raise IsolationViolation(
                    f"audit record #{entry.seq} ({entry.kind}) fails its "
                    f"chain digest: table was tampered with"
                )
            running = entry.digest
        if running != self.head_digest:
            raise IsolationViolation("audit table head digest mismatch")

    def __len__(self) -> int:
        return len(self._records)


class IsolationAuditor:
    """Checks the isolation invariant for one speculating process."""

    def __init__(self, process: "Process", capacity: int = AUDIT_TABLE_CAPACITY) -> None:
        self.process = process
        self.table = AuditTable(capacity)

        #: Boundary snapshots (captured by the original thread, verified by
        #: the speculating thread at the next restart).
        self._boundary_state: Optional[Tuple] = None
        self._saved_regs: Optional[Tuple[int, ...]] = None

        #: Lifetime statistics.
        self.cow_writes_checked = 0
        self.guard_checks = 0
        self.boundary_captures = 0
        self.boundary_verifies = 0
        self.violations = 0

    # -- write containment ---------------------------------------------------

    def arm(self, mem: AddressSpace) -> None:
        """Attach the write guard (speculating thread about to execute)."""
        mem.write_guard = self._on_guarded_write

    def disarm(self, mem: AddressSpace) -> None:
        mem.write_guard = None

    def _on_guarded_write(self, addr: int, length: int) -> None:
        """A main-memory mutation while speculation holds the CPU.

        The only main memory the speculating thread may write directly is
        its private heap; everything else must stay inside COW copies.
        """
        self.guard_checks += 1
        end = addr + max(0, length)
        if SPEC_HEAP_BASE <= addr and end <= SPEC_HEAP_MAX:
            return
        self.violations += 1
        raise IsolationViolation(
            f"speculative write to main memory [{addr:#x}+{length}] "
            f"escaped COW containment"
        )

    def check_cow_containment(self, cow: "CowMap", addr: int, length: int) -> None:
        """Post-write check: every region the write covered must be in the
        containment map (the COW copy table)."""
        self.cow_writes_checked += 1
        size = cow.region_size
        first = addr // size
        last = (addr + max(1, length) - 1) // size
        for region in range(first, last + 1):
            if not cow.is_copied(region * size):
                self.violations += 1
                raise IsolationViolation(
                    f"COW write to [{addr:#x}+{length}] left region "
                    f"{region:#x} out of the containment map"
                )

    # -- restart-boundary snapshot -------------------------------------------

    def _boundary(self) -> Tuple:
        """The non-shadow state speculation must never disturb: fd-table
        bindings (fd -> inode; offsets excluded because the blocked read
        legitimately advances its own offset) and the heap break."""
        bindings = tuple(sorted(
            (fd, state.inode.ino if state.inode is not None else -1)
            for fd, state in self.process.fds.items()
        ))
        return (bindings, self.process.mem.brk)

    def capture_boundary(self, saved_regs: Optional[List[int]]) -> None:
        """Original-thread side: snapshot the boundary at a read call (the
        last capture before a restart is the blocking read)."""
        self.boundary_captures += 1
        self._boundary_state = self._boundary()
        self._saved_regs = tuple(saved_regs) if saved_regs is not None else None

    def verify_restart_boundary(self, saved_regs: Optional[List[int]]) -> None:
        """Speculating-thread side: nothing non-shadow may have changed
        since the original thread captured the boundary, and the saved
        register snapshot must be exactly what was saved.  Also re-verifies
        the audit chain."""
        self.boundary_verifies += 1
        self.table.verify()
        if self._boundary_state is not None:
            if self._boundary() != self._boundary_state:
                self.violations += 1
                raise IsolationViolation(
                    "non-shadow state (fd table / heap break) changed "
                    "across the speculation-only window"
                )
        if self._saved_regs is not None and saved_regs is not None:
            if tuple(saved_regs) != self._saved_regs:
                self.violations += 1
                raise IsolationViolation(
                    "saved register snapshot was mutated between the "
                    "restart request and the restart"
                )
