"""The hint log (Section 3.2.2).

The speculating thread records every read it predicts (whether or not a TIP
hint was issued for it — zero-byte EOF reads are predicted but not hinted).
The original thread keeps an index into the log and checks the next entry
before each of its own reads:

* no next entry  -> speculation is *behind* normal execution -> off track;
* entry mismatch -> speculation *strayed* from the real path  -> off track;
* entry matches  -> speculation may still be on track; consume the entry.

On an off-track detection the original thread saves its registers and sets
the restart flag (see :mod:`repro.spechint.runtime`).
"""

from __future__ import annotations

from typing import List, Optional


class HintLogEntry:
    """One predicted read."""

    __slots__ = ("ino", "offset", "length", "hinted")

    def __init__(self, ino: int, offset: int, length: int, hinted: bool) -> None:
        self.ino = ino
        #: File offset the read will start at.
        self.offset = offset
        #: *Requested* length (the original thread requests the same).
        self.length = length
        #: Whether a TIP hint call was issued for this prediction.
        self.hinted = hinted

    def matches(self, ino: int, offset: int, length: int) -> bool:
        return self.ino == ino and self.offset == offset and self.length == length


class HintLog:
    """Shared between the original and speculating threads."""

    def __init__(self) -> None:
        self._entries: List[HintLogEntry] = []
        self._index = 0
        #: Lifetime statistics.
        self.appended_total = 0
        self.matched_total = 0
        self.mismatched_total = 0
        self.empty_total = 0

    def append(self, ino: int, offset: int, length: int, hinted: bool) -> HintLogEntry:
        """Speculating thread: record a predicted read."""
        entry = HintLogEntry(ino, offset, length, hinted)
        self._entries.append(entry)
        self.appended_total += 1
        return entry

    def next_entry(self) -> Optional[HintLogEntry]:
        """Original thread: peek the next unconsumed entry."""
        if self._index < len(self._entries):
            return self._entries[self._index]
        return None

    def check_and_consume(self, ino: int, offset: int, length: int) -> bool:
        """Original thread's pre-read check.  True = still on track."""
        entry = self.next_entry()
        if entry is None:
            self.empty_total += 1
            return False
        if entry.matches(ino, offset, length):
            self._index += 1
            self.matched_total += 1
            return True
        self.mismatched_total += 1
        return False

    def reset(self) -> None:
        """Restart protocol: discard the log and the consume index."""
        self._entries.clear()
        self._index = 0

    @property
    def unconsumed(self) -> int:
        """Entries the original thread has not yet reached."""
        return len(self._entries) - self._index

    def __len__(self) -> int:
        return len(self._entries)
