"""The crash-safe persistent store under the run registry and checkpoints.

This module is the only place that knows how a durable set of keyed JSON
payloads is laid out on disk: a *journal* of one canonical JSON line per
record.  It has one reader (:func:`read_journal`: an unterminated final
line is a torn append and is ignored, any other damage is a typed
error), one durable append (:func:`append_line`: exclusive ``flock``,
torn tail healed, fsync) and one whole-file write
(:func:`atomic_write_text`, which compaction goes through).

:class:`JsonlStore` is the keyed view over a journal.  The run ledger
keys it by content-addressed ``run_id`` — recording the same content
twice is a no-op, which is what makes resume-replays idempotent — and
the sweep checkpoint (:mod:`repro.harness.checkpoint`) keys it by cell.

No imports from :mod:`repro.harness` — the harness imports this package
while its own package init is still running, so the registry must stay a
leaf (stdlib + ``repro.errors`` + sibling registry modules only).
"""

from __future__ import annotations

import contextlib
import fcntl
import json
import os
import tempfile
from typing import BinaryIO, Dict, List, Optional

from repro.errors import RegistryError
from repro.registry.fingerprint import canonical_json
from repro.registry.record import RunRecord

#: Header of a SQLite file: an old ``.db`` registry is rejected, not misread.
_SQLITE_MAGIC = b"SQLite format 3"


def _fsync_directory(directory: str) -> None:
    """Flush a directory's metadata so a just-renamed entry is durable.

    ``os.replace`` makes the rename atomic with respect to readers, but a
    power-loss-style kill can still roll it back unless the containing
    directory is fsynced too.  Best-effort: filesystems that reject
    directory fsync (some network mounts) keep the old guarantee.
    """
    flags = os.O_RDONLY | getattr(os, "O_DIRECTORY", 0)
    try:
        fd = os.open(directory, flags)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_text(path: str, text: str) -> None:
    """Replace ``path`` with ``text`` atomically and durably.

    The temp file lives in the target's directory so ``os.replace`` is a
    same-filesystem rename: readers observe either the old complete file
    or the new complete file, never a torn write.  After the rename the
    containing directory is fsynced, so the new file survives a
    power-loss-style kill as well as a process kill.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    _fsync_directory(directory)


def read_journal(path: str) -> List[Dict[str, object]]:
    """Every complete record line of the journal at ``path``, in file order.

    A missing file is an empty journal.  Bytes after the last newline are
    a torn final append (a writer died mid-line): ignored here, truncated
    away by the next :func:`append_line`.  A complete line that is not a
    JSON object is damage no crash of ours produces, and a typed error.
    """
    if not os.path.exists(path):
        return []
    with open(path, "rb") as handle:
        raw = handle.read()
    if raw.startswith(_SQLITE_MAGIC):
        raise RegistryError(
            f"{path!r} is a SQLite database, which this version does not "
            "read; the registry is a JSONL ledger"
        )
    records: List[Dict[str, object]] = []
    lines = raw.split(b"\n")
    del lines[-1]  # what follows the last newline: a torn append, or nothing
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            data = json.loads(line)
        except ValueError:
            data = None
        if not isinstance(data, dict):
            raise RegistryError(
                f"journal {path!r} line {number} is not a JSON record "
                "(corrupt; only an unterminated *final* line may be torn)"
            )
        records.append(data)
    return records


def _heal_torn_tail(handle: BinaryIO) -> None:
    """Truncate the journal open at ``handle`` to just after its last newline."""
    end = handle.seek(0, os.SEEK_END)
    while end > 0:
        start = max(0, end - 65536)
        handle.seek(start)
        newline = handle.read(end - start).rfind(b"\n")
        if newline >= 0:
            end = start + newline + 1
            break
        end = start
    handle.truncate(end)


def append_line(path: str, data: Dict[str, object]) -> None:
    """Durably append one record to the journal at ``path``.

    Safe from any number of processes at once: the append holds an
    exclusive ``flock`` on the journal, which the kernel drops when the
    holder exits — however it dies — so a SIGKILLed writer can leave a
    torn line but never a held lock.  That torn line is cut off before
    the new record goes in, so every acknowledged record sits on a line
    of its own.
    """
    line = (canonical_json(data) + "\n").encode("utf-8")
    with open(path, "a+b") as handle:
        fcntl.flock(handle, fcntl.LOCK_EX)
        _heal_torn_tail(handle)
        handle.write(line)
        handle.flush()
        os.fsync(handle.fileno())


class JsonlStore:
    """Keyed view of a journal: the last line for a key is its record."""

    def __init__(self, path: str, key: str = "run_id") -> None:
        self.path = path
        self.key = key
        self._records: Dict[str, Dict[str, object]] = {}
        for number, data in enumerate(read_journal(path), start=1):
            if key not in data:
                raise RegistryError(
                    f"journal {path!r} record {number} has no {key!r}"
                )
            self._records[str(data[key])] = data

    def put(self, data: Dict[str, object], durable: bool = True) -> bool:
        """Add a record; returns False on content-addressed dedup."""
        if str(data[self.key]) in self._records:
            return False
        self.set(data, durable=durable)
        return True

    def set(self, data: Dict[str, object], durable: bool = True) -> None:
        """Store a record, superseding any earlier one under its key.

        With ``durable=False`` the record lands in memory only and is
        persisted by the next :meth:`compact` (one atomic rename instead
        of one fsync per record) — the bulk path for recording a finished
        sweep into the registry (its payloads already survive in the
        checkpoint), and for a checkpoint cell that a ``--jobs N`` worker
        has already appended to the one shared checkpoint journal.
        """
        self._records[str(data[self.key])] = data
        if durable:
            append_line(self.path, data)

    def get(self, key: str) -> Optional[Dict[str, object]]:
        return self._records.get(key)

    def ids(self) -> List[str]:
        return sorted(self._records)

    def all(self) -> List[Dict[str, object]]:
        return [self._records[key] for key in self.ids()]

    def compact(self) -> None:
        """Rewrite the journal as one canonical line per record, sorted.

        Sorting by key is what erases insertion-order noise: a serial
        sweep and a parallel sweep arrive at the same set of records in
        different orders, and compaction folds both into identical bytes.
        """
        text = "".join(canonical_json(data) + "\n" for data in self.all())
        atomic_write_text(self.path, text)


class RunRegistry:
    """Typed facade over a run-id-keyed store: records in, records out."""

    def __init__(self, store: JsonlStore) -> None:
        self.store = store

    @classmethod
    def open(cls, path: str) -> "RunRegistry":
        return cls(JsonlStore(path))

    # -- writing -----------------------------------------------------------

    def record(self, record: RunRecord, durable: bool = True) -> str:
        """Store a record (idempotent); returns its run id.

        ``durable=False`` defers persistence to the next :meth:`compact`
        — the bulk path (see :meth:`JsonlStore.put`).
        """
        self.store.put(record.to_jsonable(), durable=durable)
        return record.run_id

    def compact(self) -> None:
        self.store.compact()

    # -- reading -----------------------------------------------------------

    def records(self) -> List[RunRecord]:
        return [RunRecord.from_jsonable(data) for data in self.store.all()]
