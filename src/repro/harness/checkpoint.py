"""Crash-safe harness recovery.

Long sweeps (every app x variant x sweep point) can be killed — by the
machine, the batch scheduler, or an impatient operator — with most of the
work already done.  This module is the persistence half of making that
survivable (the cell engine in :mod:`repro.harness.parallel` drives it):

* a checkpoint is a journal in the run ledger's line format
  (:mod:`repro.registry.store`): a header line, then one durable line per
  finished cell, appended once by whoever ran the cell — the sweep
  process itself, or the ``--jobs N`` worker that computed it.  A kill
  at any instant loses at most the cells still in flight;
* a restarted sweep passed ``resume=True`` loads the journal, skips every
  completed cell, and recomputes only the missing ones — the reassembled
  results are identical to an uninterrupted run because every cell is
  seeded independently;
* version and identity mismatches (a checkpoint from a different sweep or
  an incompatible format) raise a typed
  :class:`~repro.errors.CheckpointError` instead of silently mixing
  incompatible results.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import threading
from typing import Dict, Iterator

from repro.errors import CheckpointError, RegistryError
from repro.registry.fingerprint import canonical_json
from repro.registry.store import JsonlStore, append_line, atomic_write_text

#: Bump when the checkpoint layout changes incompatibly.  Version 1 was
#: one indented JSON document rewritten whole after every cell.
CHECKPOINT_VERSION = 2

#: Field holding a journal line's cell key.  The header line's key is the
#: empty string, which sorts it first in the compacted file.
_KEY = "cell"
_HEADER = ""


def atomic_write_json(path: str, obj: object) -> None:
    """Write ``obj`` as JSON to ``path`` atomically and durably."""
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True))


@contextlib.contextmanager
def unwind_on_signals() -> Iterator[None]:
    """Install handlers that turn a signal into an orderly unwinding.

    A Ctrl-C'd (SIGINT) or terminated (SIGTERM) sweep exits the way the
    signal intended — SIGINT re-raises as :class:`KeyboardInterrupt`,
    SIGTERM as ``SystemExit`` with the conventional ``128 + signum``
    status — by unwinding the stack, so worker pools are torn down.
    There is nothing to flush first: every cell record is durable the
    moment it is appended, and the next ``--resume`` restores them all.
    Outside the main thread (where Python forbids installing handlers)
    this is a no-op.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    previous: Dict[int, object] = {}

    def handler(signum: int, frame: object) -> None:
        for num, old in previous.items():
            signal.signal(num, old)  # type: ignore[arg-type]
        if signum == signal.SIGINT:
            raise KeyboardInterrupt
        raise SystemExit(128 + signum)

    # On a POSIX main thread (the package needs POSIX) this cannot fail.
    for signum in (signal.SIGINT, signal.SIGTERM):
        previous[signum] = signal.signal(signum, handler)
    try:
        yield
    finally:
        for num, old in previous.items():
            signal.signal(num, old)  # type: ignore[arg-type]


@contextlib.contextmanager
def _writing(path: str) -> Iterator[None]:
    try:
        yield
    except OSError as exc:
        raise CheckpointError(f"cannot write checkpoint {path!r}: {exc}") from exc


def append_cell(path: str, key: str, payload: Dict[str, object]) -> None:
    """Durably append one finished cell to the checkpoint at ``path``.

    The whole write side of a finished cell, callable without loading the
    journal: it is what a ``--jobs N`` worker runs before reporting.
    """
    with _writing(path):
        append_line(path, {_KEY: key, "payload": payload})


class SweepCheckpoint:
    """Checkpointed per-cell results of one sweep.

    Cells are keyed by a caller-chosen string (e.g. ``"disks=4/agrep/
    speculating"``).  The ``identity`` string names the sweep; resuming
    against a checkpoint written by a different sweep is a typed error.

    A journal line is ``{"cell": key, "payload": {...}}`` for a finished
    cell; the last line for a key wins, so the duplicate a re-run cell
    leaves is harmless.  Any other line but the header is a typed error.
    """

    def __init__(self, path: str, identity: str, resume: bool = False) -> None:
        self.path = path
        if not resume:
            # A fresh start owns the file: whatever an abandoned run left
            # at this path is replaced, not appended to.
            with _writing(path):
                atomic_write_text(path, canonical_json({
                    _KEY: _HEADER, "version": CHECKPOINT_VERSION,
                    "identity": identity,
                }) + "\n")
        elif not os.path.exists(path):
            raise CheckpointError(f"no checkpoint at {path!r} to resume from")
        try:
            self._store = JsonlStore(path, key=_KEY)
            header = self._store.get(_HEADER) or {}
            if header.get("version") != CHECKPOINT_VERSION:
                raise RegistryError(
                    f"header version is {header.get('version')!r}"
                )
        except (OSError, RegistryError) as exc:
            raise CheckpointError(
                f"checkpoint {path!r} is not a readable version "
                f"{CHECKPOINT_VERSION} cell journal: {exc}"
            ) from exc
        if header.get("identity") != identity:
            raise CheckpointError(
                f"checkpoint {path!r} belongs to sweep "
                f"{header.get('identity')!r}, not {identity!r}"
            )
        for record in self._store.all():
            if record is not header and not isinstance(record.get("payload"), dict):
                raise CheckpointError(
                    f"checkpoint {path!r}: line for cell {record[_KEY]!r} is "
                    "not a result record"
                )

    @classmethod
    def load(cls, path: str, identity: str) -> "SweepCheckpoint":
        """Load an existing checkpoint; typed errors on any corruption."""
        return cls(path, identity, resume=True)

    def compact(self) -> None:
        """Rewrite the journal in canonical form: header, cells by key.

        Run once when a sweep ends, so a serial run, a ``--jobs N`` run
        and a killed-then-resumed run leave byte-identical checkpoints.
        """
        with _writing(self.path):
            self._store.compact()

    # -- cells -----------------------------------------------------------------

    def __contains__(self, key: str) -> bool:
        return "payload" in (self._store.get(key) or ())

    def record_payload(
        self, key: str, payload: Dict[str, object], durable: bool = True
    ) -> None:
        """Record one finished cell's raw JSON payload: one durable append.

        The cell engine moves results as jsonable dicts (they cross the
        result pipe under ``--jobs N``); recording them verbatim keeps a
        parallel run's checkpoint byte-identical to a serial run's.
        ``durable=False`` only notes a cell whose worker has already
        appended it (:func:`append_cell`).
        """
        with _writing(self.path):
            self._store.set({_KEY: key, "payload": payload}, durable=durable)

    def payload(self, key: str) -> Dict[str, object]:
        """One cell's raw JSON payload; typed error when absent."""
        record = self._store.get(key) or {}
        if "payload" not in record:
            raise CheckpointError(f"checkpoint has no cell {key!r}")
        return record["payload"]  # type: ignore[return-value]
