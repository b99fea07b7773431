"""Crash-safe persistent stores for the run registry.

Two interchangeable backends behind one tiny interface:

* :class:`SqliteStore` — the default (``.db``/``.sqlite`` paths, and any
  extension that is not ``.jsonl``).  One table keyed by ``run_id`` with
  indexed identity columns for queries; SQLite's own journal provides
  crash atomicity.
* :class:`JsonlStore` — an append-only ledger of one canonical JSON line
  per record (``.jsonl`` paths), for environments without ``sqlite3``
  and for tests that assert byte-identity of whole registries.  Appends
  are fsynced; a torn final line (power-loss mid-append) is ignored on
  load and healed by the next :meth:`~JsonlStore.compact`.

Both stores deduplicate by ``run_id``: recording the same content twice
is a no-op, which is what makes resume-replays idempotent.

No imports from :mod:`repro.harness` — the harness imports this package
while its own package init is still running, so the registry must stay a
leaf (stdlib + ``repro.errors`` + sibling registry modules only).
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Dict, List, Optional, Tuple

from repro.errors import RegistryError, UnknownRunError
from repro.registry.fingerprint import canonical_json
from repro.registry.record import GROUP_KINDS, RunRecord, group_key

try:  # pragma: no cover - exercised only where sqlite3 is absent
    import sqlite3
except ImportError:  # pragma: no cover
    sqlite3 = None  # type: ignore[assignment]

_SQLITE_MAGIC = b"SQLite format 3"


def _fsync_directory(directory: str) -> None:
    """Best-effort directory fsync so a rename/append survives a kill."""
    flags = os.O_RDONLY | getattr(os, "O_DIRECTORY", 0)
    try:
        fd = os.open(directory or ".", flags)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _atomic_write_text(path: str, text: str) -> None:
    """Atomic, durable whole-file replace (same discipline as checkpoints)."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".registry-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        with _suppress_oserror():
            os.unlink(tmp)
        raise
    _fsync_directory(directory)


class _suppress_oserror:
    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        return exc_type is not None and issubclass(exc_type, OSError)  # type: ignore[arg-type]


class JsonlStore:
    """Append-only JSONL ledger, one canonical record line per run."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._records: Dict[str, Dict[str, object]] = {}
        self._load()

    def _load(self) -> None:
        if not os.path.exists(self.path):
            return
        with open(self.path, "rb") as handle:
            raw = handle.read()
        if raw.startswith(_SQLITE_MAGIC):
            raise RegistryError(
                f"registry {self.path!r} is a SQLite database but was opened "
                "as JSONL (is sqlite3 missing from this interpreter?)"
            )
        lines = raw.decode("utf-8", errors="replace").splitlines()
        for index, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except ValueError:
                if index == len(lines) - 1:
                    # Torn final append (crash mid-write): ignore; the next
                    # compact() rewrites the file without it.
                    continue
                raise RegistryError(
                    f"registry {self.path!r} line {index + 1} is not JSON "
                    "(corrupt ledger; only the *final* line may be torn)"
                )
            run_id = str(data.get("run_id", ""))
            if run_id:
                self._records[run_id] = data

    def put(self, data: Dict[str, object], durable: bool = True) -> bool:
        """Add a record; returns False on content-addressed dedup.

        With ``durable=False`` the record lands in memory only and is
        persisted by the next :meth:`compact` (one atomic rename instead
        of one fsync per record) — the bulk path for recording a finished
        sweep, whose payloads already survive in the checkpoint.
        """
        run_id = str(data["run_id"])
        if run_id in self._records:
            return False
        self._records[run_id] = data
        if durable:
            line = canonical_json(data) + "\n"
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(line)
                handle.flush()
                os.fsync(handle.fileno())
        return True

    def get(self, run_id: str) -> Optional[Dict[str, object]]:
        return self._records.get(run_id)

    def ids(self) -> List[str]:
        return sorted(self._records)

    def all(self) -> List[Dict[str, object]]:
        return [self._records[run_id] for run_id in self.ids()]

    def delete(self, run_id: str) -> bool:
        if run_id not in self._records:
            return False
        del self._records[run_id]
        self.compact()
        return True

    def compact(self) -> None:
        """Rewrite the ledger as one canonical line per record, sorted.

        Sorting by content-addressed ``run_id`` is what erases insertion
        -order noise: a serial sweep and a parallel sweep arrive at the
        same set of records in different orders, and compaction folds
        both into identical bytes.
        """
        text = "".join(
            canonical_json(self._records[run_id]) + "\n" for run_id in self.ids()
        )
        _atomic_write_text(self.path, text)

    def close(self) -> None:
        return None


class SqliteStore:
    """SQLite-backed store: one ``runs`` table plus identity indexes."""

    _SCHEMA = """
    CREATE TABLE IF NOT EXISTS runs (
        run_id TEXT PRIMARY KEY,
        app TEXT NOT NULL,
        variant TEXT NOT NULL,
        kind TEXT NOT NULL,
        params_digest TEXT NOT NULL,
        seed INTEGER NOT NULL,
        chaos_profile TEXT NOT NULL,
        code_version TEXT NOT NULL,
        parent_id TEXT,
        record TEXT NOT NULL
    );
    CREATE INDEX IF NOT EXISTS runs_identity
        ON runs (app, variant, kind, chaos_profile, params_digest);
    CREATE INDEX IF NOT EXISTS runs_parent ON runs (parent_id);
    """

    def __init__(self, path: str) -> None:
        if sqlite3 is None:  # pragma: no cover
            raise RegistryError(
                "sqlite3 is unavailable in this interpreter; use a .jsonl "
                "registry path for the append-log backend"
            )
        self.path = path
        try:
            self._conn = sqlite3.connect(path)
            self._conn.executescript(self._SCHEMA)
            self._conn.commit()
        except sqlite3.DatabaseError as exc:
            raise RegistryError(
                f"registry {path!r} is not a readable SQLite database: {exc}"
            ) from exc

    def put(self, data: Dict[str, object], durable: bool = True) -> bool:
        cursor = self._conn.execute(
            "INSERT OR IGNORE INTO runs (run_id, app, variant, kind, "
            "params_digest, seed, chaos_profile, code_version, parent_id, "
            "record) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                data["run_id"],
                data.get("app", ""),
                data.get("variant", ""),
                data.get("kind", "run"),
                data.get("params_digest", ""),
                data.get("seed", 0),
                data.get("chaos_profile", "none"),
                data.get("code_version", ""),
                data.get("parent_id"),
                canonical_json(data),
            ),
        )
        if durable:
            self._conn.commit()
        return cursor.rowcount > 0

    def get(self, run_id: str) -> Optional[Dict[str, object]]:
        row = self._conn.execute(
            "SELECT record FROM runs WHERE run_id = ?", (run_id,)
        ).fetchone()
        return json.loads(row[0]) if row else None

    def ids(self) -> List[str]:
        rows = self._conn.execute("SELECT run_id FROM runs ORDER BY run_id")
        return [row[0] for row in rows]

    def all(self) -> List[Dict[str, object]]:
        rows = self._conn.execute("SELECT record FROM runs ORDER BY run_id")
        return [json.loads(row[0]) for row in rows]

    def delete(self, run_id: str) -> bool:
        cursor = self._conn.execute(
            "DELETE FROM runs WHERE run_id = ?", (run_id,)
        )
        self._conn.commit()
        return cursor.rowcount > 0

    def compact(self) -> None:
        self._conn.commit()

    def close(self) -> None:
        self._conn.close()


def open_store(path: str):
    """Pick a backend by extension: ``.jsonl`` → append log, else SQLite.

    Falls back to the JSONL backend when ``sqlite3`` is missing (the
    ledger then lives at the same path in JSONL form; an existing SQLite
    file in that situation raises instead of being misread).
    """
    if path.endswith(".jsonl") or sqlite3 is None:
        return JsonlStore(path)
    return SqliteStore(path)


class RunRegistry:
    """Facade over a store: typed records, queries, lineage, gc."""

    def __init__(self, store) -> None:
        self.store = store

    @classmethod
    def open(cls, path: str) -> "RunRegistry":
        return cls(open_store(path))

    @property
    def path(self) -> str:
        return self.store.path

    def close(self) -> None:
        self.store.close()

    # -- writing -----------------------------------------------------------

    def record(self, record: RunRecord, durable: bool = True) -> str:
        """Store a record (idempotent); returns its run id.

        ``durable=False`` defers persistence to the next :meth:`compact`
        — the bulk path (see :meth:`JsonlStore.put`).
        """
        self.store.put(record.to_jsonable(), durable=durable)
        return record.run_id

    def record_jsonable(self, data: Dict[str, object]) -> str:
        """Store a serialized record after validating it round-trips."""
        record = RunRecord.from_jsonable(data)
        return self.record(record)

    def compact(self) -> None:
        self.store.compact()

    # -- reading -----------------------------------------------------------

    def get(self, run_id: str) -> RunRecord:
        data = self.store.get(run_id)
        if data is None:
            raise UnknownRunError(f"no registry record with run id {run_id!r}")
        return RunRecord.from_jsonable(data)

    def find(self, prefix: str) -> RunRecord:
        """Resolve a unique run-id prefix; ambiguity is an error."""
        matches = [run_id for run_id in self.store.ids() if run_id.startswith(prefix)]
        if not matches:
            raise UnknownRunError(
                f"no registry record matches run id prefix {prefix!r}"
            )
        if len(matches) > 1:
            shown = ", ".join(matches[:4])
            raise UnknownRunError(
                f"run id prefix {prefix!r} is ambiguous ({len(matches)} "
                f"matches: {shown}{'...' if len(matches) > 4 else ''})"
            )
        return self.get(matches[0])

    def records(self) -> List[RunRecord]:
        return [RunRecord.from_jsonable(data) for data in self.store.all()]

    def query(
        self,
        app: Optional[str] = None,
        variant: Optional[str] = None,
        kind: Optional[str] = None,
        chaos_profile: Optional[str] = None,
        params_digest: Optional[str] = None,
        seed: Optional[int] = None,
        parent_id: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[RunRecord]:
        """Filter records by identity columns (sorted by run id)."""
        out: List[RunRecord] = []
        for record in self.records():
            if app is not None and record.app != app:
                continue
            if variant is not None and record.variant != variant:
                continue
            if kind is not None and record.kind != kind:
                continue
            if chaos_profile is not None and record.chaos_profile != chaos_profile:
                continue
            if params_digest is not None and record.params_digest != params_digest:
                continue
            if seed is not None and record.seed != seed:
                continue
            if parent_id is not None and record.parent_id != parent_id:
                continue
            out.append(record)
            if limit is not None and len(out) >= limit:
                break
        return out

    # -- lineage -----------------------------------------------------------

    def children(self, run_id: str) -> List[RunRecord]:
        return self.query(parent_id=run_id)

    def ancestors(self, run_id: str) -> List[RunRecord]:
        """Parent chain, nearest first; tolerates a pruned parent."""
        chain: List[RunRecord] = []
        seen = {run_id}
        current = self.get(run_id)
        while current.parent_id and current.parent_id not in seen:
            data = self.store.get(current.parent_id)
            if data is None:
                break
            current = RunRecord.from_jsonable(data)
            seen.add(current.run_id)
            chain.append(current)
        return chain

    def lineage(self, run_id: str) -> Dict[str, object]:
        """Jsonable lineage view: ancestors, the run, its descendants."""
        record = self.find(run_id)

        def _tree(node: RunRecord) -> Dict[str, object]:
            return {
                "run_id": node.run_id,
                "kind": node.kind,
                "app": node.app,
                "variant": node.variant,
                "cell_key": node.cell_key,
                "children": [_tree(child) for child in self.children(node.run_id)],
            }

        return {
            "run_id": record.run_id,
            "ancestors": [
                {"run_id": a.run_id, "kind": a.kind, "cell_key": a.cell_key}
                for a in self.ancestors(record.run_id)
            ],
            "tree": _tree(record),
        }

    # -- garbage collection ------------------------------------------------

    def gc(self, keep: int, dry_run: bool = False) -> List[str]:
        """Prune leaf records beyond ``keep`` per population group.

        Within each :func:`group_key` population the ``keep``
        lexicographically-greatest run ids survive (content-addressed ids
        carry no time order, so any deterministic rule is as good as
        another; this one is stable across stores).  Descendants of
        pruned records and group records left with no children are
        pruned too.  Returns the pruned ids, sorted.
        """
        if keep < 1:
            raise RegistryError(f"gc keep must be >= 1, got {keep}")
        records = self.records()
        by_group: Dict[Tuple[str, str, str, str, str], List[RunRecord]] = {}
        for record in records:
            if record.kind in GROUP_KINDS:
                continue
            by_group.setdefault(group_key(record), []).append(record)
        doomed = set()
        for members in by_group.values():
            members.sort(key=lambda r: r.run_id, reverse=True)
            doomed.update(r.run_id for r in members[keep:])
        # Cascade: descendants of pruned records go too.
        parent_of = {r.run_id: r.parent_id for r in records}
        changed = True
        while changed:
            changed = False
            for run_id, parent in parent_of.items():
                if run_id not in doomed and parent in doomed:
                    doomed.add(run_id)
                    changed = True
        # Group records whose every child was pruned follow their children.
        for record in records:
            if record.kind not in GROUP_KINDS or record.run_id in doomed:
                continue
            child_ids = [r.run_id for r in records if r.parent_id == record.run_id]
            if child_ids and all(c in doomed for c in child_ids):
                doomed.add(record.run_id)
        pruned = sorted(doomed)
        if not dry_run:
            for run_id in pruned:
                self.store.delete(run_id)
            self.compact()
        return pruned
