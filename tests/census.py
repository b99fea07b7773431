"""Which executable lines of ``src/`` a process runs (CPython 3.12).

The collector listens for ``sys.monitoring`` LINE events under the
coverage tool id: the first time a line runs it records the line and
returns ``DISABLE``, so a line costs one callback per process.  Forked
children (the pool's workers) start with an empty set and write what they
ran to a file before they exit, and ``hits()`` merges those files in.

A line of ``src/**/*.py`` is executable if some bytecode instruction other
than the frame set-up ones (``RESUME``, ``RETURN_GENERATOR``,
``COPY_FREE_VARS``, ``MAKE_CELL``) sits on it; the body of an
``if TYPE_CHECKING:`` block is not.  A line is keyed by its file (relative
to ``src/repro``), the qualname of the code object it runs in and its
stripped text, so an edit elsewhere in the file does not move the key.
A line counts as run when any code on it ran (a lambda's body on the line
that creates it counts as run with it); its key names the outermost code
object with an instruction on it.

``conftest.py`` at the repository root starts the collector before
anything imports ``repro``, and checks the result against
``census_unrun.txt`` at the end of a full tier-1 run.
"""

from __future__ import annotations

import ast
import atexit
import collections
import dis
import os
import sys
import tempfile
import types
from typing import Counter, Dict, Iterator, List, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "repro")
LIST = os.path.join(ROOT, "tests", "census_unrun.txt")
KINDS = ("paper-only", "fresh-interpreter", "defensive")
_SETUP_OPS = frozenset({"RESUME", "RETURN_GENERATOR", "COPY_FREE_VARS", "MAKE_CELL"})

#: A line's key: (file under src/repro, qualname, stripped source text).
Key = Tuple[str, str, str]
Site = Tuple[str, int]  # (absolute file, line number)

_hits: Set[Site] = set()
_spool = ""
_owner = 0


def supported() -> bool:
    """The census's line numbers are CPython 3.12's bytecode."""
    return sys.version_info[:2] == (3, 12)


def _on_line(code: types.CodeType, line: int) -> object:
    if code.co_filename.startswith(PACKAGE):
        _hits.add((code.co_filename, line))
    return sys.monitoring.DISABLE


def _write_spool() -> None:
    if _hits and os.getpid() != _owner:
        with open(os.path.join(_spool, f"{os.getpid()}.hits"), "w") as out:
            out.writelines(f"{path}\t{line}\n" for path, line in _hits)
        _hits.clear()


def _in_child() -> None:
    _hits.clear()
    real_exit = os._exit

    def _exit(status: int) -> None:
        _write_spool()
        real_exit(status)

    os._exit = _exit


def start() -> None:
    """Record every line that runs from now on, in this process and forks."""
    global _spool, _owner
    mon = sys.monitoring
    mon.use_tool_id(mon.COVERAGE_ID, "census")
    mon.register_callback(mon.COVERAGE_ID, mon.events.LINE, _on_line)
    mon.set_events(mon.COVERAGE_ID, mon.events.LINE)
    _spool = tempfile.mkdtemp(prefix="census-")
    _owner = os.getpid()
    os.register_at_fork(after_in_child=_in_child)
    atexit.register(_write_spool)


def spool() -> str:
    """The folder the forks write their lines to."""
    return _spool


def hits() -> Set[Site]:
    """What this process and its finished forks ran."""
    for name in os.listdir(_spool):
        with open(os.path.join(_spool, name)) as spool:
            for row in spool:
                path, line = row.rstrip("\n").split("\t")
                _hits.add((path, int(line)))
    return _hits


def _type_checking_lines(tree: ast.Module) -> Set[int]:
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.If) and isinstance(node.test, ast.Name)
                and node.test.id == "TYPE_CHECKING"):
            for stmt in node.body:
                lines.update(range(stmt.lineno, stmt.end_lineno + 1))
    return lines


def _code_objects(code: types.CodeType) -> Iterator[types.CodeType]:
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            yield from _code_objects(const)


def executable() -> Dict[Site, Key]:
    """Every executable line of ``src/repro`` and its key."""
    sites: Dict[Site, Key] = {}
    for folder, _dirs, files in os.walk(PACKAGE):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(folder, name)
            with open(path) as handle:
                source = handle.read()
            text = source.splitlines()
            skipped = _type_checking_lines(ast.parse(source))
            relative = os.path.relpath(path, PACKAGE)
            for code in _code_objects(compile(source, path, "exec")):
                for instr in dis.get_instructions(code):
                    line = instr.positions.lineno if instr.positions else None
                    if line is None or line in skipped or instr.opname in _SETUP_OPS:
                        continue
                    sites.setdefault((path, line), (
                        relative, code.co_qualname, text[line - 1].strip()))
    return sites


def unrun() -> Counter[Key]:
    """The keys of the executable lines nothing has run (a key may repeat)."""
    ran = hits()
    return collections.Counter(key for site, key in executable().items() if site not in ran)


def format_entry(key: Key, reason: str) -> str:
    return f"{key[0]}::{key[1]} | {key[2]} | {reason}"


def read_list(path: str = LIST) -> Tuple[Counter[Key], Dict[Key, str], List[str]]:
    """The listed keys, each key's reason, and the entries whose reason is
    not one of ``KINDS``."""
    listed: Counter[Key] = collections.Counter()
    reasons: Dict[Key, str] = {}
    bad = []
    with open(path) as handle:
        for row in handle:
            row = row.rstrip("\n")
            if not row or row.startswith("#"):
                continue
            where, rest = row.split(" | ", 1)
            text, reason = rest.rsplit(" | ", 1)
            relative, qualname = where.split("::", 1)
            listed[(relative, qualname, text)] += 1
            reasons[(relative, qualname, text)] = reason
            if reason.split(":", 1)[0] not in KINDS or ": " not in reason:
                bad.append(row)
    return listed, reasons, bad


def compare(unran: Counter[Key], listed: Counter[Key], reasons: Dict[Key, str]) -> List[str]:
    """One message per disagreement between what did not run and the list."""
    problems = []
    for key in sorted((unran - listed).elements()):
        problems.append("newly unrun, run it, delete it or add it with a reason: "
                        + format_entry(key, "<kind>: <reason>"))
    for key in sorted((listed - unran).elements()):
        problems.append("listed but runs now, take it off the list: "
                        + format_entry(key, reasons[key]))
    return problems
