"""Every metric name has a writer and a reader.

``sim/metrics.py`` names every counter and distribution the simulator
keeps.  This test walks its constants and the Python files under ``src/``,
``tests/`` and ``benchmarks/`` (but ``metrics.py`` and this file), and
sorts each mention of a name -- its constant (``metrics.SPEC_RESTARTS``, or
an imported ``SPEC_RESTARTS``) or, for a full dotted name, its string
(``"spec.restarts"``) -- into a *write* or a *read*:

* a write is a mention inside a name argument of a ``WRITERS`` call: the
  stat registry's two write paths, ``bump`` and ``distribution`` (a
  distribution is created there and then observed), and the one helper
  that passes names on to ``bump``;
* a read is every other mention, and also a name that starts with one of
  ``RunResult.FAULT_PREFIXES``, since ``RunResult.fault_events`` reads
  those by prefix.

A name needs a writer in ``src/`` and a reader somewhere.  A name whose
only readers are tests or benchmarks must be listed in
``READ_ONLY_BY_TESTS``; that list may only shrink, so a listed name that
gains a reader in ``src/`` fails here until it is taken off the list.
"""

import ast
import os
from typing import Dict, List, Set, Tuple

import pytest

from repro.harness.results import RunResult
from repro.sim import metrics

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
METRICS = os.path.join(ROOT, "src", "repro", "sim", "metrics.py")
SCANNED = ("src", "tests", "benchmarks")

#: Calls that write the names they are given: method name -> the
#: positions of its name arguments.  ``StripedArray._count(name, disk_id,
#: suffix)`` bumps ``name`` and the disk's ``disk<N>.<suffix>`` twin.
WRITERS = {"bump": (0,), "distribution": (0,), "_count": (0, 2)}

#: Names with no reader in ``src/``: only a test or a benchmark reads them.
READ_ONLY_BY_TESTS = frozenset({
    "app.hint_calls",
    "app.hint_calls_unresolvable",
    "app.open_calls",
    "app.read_stalls",
    "array.completed",
    "array.prefetches_held",
    "cache.demand_joins_inflight",
    "cache.demand_misses",
    "cache.overcommitted_inserts",
    "cache.prefetch_denied_no_room",
    "kernel.context_switches",
    "kernel.runs",
    "spec.cancel_drain_verified",
    "spec.cow_regions_copied",
    "spec.restart_requests",
    "spec.throttle_suppressed",
    "tip.cancel_drained",
    "tip.hint_calls",
    "tip.hinted_blocks",
    "tip.hinted_evictions",
    "tip.hints_ignored",
    "tip.prefetches_issued",
})


def metric_names() -> Dict[str, str]:
    """``{constant: value}`` for every name ``sim/metrics.py`` defines."""
    with open(METRICS) as handle:
        tree = ast.parse(handle.read())
    return {
        node.targets[0].id: node.value.value
        for node in tree.body
        if isinstance(node, ast.Assign) and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
        and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)
    }


def _python_files():
    skip = {METRICS, os.path.abspath(__file__)}
    for top in SCANNED:
        for folder, _, files in os.walk(os.path.join(ROOT, top)):
            for name in sorted(files):
                path = os.path.join(folder, name)
                if name.endswith(".py") and path not in skip:
                    yield top, path


def _write_positions(tree: ast.AST) -> Set[int]:
    """Ids of the nodes inside a name argument of a ``WRITERS`` call."""
    inside: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            for position in WRITERS.get(node.func.attr, ()):
                if position < len(node.args):
                    inside.update(id(sub) for sub in ast.walk(node.args[position]))
    return inside


def mentions() -> Dict[str, Dict[Tuple[str, str], List[str]]]:
    """Per metric value, ``{(top, "read"|"write"): [file:line, ...]}``."""
    names = metric_names()
    by_value = {value: value for value in names.values() if "." in value}
    found: Dict[str, Dict[Tuple[str, str], List[str]]] = {
        value: {} for value in names.values()}
    for top, path in _python_files():
        with open(path) as handle:
            tree = ast.parse(handle.read(), path)
        writes = _write_positions(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in names:
                value = names[node.attr]
            elif isinstance(node, ast.Name) and node.id in names:
                value = names[node.id]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                value = by_value.get(node.value)
                if value is None:
                    continue
            else:
                continue
            kind = "write" if id(node) in writes else "read"
            where = f"{os.path.relpath(path, ROOT)}:{node.lineno}"
            found[value].setdefault((top, kind), []).append(where)
    for value in found:
        if value.startswith(RunResult.FAULT_PREFIXES):
            found[value].setdefault(("src", "read"), []).append(
                "RunResult.fault_events (prefix)")
    return found


@pytest.fixture(scope="module")
def found():
    return mentions()


def test_the_constants_are_the_module():
    """The AST walk sees every name the module exports."""
    exported = {name: getattr(metrics, name) for name in dir(metrics)
                if name.isupper()}
    assert metric_names() == exported


def test_every_name_has_a_writer_in_src(found):
    unwritten = sorted(value for value, seen in found.items()
                       if ("src", "write") not in seen)
    assert not unwritten, f"metric names nothing in src/ writes: {unwritten}"


def test_every_name_has_a_reader(found):
    unread = sorted(value for value, seen in found.items()
                    if not any(kind == "read" for _, kind in seen))
    assert not unread, f"metric names read nowhere but their own write sites: {unread}"


def test_names_read_only_by_tests_are_listed(found):
    test_only = {value for value, seen in found.items()
                 if ("src", "read") not in seen
                 and any(kind == "read" for _, kind in seen)}
    unlisted = sorted(test_only - READ_ONLY_BY_TESTS)
    assert not unlisted, \
        f"metric names only tests or benchmarks read, not listed: {unlisted}"


def test_the_test_only_list_may_only_shrink(found):
    stale = sorted(value for value in READ_ONLY_BY_TESTS
                   if value not in found or ("src", "read") in found[value])
    assert not stale, \
        f"listed names that are gone or now have a reader in src/: {stale}"
