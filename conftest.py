"""The line census of tier-1 (see ``tests/census.py``).

This file sits at the root, not in ``tests/``, because ``tests/conftest.py``
imports ``repro`` at module top and the lines a module runs on import must
count.  On Python 3.12 the collector runs for every session; the list check
runs only when the whole ``tests/`` suite was collected, nothing was
deselected and every test passed.  Anywhere else the session prints one
line saying why the census did not check.  Under the census, hypothesis
runs derandomized: a property test that explored new examples each session
would run a different set of lines each time.
"""

from __future__ import annotations

import glob
import os
import shutil
import sys
from typing import List

import pytest
from hypothesis import settings

from tests import census

if census.supported():
    census.start()
    # The same examples every session, so the census is repeatable (the
    # other interpreters of the matrix keep exploring at random).
    settings.register_profile("census", derandomize=True, database=None)
    settings.load_profile("census")

_state = {"deselected": 0, "partial": "", "verdict": ""}


def pytest_deselected(items: List[object]) -> None:
    _state["deselected"] += len(items)


def pytest_collection_finish(session: pytest.Session) -> None:
    every = {os.path.abspath(path)
             for path in glob.glob(os.path.join(census.ROOT, "tests", "test_*.py"))}
    collected = {str(item.path) for item in session.items}
    if any("::" in arg for arg in session.config.args) or not every <= collected:
        _state["partial"] = "not every test of tests/ was collected"


def _why_not(session: pytest.Session, exitstatus: int) -> str:
    if not census.supported():
        return f"it needs Python 3.12, this is {sys.version.split()[0]}"
    if _state["partial"]:
        return _state["partial"]
    if _state["deselected"]:
        return f"{_state['deselected']} tests were deselected"
    if session.testsfailed or exitstatus != 0:
        return "not every test passed"
    return ""


def pytest_sessionfinish(session: pytest.Session, exitstatus: int) -> None:
    reason = _why_not(session, exitstatus)
    if reason:
        _state["verdict"] = f"line census: not checked ({reason})"
    else:
        listed, reasons, bad = census.read_list()
        problems = census.compare(census.unrun(), listed, reasons)
        problems += [f"entry without a reason of one of {census.KINDS}: {row}" for row in bad]
        if problems:
            session.exitstatus = 1
            _state["verdict"] = "\n".join(["line census FAILED:", *problems])
        else:
            _state["verdict"] = (f"line census: ok ({sum(listed.values())} listed "
                                 f"lines unrun, every other line of src/ ran)")
    if census.supported():
        shutil.rmtree(census.spool(), ignore_errors=True)


def pytest_terminal_summary(terminalreporter: pytest.TerminalReporter) -> None:
    if _state["verdict"]:
        terminalreporter.write_line(_state["verdict"])
