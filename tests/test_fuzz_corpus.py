"""Replay every committed fuzz reproducer; all must be green on main.

``tests/corpus/`` holds minimal fault schedules that once tripped an
invariant monitor (each file's ``note`` says which planted bug found
it).  On a healthy tree they replay clean — a red replay here means a
regression reintroduced the class of bug the reproducer documents.
``repro fuzz replay FILE`` runs the same check from the command line.
"""

from __future__ import annotations

import glob
import os

import pytest

from repro.faults.shrink import Reproducer
from repro.harness.fuzz import run_fuzz_case

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
CORPUS = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.json")))


def test_corpus_is_seeded():
    assert len(CORPUS) >= 2, (
        "tests/corpus/ must hold at least two shrunk reproducers"
    )


@pytest.mark.parametrize(
    "path", CORPUS, ids=[os.path.basename(p) for p in CORPUS]
)
def test_corpus_entry_replays_green(path):
    reproducer = Reproducer.load(path)
    assert reproducer.monitor, f"{path} lost its monitor name"
    assert reproducer.note, f"{path} must document the bug that found it"
    result = run_fuzz_case(
        reproducer.case, workload_scale=reproducer.workload_scale
    )
    assert result.passed, (
        f"{os.path.basename(path)} replayed RED: "
        + "; ".join(str(v) for v in result.violations)
    )


def test_forged_restart_entry_replays_red_under_its_planted_bug(monkeypatch):
    """The audit-chain reproducer's planted bug — a forger that rewrites
    restart records after they were chained — must still turn it red: a
    record whose content is no longer what was written is re-hashed."""
    from repro.spechint.auditor import AuditTable

    real_record = AuditTable.record

    def forging_record(self, kind, detail=""):
        entry = real_record(self, kind, detail)
        if kind == "restart":
            entry.detail += " (rewritten)"
        return entry

    monkeypatch.setattr(AuditTable, "record", forging_record)
    reproducer = Reproducer.load(os.path.join(CORPUS_DIR, "audit-chain-forged-restart.json"))
    result = run_fuzz_case(reproducer.case, workload_scale=reproducer.workload_scale)
    assert not result.passed
    assert reproducer.monitor in {v.monitor for v in result.violations}
