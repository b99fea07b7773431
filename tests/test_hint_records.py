"""One record per queued hint.

TIP's queue entries are the hint lifecycle ledger's open records: the
manager creates each ``HintRecord``, queues it and indexes it by block key,
and the ledger stamps it and ends it.  These tests pin what that must not
change (every field of ``records()`` and every lead time on four apps),
that a queue entry and the ledger's open record are one object, and that
the ledger cannot perturb a run: with every ledger entry point a no-op, a
speculating run is cycle-, counter- and output-identical.
"""

import hashlib
import json

from repro.harness.config import ExperimentConfig, Variant
from repro.harness.runner import run_experiment_with_system
from repro.params import BLOCK_SIZE
from repro.trace.lifecycle import HintLifecycle
from tests.test_trace import make_tip_with_lifecycle

SCALE = 0.3
CELLS = (
    ("agrep", Variant.SPECULATING),
    ("gnuld", Variant.SPECULATING),
    ("xds", Variant.SPECULATING),
    ("postgres20", Variant.SPECULATING),
    ("gnuld", Variant.MANUAL),
)
#: sha256 over the five cells' ``records()`` and ``lead_times.values``,
#: computed before queue entries and ledger records became one object.
LEDGER_DIGEST = "879bf04c8a75a7da"


def _run(app, variant):
    return run_experiment_with_system(ExperimentConfig(
        app=app, variant=variant, workload_scale=SCALE))


def test_ledger_records_and_lead_times_are_pinned():
    digest = hashlib.sha256()
    for app, variant in CELLS:
        _, system = _run(app, variant)
        lifecycle = system.manager.lifecycle
        dump = {"records": [r.to_jsonable() for r in lifecycle.records()],
                "lead_times": list(lifecycle.lead_times.values)}
        digest.update(json.dumps(dump, sort_keys=True).encode())
    assert digest.hexdigest()[:16] == LEDGER_DIGEST


def test_each_queue_entry_is_the_ledgers_open_record():
    manager, fs, engine = make_tip_with_lifecycle(file_blocks=32)
    inode = fs.lookup("f0")
    manager.disclose(1, inode, 0, 6 * BLOCK_SIZE)
    manager.disclose(2, inode, 2 * BLOCK_SIZE, 3 * BLOCK_SIZE)
    while engine.advance_to_next():
        pass
    manager.consume_hints(1, inode, 0, 0, BLOCK_SIZE)
    ledger = {record.seq: record for record in manager.lifecycle.records()}
    queued = [entry for pid in (1, 2) for entry in manager._procs[pid].queue]
    assert len(queued) == manager.lifecycle.open_total == 8
    for entry in queued:
        assert entry is ledger[entry.seq]
        assert entry.terminal is None
    # The key index lists a block's open records in disclosure order.
    assert [r.pid for r in manager._queued[(inode.ino, 2)]] == [1, 2]


LEDGER_ENTRY_POINTS = ("disclosed", "prefetch_issued", "filled",
                       "prefetch_dropped", "consumed", "cancelled", "wasted")


def test_a_ledger_that_records_nothing_changes_no_run(monkeypatch):
    """The non-perturbation contract: TIP reads none of the fields the
    ledger writes, so stubbing out every ledger call leaves the run as it
    was."""
    result, _ = _run("gnuld", Variant.SPECULATING)
    for name in LEDGER_ENTRY_POINTS:
        monkeypatch.setattr(HintLifecycle, name, lambda *args: None)
    stubbed, system = _run("gnuld", Variant.SPECULATING)
    assert system.manager.lifecycle.disclosed_total == 0  # the stubs took
    assert result.spec_restarts > 0 and result.c("tip.hints_cancelled") > 0
    assert stubbed.cycles == result.cycles
    assert stubbed.counters == result.counters
    assert stubbed.output == result.output
    assert stubbed.read_trace == result.read_trace

