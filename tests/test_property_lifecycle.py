"""Differential property test of the packed hint-lifecycle ledger.

``HintLifecycle`` keeps an open hint as a ``HintRecord`` and packs a
retained one into a row when it ends.  The reference model
(``tests/lifecycle_reference.py``) keeps every retained hint's record object
for the whole run.  Any interleaving of disclosures, prefetch issues, fills
and drops, the three terminal states and an end-of-run finalize must give
both the same counts, per-process open hints, lead times, readiness tally
and records — checked after *every* step, so a divergence is reported
where it starts.

The capacity is tiny on purpose, so hints on both sides of it are open and
ended in every order; the keys come from a small set, so several open hints
share a block.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.clock import SimClock
from repro.trace.lifecycle import HintLifecycle
from tests.lifecycle_reference import ReferenceHintLifecycle

PIDS = (1, 2)
KEYS = st.tuples(st.integers(0, 2), st.integers(0, 3))
STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("disclose"), st.lists(KEYS, min_size=1, max_size=4),
                  st.sampled_from(PIDS), st.integers(0, 2)),
        st.tuples(st.sampled_from(["issue", "fill", "drop"]), KEYS),
        st.tuples(st.sampled_from(["consume", "cancel"]), st.integers(0, 31)),
        st.tuples(st.just("waste"), st.integers(0, 31),
                  st.sampled_from(["stale", "unconsumed"])),
        st.tuples(st.just("advance"), st.integers(1, 40)),
        st.tuples(st.just("finalize")),
    ),
    max_size=60,
)


def _state(ledger):
    return {
        "counts": ledger.summary_counts(),
        "open_for": [ledger.open_for(pid) for pid in PIDS],
        "lead_times": list(ledger.lead_times.values),
        "ready": ledger.ready_before_demand,
        "records": [(record.to_jsonable(), record.lead_cycles,
                     record.ready_before_demand)
                    for record in ledger.records()],
        "keys": ledger.disclosed_keys(),
    }


@given(capacity=st.integers(0, 6), steps=STEPS)
@settings(max_examples=300, deadline=None)
def test_packed_ledger_matches_object_ledger(capacity, steps):
    clock = SimClock()
    ledgers = {
        "packed": HintLifecycle(clock, capacity=capacity),
        "reference": ReferenceHintLifecycle(clock, capacity=capacity),
    }
    open_hints = []  # (seq, pid), disclosure order
    next_seq = 1
    for step in steps:
        op = step[0]
        if op == "disclose":
            _, keys, pid, gap = step
            next_seq += gap  # the manager skips seqs for unhinted reads
            for ledger in ledgers.values():
                ledger.disclosed(next_seq, keys, pid)
            open_hints.extend((next_seq + i, pid) for i in range(len(keys)))
            next_seq += len(keys)
        elif op in ("issue", "fill", "drop"):
            for ledger in ledgers.values():
                {"issue": ledger.prefetch_issued, "fill": ledger.filled,
                 "drop": ledger.prefetch_dropped}[op](step[1])
        elif op == "advance":
            clock.advance(step[1])
        elif op == "finalize":
            for seq, pid in open_hints:
                for ledger in ledgers.values():
                    ledger.wasted(seq, pid, "unconsumed")
            open_hints.clear()
        elif open_hints:
            seq, pid = open_hints.pop(step[1] % len(open_hints))
            for ledger in ledgers.values():
                if op == "consume":
                    ledger.consumed(seq, pid)
                elif op == "cancel":
                    ledger.cancelled(seq, pid)
                else:
                    ledger.wasted(seq, pid, step[2])
        assert _state(ledgers["packed"]) == _state(ledgers["reference"]), step


@pytest.mark.parametrize("retained", [True, False])
def test_a_second_terminal_state_asserts_past_capacity_too(retained):
    """Ending a hint twice is caught for every seq, retained or not, and
    before the second terminal is counted."""
    cycle = HintLifecycle(SimClock(), capacity=2)
    cycle.disclosed(0, [(1, 0), (1, 1), (1, 2)], 1)
    seq = 1 if retained else 2
    cycle.consumed(seq, 1)
    before = cycle.summary_counts()
    with pytest.raises(AssertionError):
        cycle.cancelled(seq, 1)
    assert cycle.summary_counts() == before
