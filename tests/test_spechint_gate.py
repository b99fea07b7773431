"""The speculation gate against the classes and decision orders it replaced.

``tests/spec_gate_reference.py`` keeps the watchdog, the throttle and the
isolation quarantine as they were, with the runtime's three decision orders
over them.  A random run of reads, restarts, faults, cancels, violations
and the array going degraded or healthy goes through both; after every
step the gate must have made the same decision and hold the same park and
trip reasons, counters and audit records.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.spechint.gate import SpeculationGate
from tests.spec_gate_reference import Built, ReferenceGate

#: Each trigger is off (0) often enough for the other reasons to show.
PARAMS = st.fixed_dictionaries({
    "watchdog_restart_limit": st.sampled_from([0, 0, 3, 6]),
    "watchdog_fault_limit": st.sampled_from([0, 0, 0, 3]),
    "watchdog_min_accuracy": st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0]),
    "watchdog_accuracy_window": st.integers(0, 6),
    "throttle_cancel_limit": st.integers(0, 3),
    "throttle_disable_reads": st.integers(0, 4),
})

READS = st.tuples(st.just("reads"), st.booleans(),
                  st.sampled_from([1, 1, 1, 2, 3, 63, 64, 128]))
#: A read run of 64 / 128 reaches the end of a first / second quarantine.
STEPS = st.lists(st.one_of(
    READS,
    READS,
    st.tuples(st.just("restart")),
    st.tuples(st.just("fault")),
    st.tuples(st.just("cancel"), st.integers(0, 3)),
    st.tuples(st.just("cancel"), st.integers(1, 3)),
    st.tuples(st.just("violation")),
    st.tuples(st.just("array")),
    st.tuples(st.just("array")),
), max_size=60)


class Driven:
    """One gate, the array state it reads and the checks it ran."""

    def __init__(self, gate_class, params):
        self.built = Built(gate_class, **params)
        self.degraded = False
        self.checks = 0

    def step(self, step):
        gate = self.built.gate
        kind = step[0]
        if kind == "reads":
            def check():
                self.checks += 1
                return step[1]
            return gate.on_read(self.degraded, check)
        if kind == "restart":
            return gate.on_restart()
        if kind == "fault":
            return gate.on_fault()
        if kind == "cancel":
            return gate.on_cancel(step[1])
        if kind == "violation":
            return gate.on_violation(f"violation {self.built.stats.get('spec.quarantines')}")
        self.degraded = not self.degraded  # a disk died, or its rebuild ended
        return None

    def observe(self, decision):
        built = self.built
        return {
            "decision": decision,
            "trip_reason": built.gate.trip_reason,
            "closed": built.gate.closed,
            "trips": list(built.trips),
            "checks": self.checks,
            "counters": built.stats.snapshot(),
            "audit": [(r.kind, r.detail) for r in built.table.records()],
        }


def _params(**changes):
    """All triggers off but ``changes``."""
    return {**dict.fromkeys(
        ("watchdog_restart_limit", "watchdog_fault_limit",
         "watchdog_accuracy_window", "throttle_cancel_limit"), 0),
        "watchdog_min_accuracy": 0.0, "throttle_disable_reads": 0, **changes}


@settings(max_examples=400, deadline=None)
@given(params=PARAMS, steps=STEPS)
# The first trip reason sticks.
@example(params=_params(watchdog_restart_limit=1, watchdog_fault_limit=1),
         steps=[("restart",), ("fault",)])
# A quarantine does not count down while speculation is suspended.
@example(params=_params(),
         steps=[("violation",), ("array",), ("reads", False, 64), ("array",),
                ("reads", False, 1)])
# The throttle window counts down on off-track reads only.
@example(params=_params(throttle_cancel_limit=1, throttle_disable_reads=2),
         steps=[("cancel", 1), ("reads", True, 2), ("reads", False, 3)])
# Park precedence: tripped, then quarantined, then degraded.
@example(params=_params(watchdog_restart_limit=1),
         steps=[("array",), ("reads", True, 1), ("violation",), ("restart",),
                ("array",), ("reads", True, 64), ("restart",), ("violation",),
                ("restart",)])
def test_the_gate_decides_as_the_classes_it_replaced(params, steps):
    gate = Driven(SpeculationGate, params)
    reference = Driven(ReferenceGate, params)
    for index, step in enumerate(steps):
        for _ in range(step[2] if step[0] == "reads" else 1):
            real = gate.observe(gate.step(step))
            expected = reference.observe(reference.step(step))
            assert real == expected, (index, step)
