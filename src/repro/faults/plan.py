"""Fault plans: declarative descriptions of what should go wrong.

A :class:`FaultPlan` is a frozen value object naming the fault processes to
run during a simulation — disk error rates, slow/offline windows, hint
channel loss, forced speculation divergence — plus the seed that makes each
of them reproducible.  The :class:`~repro.faults.injector.FaultInjector`
interprets the plan against the simulation clock.

Times are expressed in (simulated) seconds so plans are independent of the
processor frequency; the injector converts them to cycles.

Each field's kind, and the fault axis that owns it, is declared once, in
:data:`AXES`; everything that asks which faults a plan holds reads it.

The built-in :data:`PROFILES` are the chaos modes the harness and the
``--chaos`` CLI flag expose.  Each targets one degradation path:

* ``transient-errors`` — random media errors; demand reads must survive via
  retry-with-backoff, failed prefetches must be dropped silently;
* ``stuck-disk`` — one window during which every disk services requests
  absurdly slowly; per-request timeouts fire, abort, and retry;
* ``offline-disk`` — one disk rejects everything for a window mid-run;
  backoff must ride out the outage;
* ``hint-corruption`` — hints are dropped or rewritten to garbage before
  reaching TIP; hinting degrades toward the unhinted baseline;
* ``restart-storm`` — the original thread is forced to judge speculation
  off track almost every read; the speculation watchdog must eventually
  disable speculation entirely;
* ``disk-death`` — one disk dies permanently mid-run; the parity array
  reconstructs degraded reads from the survivors while the rebuild engine
  resilvers onto a hot spare, and output stays byte-identical;
* ``rebuild-storm`` — an early disk death with an aggressive rebuild
  bandwidth share plus background transient errors; demand traffic,
  reconstruction, and the resilver all contend for the surviving disks;
* ``double-fault`` — a second disk dies before the rebuild can finish;
  the stripe rows are unrecoverable and the run must fail loudly with a
  typed :class:`~repro.errors.DataLossError`, never silently corrupt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.errors import InvalidFaultPlan


#: A plan field's declared type -> the JSON types it accepts, and their name.
_JSON_TYPES: Dict[str, Tuple[Tuple[type, ...], str]] = {
    "str": ((str,), "a string"),
    "int": ((int,), "an integer"),
    # float fields accept ints (JSON writers may emit 0)
    "float": ((int, float), "a number"),
}


@dataclass(frozen=True)
class FaultPlan:
    """Everything that is allowed to go wrong in one run."""

    name: str = "none"

    #: Seed for every fault decision (independent of the system seed, so
    #: the same workload can be replayed under different fault streams).
    seed: int = 7

    # -- disk faults ---------------------------------------------------------

    #: Probability that a disk access completes with a transient error.
    disk_error_rate: float = 0.0

    #: Service-time multiplier applied to accesses *started* inside the
    #: slow window (1.0 = no slowdown).
    slow_factor: float = 1.0
    slow_start_s: float = 0.0
    slow_duration_s: float = 0.0

    #: Disk that goes offline (-1 = none).  While offline the disk rejects
    #: every access after the command overhead (fail-fast).
    offline_disk: int = -1
    offline_start_s: float = 0.0
    offline_duration_s: float = 0.0

    #: Disk that dies *permanently* (-1 = none).  Unlike an offline window
    #: it never comes back: the array must reconstruct its blocks from
    #: parity and resilver onto a hot spare.
    dead_disk: int = -1
    dead_at_s: float = 0.0

    #: A second permanent death (the RAID-5 double fault).  If it lands
    #: before the first rebuild finishes, affected rows are unrecoverable
    #: and the run fails with a typed DataLossError.
    second_dead_disk: int = -1
    second_dead_at_s: float = 0.0

    #: Rebuild bandwidth share override (0 = use the array's default).
    rebuild_share: float = 0.0

    #: Arm a hedged (duplicate reconstruction-path) read this many seconds
    #: after each demand dispatch (0 = hedging off).
    hedge_after_s: float = 0.0

    # -- hint channel faults -------------------------------------------------

    #: Probability a TIPIO_* hint is silently lost before reaching TIP.
    hint_drop_rate: float = 0.0

    #: Probability a hint's (offset, length) is rewritten to garbage.
    hint_corrupt_rate: float = 0.0

    # -- speculation faults --------------------------------------------------

    #: Probability the original thread's hint-log check is forced to judge
    #: speculation off track even when the entry matched (wrong-path
    #: exercise; drives restart storms).
    spec_divergence_rate: float = 0.0

    @property
    def active(self) -> bool:
        """True when the plan can actually inject something: some axis
        that rides on no other is on."""
        return any(axis.on(self, {}) for axis in AXES if axis.rides_on is None)

    @property
    def permanent_death(self) -> bool:
        """True when the plan kills at least one disk for good."""
        return self.dead_disk >= 0

    @property
    def expects_data_loss(self) -> bool:
        """True when the plan is *designed* to lose data (double fault).

        Such plans must end in a typed DataLossError rather than output
        identity — the oracle and benchmarks treat them accordingly.
        """
        return self.dead_disk >= 0 and self.second_dead_disk >= 0

    def with_seed(self, seed: int) -> "FaultPlan":
        """The same plan driven by a different fault seed."""
        return replace(self, seed=seed)

    # -- serialization -------------------------------------------------------
    #
    # Fault plans travel: into fuzz-cell payloads across the supervised
    # worker pool, into shrunk reproducer files under tests/corpus/, and
    # back out of both.  Round-trips must be exact and failures typed —
    # a hand-edited reproducer with a misspelled key dies with an
    # InvalidFaultPlan naming the key, never a KeyError.

    def to_jsonable(self) -> Dict[str, object]:
        """Every field, explicitly — JSON round-trips to an equal plan."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_jsonable(cls, data: object) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_jsonable` output (typed errors)."""
        if not isinstance(data, dict):
            raise InvalidFaultPlan(
                f"fault plan must be a JSON object, got {type(data).__name__}"
            )
        known = {f.name: f for f in fields(cls)}
        unknown = sorted(set(data) - set(known))
        if unknown:
            raise InvalidFaultPlan(
                f"unknown fault plan key(s): {', '.join(unknown)}; "
                f"expected a subset of: {', '.join(sorted(known))}"
            )
        kwargs: Dict[str, object] = {}
        for name, value in data.items():
            json_type = known[name].type
            types, expected = _JSON_TYPES[json_type]
            if isinstance(value, bool) or not isinstance(value, types):
                raise InvalidFaultPlan(
                    f"fault plan key {name!r} must be {expected}, "
                    f"got {type(value).__name__}"
                )
            kwargs[name] = float(value) if json_type == "float" else value
        plan = cls(**kwargs)  # type: ignore[arg-type]
        plan.validate()
        return plan

    def validate(self) -> None:
        """Reject out-of-range values with a typed error."""
        for name, kind in FIELD_KINDS.items():
            value = getattr(self, name)
            if kind.rejects(value):
                raise InvalidFaultPlan(
                    f"fault plan {name}={value!r} {kind.plan_rule}"
                )
        if self.second_dead_disk >= 0 and self.dead_disk < 0:
            raise InvalidFaultPlan(
                "fault plan sets second_dead_disk without dead_disk "
                "(a double fault needs a first fault)"
            )
        if (self.second_dead_disk >= 0
                and self.second_dead_disk == self.dead_disk):
            raise InvalidFaultPlan(
                f"fault plan second_dead_disk={self.second_dead_disk} "
                f"must differ from dead_disk"
            )

    def check_disks(self, ndisks: int) -> None:
        """Reject a disk id the ``ndisks``-disk array lacks (its hot
        spares are not targets: their ids follow the data disks')."""
        for name, kind in FIELD_KINDS.items():
            disk = getattr(self, name)
            if kind is DISK_ID and disk >= ndisks:
                raise InvalidFaultPlan(
                    f"fault plan {name}={disk} names a disk the array "
                    f"lacks: it has {ndisks} disk(s), ids 0..{ndisks - 1}"
                )


# ---------------------------------------------------------------------------
# The fault vocabulary: each plan field and speculation override key is
# declared once, with its kind and the axis that owns it.  A new axis is one
# row of AXES; everything else reads the table.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Kind:
    """The range a plan field or speculation override must lie in."""

    #: True for a value outside the range (or, for an override, of the
    #: wrong JSON type).
    rejects: Callable[[Any], bool]
    #: How a plan field outside the range is reported.
    plan_rule: str = ""
    #: What an override of this kind must be, for its error message.
    override_rule: str = ""


RATE = Kind(lambda v: not (isinstance(v, (int, float)) and 0.0 <= v <= 1.0),
            "outside [0, 1]", "a number in [0, 1]")
#: The range tests are written so that NaN fails them: every comparison
#: with NaN is false.  ``json.load`` reads ``NaN`` and ``Infinity``.
SECONDS = Kind(lambda v: not 0.0 <= v < math.inf, "must be finite and >= 0")
FACTOR = Kind(lambda v: not 0.0 < v < math.inf, "must be finite and > 0")
#: A disk of the array, or -1 for none.
DISK_ID = Kind(lambda v: not -1 <= v, "must be a disk id or -1")
COUNT = Kind(lambda v: not (isinstance(v, int) and v >= 0),
             override_rule="an integer >= 0")


@dataclass(frozen=True)
class Axis:
    """One independently removable fault event and the names it owns."""

    name: str
    #: The plan fields the axis owns (for a speculation-knob axis, the
    #: ``SpecHintParams`` override keys), each with its kind.
    owns: Mapping[str, Kind]
    #: When the axis is on; None for a speculation-knob axis, which is on
    #: while any of its override keys is set.
    when: Optional[Callable[[FaultPlan], bool]] = None
    #: The axis this one cannot exist without: removing that one removes
    #: this one, and this one alone does not make a plan active.
    rides_on: Optional[str] = None

    def on(self, plan: FaultPlan, overrides: Mapping[str, object]) -> bool:
        if self.when is None:
            return any(key in overrides for key in self.owns)
        return self.when(plan)


#: Every fault axis, in the order the shrinker tries to remove them.
AXES: Tuple[Axis, ...] = (
    Axis("transient-errors", {"disk_error_rate": RATE},
         lambda p: p.disk_error_rate > 0.0),
    Axis("slow-window", {"slow_factor": FACTOR, "slow_start_s": SECONDS,
                         "slow_duration_s": SECONDS},
         lambda p: p.slow_factor != 1.0 and p.slow_duration_s > 0.0),
    Axis("offline-window", {"offline_disk": DISK_ID,
                            "offline_start_s": SECONDS,
                            "offline_duration_s": SECONDS},
         lambda p: p.offline_disk >= 0 and p.offline_duration_s > 0.0),
    Axis("second-dead-disk", {"second_dead_disk": DISK_ID,
                              "second_dead_at_s": SECONDS},
         lambda p: p.second_dead_disk >= 0, rides_on="dead-disk"),
    Axis("dead-disk", {"dead_disk": DISK_ID, "dead_at_s": SECONDS},
         lambda p: p.dead_disk >= 0),
    Axis("rebuild-share", {"rebuild_share": RATE},
         lambda p: p.rebuild_share > 0.0, rides_on="dead-disk"),
    Axis("hedged-reads", {"hedge_after_s": SECONDS},
         lambda p: p.hedge_after_s > 0.0, rides_on="dead-disk"),
    Axis("hint-drop", {"hint_drop_rate": RATE},
         lambda p: p.hint_drop_rate > 0.0),
    Axis("hint-corrupt", {"hint_corrupt_rate": RATE},
         lambda p: p.hint_corrupt_rate > 0.0),
    Axis("restart-storm", {"spec_divergence_rate": RATE},
         lambda p: p.spec_divergence_rate > 0.0),
    Axis("throttle-params", {"throttle_cancel_limit": COUNT,
                             "throttle_disable_reads": COUNT}),
    Axis("watchdog-params", {"watchdog_restart_limit": COUNT,
                             "watchdog_fault_limit": COUNT,
                             "watchdog_min_accuracy": RATE,
                             "watchdog_accuracy_window": COUNT}),
)

AXIS_BY_NAME: Dict[str, Axis] = {axis.name: axis for axis in AXES}
#: Each plan field's kind (every field but ``name`` and ``seed``).
FIELD_KINDS: Dict[str, Kind] = {
    name: kind for axis in AXES if axis.when is not None
    for name, kind in axis.owns.items()
}
#: Each speculation override key's kind.
OVERRIDE_KINDS: Dict[str, Kind] = {
    name: kind for axis in AXES if axis.when is None
    for name, kind in axis.owns.items()
}


#: The built-in chaos profiles (see module docstring).
PROFILES: Dict[str, FaultPlan] = {
    "none": FaultPlan(name="none"),
    "transient-errors": FaultPlan(
        name="transient-errors",
        disk_error_rate=0.05,
    ),
    "stuck-disk": FaultPlan(
        name="stuck-disk",
        slow_factor=50.0,
        slow_start_s=0.0,
        slow_duration_s=0.02,
    ),
    "offline-disk": FaultPlan(
        name="offline-disk",
        offline_disk=0,
        offline_start_s=0.002,
        offline_duration_s=0.010,
    ),
    "hint-corruption": FaultPlan(
        name="hint-corruption",
        hint_drop_rate=0.15,
        hint_corrupt_rate=0.15,
    ),
    "restart-storm": FaultPlan(
        name="restart-storm",
        spec_divergence_rate=0.99,
    ),
    "disk-death": FaultPlan(
        name="disk-death",
        dead_disk=1,
        dead_at_s=0.004,
        hedge_after_s=0.004,
    ),
    "rebuild-storm": FaultPlan(
        name="rebuild-storm",
        dead_disk=0,
        dead_at_s=0.0005,
        rebuild_share=0.9,
        disk_error_rate=0.02,
        hedge_after_s=0.004,
    ),
    "double-fault": FaultPlan(
        name="double-fault",
        dead_disk=0,
        dead_at_s=0.0005,
        second_dead_disk=2,
        second_dead_at_s=0.002,
    ),
}


def profile(name: str, seed: Optional[int] = None) -> FaultPlan:
    """Look up a built-in profile, optionally re-seeded."""
    try:
        plan = PROFILES[name]
    except KeyError:
        known = ", ".join(sorted(PROFILES))
        raise ValueError(
            f"unknown fault profile {name!r}; expected one of: {known}"
        ) from None
    if seed is not None:
        plan = plan.with_seed(seed)
    return plan
