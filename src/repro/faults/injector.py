"""The fault injector: interprets a :class:`FaultPlan` against the clock.

One injector is shared by the whole simulated machine.  Every decision is
drawn from :class:`~repro.sim.rng.DeterministicRng` streams forked per
fault site (one per disk, one for the hint channel, one for speculation),
so a given (plan, seed) pair yields bit-identical fault sequences — the
chaos benchmarks assert exactly this.

The injector only *decides*; the degradation machinery lives where the
faults land (retry/backoff and timeouts in the striped array, silent
prefetch dropping in the cache manager, the watchdog in the SpecHint
runtime).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.faults.plan import FaultPlan
from repro.params import BLOCK_SIZE, CpuParams
from repro.sim.clock import SimClock
from repro.sim.rng import DeterministicRng
from repro.sim.stats import StatRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fs.filesystem import Inode
    from repro.storage.request import IORequest

#: Fault kinds attached to IORequests.
FAULT_TRANSIENT = "transient"
FAULT_OFFLINE = "offline"
FAULT_TIMEOUT = "timeout"
#: The disk is permanently dead: it never comes back, the array must
#: reconstruct from parity (or declare data loss).
FAULT_DEAD = "dead"
#: Terminal marker set by the array when a block is unrecoverable.
FAULT_DATA_LOSS = "data-loss"


class FaultInjector:
    """Seeded oracle asked "does this operation fail, and how?"."""

    def __init__(
        self,
        plan: FaultPlan,
        cpu: CpuParams,
        clock: SimClock,
        stats: StatRegistry,
    ) -> None:
        self.plan = plan
        self.cpu = cpu
        self.clock = clock
        self.stats = stats

        # One independent derived stream per fault *dimension* (plus one
        # per disk, forked lazily).  Decisions in one dimension must never
        # advance another dimension's stream: enabling hint corruption on
        # a plan that already drops hints leaves the drop schedule — and
        # every other dimension's schedule — bit-identical.  The
        # determinism-stability test pins a digest over exactly this.
        root = DeterministicRng(plan.seed, f"faults/{plan.name}")
        self._disk_rngs: Dict[int, DeterministicRng] = {}
        self._root = root
        self._hint_drop_rng = root.fork("hints/drop")
        self._hint_corrupt_rng = root.fork("hints/corrupt")
        self._hint_garble_rng = root.fork("hints/garble")
        self._spec_rng = root.fork("spec")

        # Windows resolved to cycle times once, up front.
        self._slow_lo = cpu.cycles(plan.slow_start_s)
        self._slow_hi = self._slow_lo + cpu.cycles(plan.slow_duration_s)
        self._offline_lo = cpu.cycles(plan.offline_start_s)
        self._offline_hi = self._offline_lo + cpu.cycles(plan.offline_duration_s)
        self._dead_at = cpu.cycles(plan.dead_at_s)
        self._second_dead_at = cpu.cycles(plan.second_dead_at_s)

    def _disk_rng(self, disk_id: int) -> DeterministicRng:
        rng = self._disk_rngs.get(disk_id)
        if rng is None:
            rng = self._root.fork(f"disk{disk_id}")
            self._disk_rngs[disk_id] = rng
        return rng

    # -- disk faults ---------------------------------------------------------

    def disk_offline(self, disk_id: int, now: int) -> bool:
        """Is ``disk_id`` inside its offline window at cycle ``now``?"""
        return (
            self.plan.offline_disk == disk_id
            and self._offline_lo <= now < self._offline_hi
        )

    def disk_dead(self, disk_id: int, now: int) -> bool:
        """Has ``disk_id`` died permanently by cycle ``now``?"""
        plan = self.plan
        if plan.dead_disk == disk_id and now >= self._dead_at:
            return True
        return (
            plan.second_dead_disk == disk_id and now >= self._second_dead_at
        )

    def on_disk_service(
        self, disk_id: int, request: "IORequest", service_cycles: int
    ) -> Tuple[int, Optional[str]]:
        """Judge one disk access as it starts service.

        Returns the (possibly altered) service time and the fault kind the
        access will complete with, or None for a clean completion.
        """
        plan = self.plan
        now = self.clock.now

        if self.disk_dead(disk_id, now):
            # The controller gives up almost immediately: no media access,
            # the drive does not answer at all.
            self.stats.bump("faults.disk_dead_rejects")
            return max(1, int(service_cycles * 0.02)), FAULT_DEAD

        if self.disk_offline(disk_id, now):
            # Fail fast: the controller rejects after a fraction of the
            # normal service time (command overhead, no media access).
            self.stats.bump("faults.disk_offline_rejects")
            return max(1, int(service_cycles * 0.05)), FAULT_OFFLINE

        if plan.slow_factor != 1.0 and self._slow_lo <= now < self._slow_hi:
            service_cycles = max(1, int(service_cycles * plan.slow_factor))
            self.stats.bump("faults.disk_slow_services")

        if plan.disk_error_rate > 0.0:
            if self._disk_rng(disk_id).uniform(0.0, 1.0) < plan.disk_error_rate:
                self.stats.bump("faults.disk_transient_errors")
                return service_cycles, FAULT_TRANSIENT

        return service_cycles, None

    # -- hint channel faults -------------------------------------------------

    def filter_hint(
        self, inode: "Inode", offset: int, length: int
    ) -> Optional[Tuple[int, int]]:
        """Pass a hint through the (lossy, noisy) channel.

        Returns None when the hint is dropped, else the (offset, length)
        actually delivered — possibly rewritten to garbage that TIP must
        tolerate (out-of-file offsets, absurd lengths).
        """
        plan = self.plan
        if plan.hint_drop_rate > 0.0:
            if self._hint_drop_rng.uniform(0.0, 1.0) < plan.hint_drop_rate:
                self.stats.bump("faults.hints_dropped")
                return None
        if plan.hint_corrupt_rate > 0.0:
            if self._hint_corrupt_rng.uniform(0.0, 1.0) < plan.hint_corrupt_rate:
                self.stats.bump("faults.hints_corrupted")
                span = max(inode.size, BLOCK_SIZE)
                offset = self._hint_garble_rng.randint(0, 2 * span)
                length = self._hint_garble_rng.randint(1, span + BLOCK_SIZE)
        return offset, length

    # -- speculation faults --------------------------------------------------

    def force_divergence(self) -> bool:
        """Should this hint-log check be forced to judge off-track?"""
        rate = self.plan.spec_divergence_rate
        if rate <= 0.0:
            return False
        if self._spec_rng.uniform(0.0, 1.0) < rate:
            self.stats.bump("faults.spec_divergence")
            return True
        return False
