"""Striping pseudodevice.

Presents a flat logical block address space striped across an array of
:class:`~repro.storage.disk.Disk` objects with a configurable striping unit
(the paper uses 64 KB = 8 file system blocks).

Two evaluation knobs from the paper's Section 4.8 live here:

* ``completion_delay_factor`` — completion *notification* is delayed so that
  the perceived service time is multiplied by the factor, simulating a
  widening gap between processor and disk speeds ("we doubled the time
  before the system was notified that each I/O request had completed");
* ``max_prefetches_per_disk`` — bounds outstanding prefetch requests per
  disk (the paper sets 1 for the Figure 6 experiments so the delayed
  notification has the intended effect on prefetch service time).

With ``redundancy="parity"`` the array lays blocks out in rotating-parity
rows (:mod:`repro.storage.parity`) and survives any single permanent disk
death: reads whose home disk is dead are *reconstructed* — the same
physical block is read on every surviving disk and XOR-ed back together on
the sim clock — while a background :class:`~repro.storage.rebuild.RebuildEngine`
resilvers the lost disk onto a hot spare.  Demand reads may additionally be
*hedged*: after the fault plan's ``hedge_after_s`` a duplicate
reconstruction-path read races the original request and the first
completion wins (the loser is cancelled).  All of it is strictly opt-in — the default geometry and the
fault-free event stream are bit-identical to the plain striping device.

The request lifecycle
---------------------

A top-level request is in exactly one :class:`~repro.storage.request.State`.
:meth:`StripedArray._move` is the only writer and checks every move against
``_MOVES``; :meth:`StripedArray._place` is the only code that routes; a
timer or completion that can fire late decides whether it still applies
from the state alone; a prefetch must be :meth:`StripedArray.servable`
(DESIGN §12.4 gives the reasons)::

    HELD           -> AT_DISK RECONSTRUCTING DONE
    AT_DISK        -> AT_DISK BACKOFF RECONSTRUCTING HEDGE_ONLY NOTIFYING
                      DONE
    BACKOFF        -> AT_DISK RECONSTRUCTING DONE
    RECONSTRUCTING -> DONE
    HEDGE_ONLY     -> AT_DISK RECONSTRUCTING DONE
    NOTIFYING      -> DONE
"""

from __future__ import annotations

from collections import deque
from typing import (
    TYPE_CHECKING, Callable, Deque, Dict, FrozenSet, List, Optional, Tuple,
)

from repro.errors import (
    DataLossError,
    DiskFaultError,
    InvalidBlockError,
    IOTimeoutError,
    StorageError,
)
from repro.params import BLOCK_SIZE, ArrayParams, CpuParams, DiskParams
from repro.sim import metrics
from repro.sim.engine import EventEngine
from repro.sim.stats import StatRegistry
from repro.storage.disk import Disk
from repro.storage.parity import ParityGeometry
from repro.storage.rebuild import RebuildEngine
from repro.storage.request import IOKind, IORequest, State
from repro.trace.tracer import CAT_STORAGE, NULL_TRACER, TID_DISK_BASE, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import FaultInjector

from repro.faults.injector import FAULT_DATA_LOSS, FAULT_DEAD, FAULT_TIMEOUT

#: Exponential growth factor of the retry backoff.
RETRY_BACKOFF_MULTIPLIER = 2.0

#: Fixed CPU cost charged for XOR-ing one block back together from its
#: parity row (reconstruction, hedges and rebuild all pay it).
RECONSTRUCT_XOR_CYCLES = 4096

#: Every move a request can make (the table in the module docstring).
#: ``tests/test_storage_lifecycle.py`` takes each one and no other.
_MOVES: Dict[State, FrozenSet[State]] = {
    # Placed: at its disk or the spare, on the peers, or unrecoverable —
    # failed on the spot.
    State.HELD: frozenset({
        State.AT_DISK, State.RECONSTRUCTING, State.DONE,
    }),
    # The attempt ended: read (notice now or delayed), beaten by its hedge,
    # faulted with or without retries left, or its disk died — re-placed
    # (AT_DISK again is the spare), unless a racing hedge is left to decide.
    State.AT_DISK: frozenset({
        State.AT_DISK, State.BACKOFF, State.RECONSTRUCTING, State.HEDGE_ONLY,
        State.NOTIFYING, State.DONE,
    }),
    # Retry due: placed afresh.  DONE is also a hedge winning meanwhile.
    State.BACKOFF: frozenset({
        State.AT_DISK, State.RECONSTRUCTING, State.DONE,
    }),
    # The peers answered, gave up, or a racing hedge finished first.
    State.RECONSTRUCTING: frozenset({State.DONE}),
    # The hedge won, or lost: then a dead disk's request is placed afresh
    # and one out of retries fails.
    State.HEDGE_ONLY: frozenset({
        State.AT_DISK, State.RECONSTRUCTING, State.DONE,
    }),
    State.NOTIFYING: frozenset({State.DONE}),
    State.DONE: frozenset(),
}


class _ChildSet:
    """A batch of internal child reads that jointly serve one purpose —
    the surviving-peer reads of a parity reconstruction, or a rebuild
    engine's I/O.  Children bypass the array's normal completion path
    (they are not ``_outstanding``); the array routes them back here."""

    __slots__ = (
        "children", "remaining", "cancelled", "xor_cycles",
        "on_complete", "on_failed", "label",
    )

    def __init__(
        self,
        xor_cycles: int,
        on_complete: Callable[["_ChildSet"], None],
        on_failed: Callable[["_ChildSet", str], None],
        label: str,
    ) -> None:
        self.children: List[IORequest] = []
        self.remaining = 0
        self.cancelled = False
        self.xor_cycles = xor_cycles
        self.on_complete = on_complete
        self.on_failed = on_failed
        self.label = label


class StripedArray:
    """The striping pseudodevice plus its member disks."""

    def __init__(
        self,
        nblocks: int,
        array: ArrayParams,
        disk_params: DiskParams,
        cpu: CpuParams,
        engine: EventEngine,
        stats: StatRegistry,
        injector: Optional["FaultInjector"] = None,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        if array.ndisks <= 0:
            raise InvalidBlockError(f"array needs >=1 disk, got {array.ndisks}")
        if array.stripe_unit % BLOCK_SIZE != 0:
            raise InvalidBlockError(
                f"stripe unit {array.stripe_unit} is not a multiple of the "
                f"{BLOCK_SIZE}-byte block size"
            )
        if array.redundancy not in ("none", "parity"):
            raise InvalidBlockError(
                f"unknown redundancy scheme {array.redundancy!r}; "
                f"expected 'none' or 'parity'"
            )
        self.array = array
        self.cpu = cpu
        self.engine = engine
        self.stats = stats
        self.injector = injector
        self.tracer = tracer
        self._submitted = {kind: f"array.{kind.value}_submitted" for kind in IOKind}
        self.blocks_per_unit = array.stripe_unit // BLOCK_SIZE
        self.nblocks = nblocks

        self.parity: Optional[ParityGeometry] = None
        if array.redundancy == "parity":
            self.parity = ParityGeometry(array.ndisks, self.blocks_per_unit)

        per_disk = self._physical_blocks_per_disk(nblocks)
        total_disks = array.ndisks + max(0, array.hot_spares)
        self.disks: List[Disk] = [
            Disk(i, per_disk, disk_params, cpu, engine, stats,
                 self._disk_finished, injector=injector, tracer=tracer)
            for i in range(total_disks)
        ]
        #: Spare disks (ids >= ndisks) not yet resilvering a dead disk.
        self._free_spares: List[int] = list(range(array.ndisks, total_disks))

        #: Observed permanent deaths: disk id -> rebuild engine (None when
        #: no spare was available; the array stays degraded for good).
        self._dead_disks: Dict[int, Optional[RebuildEngine]] = {}

        #: Per-attempt timeout and hedge delay, resolved once: 0 — never
        #: armed — without an injector (fault-free runs keep a bit-identical
        #: event stream), the hedge 0 without parity too (only one copy of a
        #: block exists, so the duplicate must come from the peers).  The
        #: fault-free path is the same machine with no timer to arm.  The
        #: hedge delay is the fault plan's, which may also override the
        #: rebuild share.
        self._timeout_cycles = 0
        self._hedge_cycles = 0
        self._rebuild_share = array.rebuild_bandwidth_share
        if injector is not None:
            plan = injector.plan
            self._timeout_cycles = array.request_timeout_cycles
            if self.parity is not None:
                self._hedge_cycles = cpu.cycles(plan.hedge_after_s)
            if plan.rebuild_share > 0.0:
                self._rebuild_share = plan.rebuild_share

        #: Outstanding (submitted, unnotified) requests per lbn.  Demand and
        #: prefetch for the same block coalesce onto one request.
        self._outstanding: Dict[int, IORequest] = {}
        #: Prefetches held back by the per-disk prefetch limit.
        self._held_prefetches: List[Deque[IORequest]] = [
            deque() for _ in range(total_disks)
        ]
        self._inflight_prefetches: List[int] = [0] * total_disks

    # -- geometry ----------------------------------------------------------

    def _physical_blocks_per_disk(self, nblocks: int) -> int:
        if self.parity is not None:
            return self.parity.physical_blocks_per_disk(nblocks)
        units = -(-nblocks // self.blocks_per_unit)  # ceil division
        units_per_disk = -(-units // self.array.ndisks)
        return max(1, units_per_disk * self.blocks_per_unit)

    def map_block(self, lbn: int) -> Tuple[int, int]:
        """Map a logical block to (disk index, physical block on that disk)."""
        if lbn < 0 or lbn >= self.nblocks:
            raise InvalidBlockError(f"lbn {lbn} outside array of {self.nblocks} blocks")
        if self.parity is not None:
            return self.parity.map_block(lbn)
        unit = lbn // self.blocks_per_unit
        within = lbn % self.blocks_per_unit
        disk = unit % self.array.ndisks
        unit_on_disk = unit // self.array.ndisks
        return disk, unit_on_disk * self.blocks_per_unit + within

    def disk_of(self, lbn: int) -> int:
        """Disk index holding logical block ``lbn``."""
        return self.map_block(lbn)[0]

    # -- degraded-mode state -----------------------------------------------

    @property
    def degraded(self) -> bool:
        """True while any dead disk is not yet fully resilvered.

        TIP and the speculation gate consult this to shed speculative
        load: while degraded, demand and rebuild traffic win.
        """
        for rebuild in self._dead_disks.values():
            if rebuild is None or not rebuild.complete:
                return True
        return False

    @property
    def rebuild_active(self) -> bool:
        """True while a rebuild engine is still resilvering."""
        return any(
            rebuild is not None and not rebuild.complete
            for rebuild in self._dead_disks.values()
        )

    @property
    def rebuilds(self) -> List[RebuildEngine]:
        """The rebuild engines started so far (complete or not)."""
        return [r for r in self._dead_disks.values() if r is not None]

    def _route(self, disk_id: int, physical: int) -> Optional[int]:
        """The disk that can serve ``(disk_id, physical)`` right now:
        the disk itself while alive, its spare once the block is
        resilvered, or None (reconstruction required)."""
        if disk_id not in self._dead_disks:
            return disk_id
        rebuild = self._dead_disks[disk_id]
        if rebuild is not None and rebuild.covers(physical):
            return rebuild.spare_id
        return None

    def _survivors(self, home_disk: int, physical: int) -> Optional[List[int]]:
        """The disks whose copies of ``physical`` XOR back to ``home_disk``'s
        — every peer of the parity row, or its spare once resilvered — or
        None when one of them cannot be read (or there is no parity)."""
        if self.parity is None or home_disk >= self.array.ndisks:
            return None
        survivors: List[int] = []
        for peer in self.parity.peer_disks(home_disk):
            serving = self._route(peer, physical)
            if serving is None:
                return None
            survivors.append(serving)
        return survivors

    def can_reconstruct(self, home_disk: int, physical: int) -> bool:
        """Can ``(home_disk, physical)`` be rebuilt from its parity row?"""
        return self._survivors(home_disk, physical) is not None

    def _sources(self, disk_id: int, physical: int) -> Tuple[Optional[int], Optional[List[int]]]:
        """What serves ``(disk_id, physical)`` now: ``(disk or spare, None)``,
        ``(None, peers)`` to reconstruct, or ``(None, None)`` (data loss)."""
        serving = self._route(disk_id, physical)
        if serving is not None:
            return serving, None
        return None, self._survivors(disk_id, physical)

    def servable(self, lbn: int) -> bool:
        """Can ``lbn`` be read now?  Only a death or a rebuild's end changes
        the answer, and TIP prefetches nothing else (DESIGN §12.4)."""
        if not self._dead_disks:
            return True
        return self._sources(*self.map_block(lbn)) != (None, None)

    def _note_disk_death(self, disk_id: int) -> None:
        """First observation of a permanent death: mark the disk dead,
        start resilvering onto a spare when one is free, and place its
        held prefetches elsewhere."""
        if disk_id in self._dead_disks or disk_id >= self.array.ndisks:
            return
        self._dead_disks[disk_id] = None
        self.stats.bump(metrics.ARRAY_DISK_DEATHS)
        if self.tracer.enabled:
            self.tracer.instant(
                CAT_STORAGE, f"disk{disk_id}.death",
                tid=TID_DISK_BASE + disk_id,
            )
        if self.parity is not None and self._free_spares:
            spare_id = self._free_spares.pop(0)
            rebuild = RebuildEngine(
                self, disk_id, spare_id, self._rebuild_share
            )
            self._dead_disks[disk_id] = rebuild
            rebuild.start()
        # Prefetches held for the dead disk can never dispatch there.
        held = self._held_prefetches[disk_id]
        while held:
            self._place(held.popleft())

    # -- request path ------------------------------------------------------

    def submit(
        self,
        lbn: int,
        kind: IOKind,
        callback: Callable[[IORequest], None],
    ) -> IORequest:
        """Submit a block read; ``callback`` runs at notification time.

        A read for a block that is already outstanding coalesces: the new
        callback joins the existing request's, and a demand read promotes
        a prefetch for the same block.  A prefetch must be :meth:`servable`.
        """
        assert kind is IOKind.DEMAND or self.servable(lbn), f"unservable prefetch lbn={lbn}"
        existing = self._outstanding.get(lbn)
        if existing is not None:
            existing.callbacks.append(callback)
            if kind is IOKind.DEMAND and not existing.is_demand:
                self._promote(existing)
            return existing

        request = IORequest(lbn, kind, callback)
        request.disk_id, request.physical_block = self.map_block(lbn)
        self._outstanding[lbn] = request
        self.stats.bump(self._submitted[kind])
        self._place(request, may_hold=True)
        return request

    def outstanding_for(self, lbn: int) -> Optional[IORequest]:
        """The in-flight request for ``lbn``, if any."""
        return self._outstanding.get(lbn)

    @property
    def total_outstanding(self) -> int:
        return len(self._outstanding)

    def _count(self, name: str, disk_id: int, suffix: str) -> None:
        """Count one event for the array and for the disk it happened at."""
        self.stats.bump(name)
        self.stats.bump(f"{metrics.DISK_PREFIX}{disk_id}.{suffix}")

    def _move(self, request: IORequest, new: State) -> None:
        """The only writer of ``request.state``."""
        assert new in _MOVES[request.state], (
            f"request lbn={request.lbn} ({request.kind.value}, disk "
            f"{request.disk_id}) cannot move from {request.state.name} to {new.name}"
        )
        request.state = new

    def _place(self, request: IORequest, may_hold: bool = False) -> None:
        """The only code that routes: send ``request`` to what can serve
        its block now — the disk, its spare once the block is resilvered,
        else the surviving peers, else nothing (data loss).  A prefetch
        that ``may_hold`` waits behind the per-disk prefetch limit."""
        request.fault = None
        disk_id, peers = self._sources(request.disk_id, request.physical_block)
        if disk_id is None:
            if peers is None:
                self._fail_data_loss(request)
                return
            request.reconstructed = True
            self.stats.bump(metrics.ARRAY_DEGRADED_READS)
            self._move(request, State.RECONSTRUCTING)
            request.recon = self._spawn(
                peers, request.physical_block, request.lbn, request.kind,
                RECONSTRUCT_XOR_CYCLES,
                on_complete=lambda cs: self._degraded_read_ended(request, None),
                on_failed=lambda cs, fault: self._degraded_read_ended(request, fault),
                label=f"array:reconstruct lbn={request.lbn}",
            )
            return
        request.disk_id = disk_id
        if request.kind is IOKind.PREFETCH:
            limit = self.array.max_prefetches_per_disk
            if may_hold and 0 < limit <= self._inflight_prefetches[disk_id]:
                self._held_prefetches[disk_id].append(request)
                self.stats.bump(metrics.ARRAY_PREFETCHES_HELD)
                return
            self._inflight_prefetches[disk_id] += 1
        self._move(request, State.AT_DISK)
        # Timeout event, hedge event, then the disk: the engine breaks ties
        # by scheduling order, so this order is part of the event stream.
        if self._timeout_cycles > 0:
            request.timeout_event = self.engine.schedule_after(
                self._timeout_cycles,
                lambda: self._timeout_fired(request),
                label=f"array:timeout lbn={request.lbn}",
            )
        if (self._hedge_cycles > 0 and request.is_demand
                and request.hedge is None and request.hedge_event is None):
            request.hedge_event = self.engine.schedule_after(
                self._hedge_cycles,
                lambda: self._hedge_fired(request),
                label=f"array:hedge lbn={request.lbn}",
            )
        self.disks[disk_id].submit(request)

    def _promote(self, request: IORequest) -> None:
        """A demand read joined this outstanding prefetch: raise it to
        demand priority where its state still allows."""
        state = request.state
        disk_id = request.disk_id
        if state is State.HELD:
            # Never dispatched: straight to its disk's demand queue.
            self._held_prefetches[disk_id].remove(request)
            request.promote_to_demand()
            self._move(request, State.AT_DISK)
            self.disks[disk_id].submit(request)
        elif state is State.AT_DISK:
            # Waiting in the disk's prefetch queue, it moves to the demand
            # queue and gives up its slot.  In service, the platters can't
            # be re-prioritized: fault-free the attempt always completes, so
            # it stays a prefetch until the disk finishes (freeing the slot
            # at join time would move every Figure 6 number); under an
            # injector it is promoted at once — a blocked reader now waits
            # on it, so it may not be silently dropped if the attempt faults.
            queued = self.disks[disk_id].promote_queued(request.lbn)
            if queued or self.injector is not None:
                request.promote_to_demand()
                self._free_slot(disk_id)
        elif state is State.RECONSTRUCTING:
            # Promote the surviving-peer reads so the reconstruction
            # finishes at demand priority.
            request.promote_to_demand()
            assert request.recon is not None
            for child in request.recon.children:
                disk = self.disks[child.disk_id]
                if not (child.is_demand or disk.promote_queued(child.lbn)):
                    # In service (can't be re-prioritized) or in retry
                    # backoff (the resubmit enqueues at demand priority).
                    child.promote_to_demand()
        elif state is State.BACKOFF:
            # At no disk.  Flip the kind so the retry dispatches at demand
            # priority with demand retry limits.  In NOTIFYING the block is
            # already in hand: there is nothing left to promote.
            request.promote_to_demand()

    def _free_slot(self, disk_id: int) -> None:
        """A prefetch left ``disk_id``: hand its slot to the held queue."""
        self._inflight_prefetches[disk_id] -= 1
        held = self._held_prefetches[disk_id]
        limit = self.array.max_prefetches_per_disk
        while held and self._inflight_prefetches[disk_id] < limit:
            self._place(held.popleft())

    def _leave_disk(self, request: IORequest) -> None:
        """``request``'s attempt at its disk is over — finished, aborted by
        its timeout, or beaten by its hedge: stop the timeout, free the
        prefetch slot."""
        if request.timeout_event is not None:
            request.timeout_event.cancel()
            request.timeout_event = None
        if request.kind is IOKind.PREFETCH:
            self._free_slot(request.disk_id)

    def _timeout_fired(self, request: IORequest) -> None:
        """The attempt outlived ``request_timeout_cycles`` (every way out
        of AT_DISK cancels this event, so the request is still there)."""
        request.timeout_event = None
        self.disks[request.disk_id].abort(request)
        self._leave_disk(request)
        request.fault = FAULT_TIMEOUT
        self._count(metrics.ARRAY_TIMEOUTS, request.disk_id,
                    metrics.DISK_TIMEOUTS_SUFFIX)
        self._attempt_failed(request)

    # -- hedged reads --------------------------------------------------------

    def _hedge_fired(self, request: IORequest) -> None:
        """The primary is still out after the hedge delay: race it with a
        parity reconstruction.  The timer survives a backoff, so it can
        fire while the retry, death or reconstruction paths own the
        request — then there is nothing at a disk to race.  Nor is a
        request hedged that waits at a disk another has already seen die:
        the death path re-places it (the peers alone would say yes)."""
        request.hedge_event = None
        if request.state is not State.AT_DISK or request.disk_id in self._dead_disks:
            return
        peers = self._survivors(request.disk_id, request.physical_block)
        if peers is None:
            return
        self._count(metrics.ARRAY_HEDGES_ISSUED, request.disk_id,
                    metrics.DISK_HEDGES_SUFFIX)
        request.hedge = self._spawn(
            peers, request.physical_block, request.lbn, IOKind.DEMAND,
            RECONSTRUCT_XOR_CYCLES,
            on_complete=lambda cs: self._hedge_won(request),
            on_failed=lambda cs, fault: self._hedge_lost(request),
            label=f"array:hedge-reconstruct lbn={request.lbn}",
        )

    def _hedge_won(self, request: IORequest) -> None:
        """The hedged reconstruction finished first: first-wins, whatever
        the request's own attempt is doing (a retry or reconstruction that
        ends later finds the request DONE and is ignored)."""
        if request.state is State.AT_DISK:
            self.disks[request.disk_id].abort(request)
            self._leave_disk(request)
        request.hedge = None
        request.fault = None
        request.reconstructed = True
        self._count(metrics.ARRAY_HEDGES_WON, request.disk_id,
                    metrics.DISK_HEDGES_WON_SUFFIX)
        self._notify(request)

    def _hedge_lost(self, request: IORequest) -> None:
        """The hedged reconstruction failed (peer faults exhausted it)."""
        self.stats.bump(metrics.ARRAY_HEDGES_LOST)
        request.hedge = None
        if request.state is not State.HEDGE_ONLY:
            return  # its own attempt is still working and finishes normally
        # The hedge was the last hope of a request out of retries; one
        # whose disk died is placed afresh (spare, peers or data loss).
        if request.fault == FAULT_DEAD:
            self._place(request)
        else:
            self._fail_request(request)

    def _stop_hedging(self, request: IORequest) -> None:
        """The block is in hand (or given up on): no hedge may fire, and
        one still racing is cancelled at the disks."""
        if request.hedge_event is not None:
            request.hedge_event.cancel()
            request.hedge_event = None
        if request.hedge is not None:
            self._cancel(request.hedge)
            request.hedge = None
            self.stats.bump(metrics.ARRAY_HEDGES_CANCELLED)

    # -- parity reconstruction ----------------------------------------------

    def _spawn(
        self,
        targets: List[int],
        physical: int,
        lbn: int,
        kind: IOKind,
        xor_cycles: int,
        on_complete: Callable[[_ChildSet], None],
        on_failed: Callable[[_ChildSet, str], None],
        label: str,
    ) -> _ChildSet:
        """Issue one child access of ``physical`` per target disk; when all
        arrive, charge ``xor_cycles`` and call ``on_complete``."""
        child_set = _ChildSet(xor_cycles, on_complete, on_failed, label)
        for disk_id in targets:
            child = IORequest(lbn, kind)
            child.disk_id = disk_id
            child.physical_block = physical
            child.owner = child_set
            child_set.children.append(child)
        child_set.remaining = len(child_set.children)
        for child in child_set.children:
            self.disks[child.disk_id].submit(child)
        return child_set

    def spawn_spare_write(
        self,
        spare_id: int,
        physical: int,
        on_complete: Callable[[_ChildSet], None],
        on_failed: Callable[[_ChildSet, str], None],
        label: str,
    ) -> _ChildSet:
        """One rebuild write landing a resilvered block on the spare."""
        return self._spawn(
            [spare_id], physical, -1, IOKind.PREFETCH, 0,
            on_complete, on_failed, label,
        )

    def spawn_rebuild_read(
        self,
        dead_disk: int,
        physical: int,
        on_complete: Callable[[_ChildSet], None],
        on_failed: Callable[[_ChildSet, str], None],
    ) -> _ChildSet:
        """One rebuild row read: reconstruct ``physical`` of the dead disk
        at prefetch priority (demand traffic wins at every disk queue)."""
        peers = self._survivors(dead_disk, physical)
        assert peers is not None, "caller must check can_reconstruct"
        return self._spawn(
            peers, physical, -1, IOKind.PREFETCH, RECONSTRUCT_XOR_CYCLES,
            on_complete, on_failed,
            label=f"array:rebuild disk{dead_disk} block={physical}",
        )

    def _child_finished(self, child: IORequest, owner: _ChildSet) -> None:
        if owner.cancelled:
            return
        if child.fault is None:
            owner.remaining -= 1
            if owner.remaining > 0:
                return
            if owner.xor_cycles > 0:
                self.engine.schedule_after(
                    owner.xor_cycles,
                    lambda: self._child_set_complete(owner),
                    label=owner.label + ":xor",
                )
            else:
                self._child_set_complete(owner)
        elif child.fault == FAULT_DEAD:
            self._peer_died(child, owner)
        # Transient/offline fault: retry with the demand budget whatever
        # the child's kind (reconstruction always serves someone waiting).
        elif not self._retry_later(
            child, max(1, self.array.retry_max_attempts),
            lambda: self._child_retry_due(child, owner),
            owner.label + ":retry",
        ):
            self._child_set_failed(owner, child.fault)

    def _child_retry_due(self, child: IORequest, owner: _ChildSet) -> None:
        if owner.cancelled:
            return
        if child.disk_id in self._dead_disks:
            self._peer_died(child, owner)
            return
        child.fault = None
        self.disks[child.disk_id].submit(child)

    def _peer_died(self, child: IORequest, owner: _ChildSet) -> None:
        """A surviving peer died mid-reconstruction: the row is gone."""
        self._note_disk_death(child.disk_id)
        self.stats.bump(metrics.FAULTS_DATA_LOSS)
        self._child_set_failed(owner, FAULT_DATA_LOSS)

    def _cancel(self, child_set: _ChildSet) -> None:
        """Nobody waits for ``child_set`` any more: pull what is still at
        a disk (a finished or backed-off child is at none)."""
        child_set.cancelled = True
        for child in child_set.children:
            self.disks[child.disk_id].abort(child)

    def _child_set_failed(self, child_set: _ChildSet, fault: str) -> None:
        self._cancel(child_set)
        child_set.on_failed(child_set, fault)

    def _child_set_complete(self, child_set: _ChildSet) -> None:
        if child_set.cancelled:
            return
        if child_set.xor_cycles > 0:
            self.stats.bump(metrics.ARRAY_RECONSTRUCTED_BLOCKS)
        child_set.on_complete(child_set)

    def _degraded_read_ended(self, request: IORequest, fault: Optional[str]) -> None:
        """The reconstruction serving ``request`` completed (``fault`` is
        None) or gave up."""
        if request.state is not State.RECONSTRUCTING:
            return  # a racing hedge finished first
        request.recon = None
        if fault is None:
            self._notify(request)
        else:
            request.fault = fault
            self._fail_request(request)

    def _fail_data_loss(self, request: IORequest) -> None:
        """No redundancy (or no survivors): the block is gone for good.  Failed
        on the spot: a demand's DataLossError surfaces at its read(), and a
        stranded prefetch's drop cannot recurse (TIP submits nothing unservable)."""
        self.stats.bump(metrics.FAULTS_DATA_LOSS)
        request.fault = FAULT_DATA_LOSS
        self._fail_request(request)

    # -- completion path ----------------------------------------------------

    def _disk_finished(self, request: IORequest) -> None:
        if request.owner is not None:
            self._child_finished(request, request.owner)
            return
        self._leave_disk(request)
        fault = request.fault
        if fault == FAULT_DEAD:
            self._note_disk_death(request.disk_id)
            if request.hedge is not None:
                # A hedged reconstruction is already reading the survivors;
                # it completes (or fails over) this request — avoid
                # duplicate work.
                self._move(request, State.HEDGE_ONLY)
            else:
                self._place(request)
            return
        if fault is not None:
            self._attempt_failed(request)
            return

        factor = self.array.completion_delay_factor
        if factor <= 1.0:
            self._notify(request)
            return
        # The block is in hand but its notice is not due: a join has
        # nothing to promote and a hedge nothing to race.
        self._stop_hedging(request)
        self._move(request, State.NOTIFYING)
        service = request.finish_time - request.start_time
        self.engine.schedule_after(
            max(0, int(round(service * (factor - 1.0)))),
            lambda: self._notify(request),
            label=f"array:delayed-notify lbn={request.lbn}",
        )

    # -- degraded mode: retry with backoff / terminal failure ----------------

    def _retry_later(
        self,
        request: IORequest,
        limit: int,
        resubmit: Callable[[], None],
        label: str,
    ) -> bool:
        """The one backoff, for primaries and reconstruction children:
        unless ``request`` has used its ``limit`` of attempts, schedule
        ``resubmit`` after the exponential delay and return True."""
        if request.attempts >= limit:
            return False
        delay = int(
            self.array.retry_backoff_cycles
            * RETRY_BACKOFF_MULTIPLIER ** (request.attempts - 1)
        )
        request.attempts += 1
        self._count(metrics.ARRAY_RETRIES, request.disk_id,
                    metrics.DISK_RETRIES_SUFFIX)
        self.engine.schedule_after(max(1, delay), resubmit, label=label)
        return True

    def _attempt_failed(self, request: IORequest) -> None:
        """One attempt failed (transient/offline error or timeout)."""
        self.stats.bump(metrics.ARRAY_FAULTED_ATTEMPTS)
        limit = (
            self.array.retry_max_attempts if request.is_demand
            else self.array.prefetch_retry_attempts
        )
        if self._retry_later(
            request, max(1, limit), lambda: self._retry_due(request),
            f"array:retry lbn={request.lbn}",
        ):
            self._move(request, State.BACKOFF)
        elif request.hedge is not None:
            # The hedged reconstruction is still racing: it either
            # completes the request or fails it for good when it loses.
            self._move(request, State.HEDGE_ONLY)
        else:
            # Retries exhausted: notify with ``failed`` set.  Demand callers
            # surface RetriesExhausted; prefetch callers drop the block
            # silently and the read degrades to the unhinted baseline.
            self._fail_request(request)

    def _retry_due(self, request: IORequest) -> None:
        if request.state is State.BACKOFF:  # else a hedge won meanwhile
            self._place(request)

    def _fail_request(self, request: IORequest) -> None:
        request.failed = True
        if request.is_demand:
            self.stats.bump(metrics.ARRAY_DEMAND_FAILURES)
        else:
            self.stats.bump(metrics.ARRAY_PREFETCHES_DROPPED)
        self._notify(request)

    @staticmethod
    def failure_cause(request: IORequest) -> Exception:
        """The typed error behind a failed request (for raisers upstream)."""
        where = f"lbn={request.lbn} disk={request.disk_id}"
        if request.fault == FAULT_DATA_LOSS:
            return DataLossError(
                f"block {where} is unrecoverable: its disk died and the "
                f"parity row cannot be rebuilt from the survivors"
            )
        if request.fault == FAULT_TIMEOUT:
            return IOTimeoutError(f"request {where} timed out after "
                                  f"{request.attempts} attempts")
        return DiskFaultError(f"request {where} faulted "
                              f"({request.fault}) after {request.attempts} attempts")

    def _notify(self, request: IORequest) -> None:
        self._stop_hedging(request)
        request.notify_time = self.engine.clock.now
        self._move(request, State.DONE)
        request.done = True
        self._outstanding.pop(request.lbn, None)
        self.stats.bump(metrics.ARRAY_COMPLETED)
        for callback in request.callbacks:
            callback(request)

    # -- post-run drain ------------------------------------------------------

    def drain_rebuild(self) -> None:
        """Advance the sim clock until every active rebuild resilvers.

        The kernel's run loop exits when all processes do; a rebuild that
        outlives the workload finishes here, still on the sim clock, so
        its completion time is part of the run's deterministic results.
        """
        while self.rebuild_active:
            if not self.engine.advance_to_next():
                raise StorageError(
                    "rebuild stalled: event queue empty while a dead disk "
                    "is not fully resilvered"
                )
