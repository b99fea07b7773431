"""I/O request types shared by the striping device and the disks."""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Event
    from repro.storage.striping import _ChildSet


class IOKind(enum.Enum):
    """Why a block is being fetched.

    The distinction matters for scheduling (demand reads bypass queued
    prefetches) and for the per-disk outstanding-prefetch limit used in the
    paper's Figure 6 simulation.
    """

    #: A read the application is stalled on right now.
    DEMAND = "demand"

    #: A read issued ahead of need (TIP hint-driven or sequential read-ahead).
    PREFETCH = "prefetch"


class State(enum.IntEnum):
    """Where a top-level request is in the striped array.

    A request is in exactly one of these; the only writer is
    ``StripedArray._move``, which checks every move against the table
    ``striping._MOVES``.  Internal child reads never move.  (The members
    are ints only so that the table lookup hashes in C on every move;
    ``Enum.__hash__`` is a Python function.)
    """

    #: Not at any disk yet: fresh from ``submit``, or parked behind the
    #: per-disk prefetch limit.
    HELD = 0
    #: Queued or in service at ``disk_id``; its timeout runs.
    AT_DISK = 1
    #: An attempt faulted or timed out and the retry is not due yet (a
    #: hedge may still be racing).
    BACKOFF = 2
    #: The home disk is dead: the surviving-peer reads (``recon``) are out.
    RECONSTRUCTING = 3
    #: No attempt of its own is left — retries exhausted, or its disk
    #: died — while a hedge still races: the hedge's outcome decides.
    HEDGE_ONLY = 4
    #: Read off the media; the delayed completion notice is not due yet.
    NOTIFYING = 5
    #: The callbacks have run.
    DONE = 6


class IORequest:
    """One block read moving through the storage stack.

    Attributes
    ----------
    lbn:
        Logical block number in the striped address space.
    kind:
        Demand or prefetch.
    callbacks:
        Invoked in joining order (each with the request) when the
        requesting layers are *notified* of completion — i.e. after any
        completion-delay factor.
    """

    __slots__ = (
        "lbn",
        "kind",
        "callbacks",
        "state",
        "disk_id",
        "physical_block",
        "submit_time",
        "start_time",
        "finish_time",
        "notify_time",
        "done",
        "attempts",
        "fault",
        "failed",
        "timeout_event",
        "owner",
        "recon",
        "hedge",
        "hedge_event",
        "reconstructed",
    )

    def __init__(
        self,
        lbn: int,
        kind: IOKind,
        callback: Optional[Callable[["IORequest"], None]] = None,
    ) -> None:
        self.lbn = lbn
        self.kind = kind
        self.callbacks = [] if callback is None else [callback]
        self.state = State.HELD
        #: Filled in by the striping device.
        self.disk_id: int = -1
        self.physical_block: int = -1
        #: Cycle timestamps filled in as the request progresses.
        self.submit_time: int = -1
        self.start_time: int = -1
        self.finish_time: int = -1
        self.notify_time: int = -1
        self.done: bool = False
        #: Degraded-mode bookkeeping (only moves under fault injection).
        self.attempts: int = 1
        #: Fault kind of the current attempt ("transient"/"offline"/"timeout").
        self.fault: Optional[str] = None
        #: True once every allowed retry attempt has failed; callbacks run
        #: with ``failed`` set so upper layers can degrade (or surface it).
        self.failed: bool = False
        #: Pending per-request timeout event, cancelled on completion.
        self.timeout_event: Optional["Event"] = None
        #: Redundancy plumbing (None/False on the fault-free fast path).
        #: Internal child reads (reconstruction peers, rebuild I/O) carry
        #: the owning child-set here and bypass the normal completion path.
        self.owner: Optional["_ChildSet"] = None
        #: The reconstruction serving this request when its home disk is
        #: dead (degraded read).
        self.recon: Optional["_ChildSet"] = None
        #: The racing hedged reconstruction, if one is in flight.
        self.hedge: Optional["_ChildSet"] = None
        #: Pending hedge-arm event, cancelled once the read is off the media.
        self.hedge_event: Optional["Event"] = None
        #: True when the block was rebuilt from parity rather than read
        #: from its home disk.
        self.reconstructed: bool = False

    @property
    def is_demand(self) -> bool:
        return self.kind is IOKind.DEMAND

    def promote_to_demand(self) -> None:
        """Upgrade a queued prefetch to demand priority.

        Happens when the application blocks on a block whose prefetch is
        already queued — the paper's "partially prefetched" case begins here
        if the prefetch has already started.
        """
        self.kind = IOKind.DEMAND

    def __repr__(self) -> str:
        return (
            f"IORequest(lbn={self.lbn}, kind={self.kind.value}, "
            f"disk={self.disk_id}, state={self.state.name})"
        )
