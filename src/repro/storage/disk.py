"""Single-disk model.

Each disk services one request at a time from a two-level queue (demand
requests ahead of prefetches).  Service time has two regimes:

* **track-buffer hit** — the block was read ahead into the drive's buffer by
  a previous access: command overhead + buffer-rate transfer;
* **media access** — full positioning (seek + rotation) + media-rate
  transfer, counted as a random access.

After every media access the drive reads the following
``track_readahead_blocks`` blocks into its track buffer, which is how the
paper's footnote about "faster than modelled transfer rate" for physically
sequential accesses arises: with any read-ahead, the block after a media
access is a buffer hit.  Without read-ahead (Figure 1's idealized disks,
whose reads on one disk are never adjacent) every access is positioned.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, Optional

from repro.errors import InvalidBlockError
from repro.params import BLOCK_SIZE, CpuParams, DiskParams
from repro.sim.engine import Event, EventEngine
from repro.sim.metrics import DISK_PREFIX
from repro.sim.stats import StatRegistry
from repro.storage.request import IORequest
from repro.trace.tracer import CAT_STORAGE, NULL_TRACER, TID_DISK_BASE, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import FaultInjector


class Disk:
    """One simulated disk drive."""

    def __init__(
        self,
        disk_id: int,
        nblocks: int,
        params: DiskParams,
        cpu: CpuParams,
        engine: EventEngine,
        stats: StatRegistry,
        on_finish: Callable[[IORequest], None],
        injector: Optional["FaultInjector"] = None,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        if nblocks <= 0:
            raise InvalidBlockError(f"disk {disk_id} must have >0 blocks, got {nblocks}")
        self.disk_id = disk_id
        self.nblocks = nblocks
        self.params = params
        self.cpu = cpu
        self.engine = engine
        self.stats = stats
        #: Called when the media access finishes (before any notification delay).
        self.on_finish = on_finish
        #: Fault oracle; None in fault-free runs (zero overhead, identical
        #: event stream to the pre-fault-injection simulator).
        self.injector = injector
        self.tracer = tracer
        self._trace_tid = TID_DISK_BASE + disk_id

        self._demand_queue: Deque[IORequest] = deque()
        self._prefetch_queue: Deque[IORequest] = deque()
        self._active: Optional[IORequest] = None
        self._active_event: Optional[Event] = None

        # Track-buffer state.
        self._buffer_start: int = 0
        self._buffer_end: int = 0  # exclusive; empty buffer when start == end

        # Per-disk counters.
        self._prefix = prefix = f"{DISK_PREFIX}{disk_id}."
        self._submitted = prefix + "submitted"
        self._accesses = prefix + "accesses"
        self._service_dist = prefix + "service_cycles"
        #: (counter, cycles) of each service regime (params are frozen).
        overhead = params.overhead_s
        self._buffer_hit = (prefix + "buffer_hits", max(1, cpu.cycles(
            overhead + params.buffer_transfer_s(BLOCK_SIZE))))
        self._random = (prefix + "random_accesses", max(1, cpu.cycles(
            overhead + params.positioning_s + params.media_transfer_s(BLOCK_SIZE))))

    # -- queueing ----------------------------------------------------------

    def submit(self, request: IORequest) -> None:
        """Accept a request; starts immediately if the disk is idle."""
        if not 0 <= request.physical_block < self.nblocks:
            raise InvalidBlockError(
                f"block {request.physical_block} outside disk {self.disk_id} "
                f"(size {self.nblocks})"
            )
        request.submit_time = self.engine.clock.now
        if request.is_demand:
            self._demand_queue.append(request)
        else:
            self._prefetch_queue.append(request)
        self.stats.bump(self._submitted)
        if self.tracer.enabled:
            self._sample_queue_depth()
        self._maybe_start()

    @property
    def busy(self) -> bool:
        """True while a request is being serviced."""
        return self._active is not None

    @property
    def queued(self) -> int:
        """Requests waiting (not counting the active one)."""
        return len(self._demand_queue) + len(self._prefetch_queue)

    def queued_prefetches(self) -> int:
        """Waiting prefetch requests (used by the per-disk prefetch limit)."""
        return len(self._prefetch_queue)

    def promote_queued(self, lbn: int) -> bool:
        """Move a queued prefetch for ``lbn`` to the demand queue.

        Returns True if a queued request was found and promoted.  The active
        request cannot be re-prioritized (it is already on the media).
        """
        for i, request in enumerate(self._prefetch_queue):
            if request.lbn == lbn:
                del self._prefetch_queue[i]
                request.promote_to_demand()
                self._demand_queue.append(request)
                return True
        return False

    # -- service -----------------------------------------------------------

    def _maybe_start(self) -> None:
        if self._active is not None:
            return
        if self._demand_queue:
            request = self._demand_queue.popleft()
        elif self._prefetch_queue:
            request = self._prefetch_queue.popleft()
        else:
            return
        self._active = request
        request.start_time = self.engine.clock.now
        service_cycles = self._service_cycles(request.physical_block)
        fault: Optional[str] = None
        if self.injector is not None:
            service_cycles, fault = self.injector.on_disk_service(
                self.disk_id, request, service_cycles
            )
            if fault is not None:
                self.stats.bump(self._prefix + "faulted_accesses")
        self.stats.bump(self._accesses)
        self.stats.distribution(self._service_dist).observe(service_cycles)
        self._active_event = self.engine.schedule_after(
            service_cycles,
            lambda: self._finish(request, fault),
            label=f"disk{self.disk_id}:finish lbn={request.lbn}",
        )

    def _service_cycles(self, block: int) -> int:
        if self._buffer_start <= block < self._buffer_end:
            # Track-buffer hit: no media access, no buffer refill.
            counter, cycles = self._buffer_hit
        else:
            counter, cycles = self._random
            self._buffer_start = block + 1
            self._buffer_end = min(self.nblocks, block + 1 + self.params.track_readahead_blocks)
        self.stats.bump(counter)
        return cycles

    def _finish(self, request: IORequest, fault: Optional[str] = None) -> None:
        request.finish_time = self.engine.clock.now
        request.fault = fault
        self._active = None
        self._active_event = None
        if self.tracer.enabled:
            self.tracer.complete(
                CAT_STORAGE, "disk.service", request.start_time,
                request.finish_time - request.start_time,
                tid=self._trace_tid, lbn=request.lbn,
                kind=request.kind.value, fault=fault,
            )
            self._sample_queue_depth()
        self.on_finish(request)
        self._maybe_start()

    def _sample_queue_depth(self) -> None:
        """Counter sample: waiting requests + the in-service one."""
        depth = self.queued + (1 if self._active is not None else 0)
        self.tracer.counter(
            CAT_STORAGE, self._prefix + "queue_depth", depth,
            tid=self._trace_tid,
        )

    # -- aborts (per-request timeouts) --------------------------------------

    def abort(self, request: IORequest) -> bool:
        """Drop ``request`` wherever it is (queue or mid-service).

        Used by the striped array's per-request timeout.  Returns False when
        the request is not at this disk anymore (already finishing).
        """
        if self._active is request:
            if self._active_event is not None:
                self._active_event.cancel()
                self._active_event = None
            self._active = None
            self.stats.bump(self._prefix + "aborted")
            self._maybe_start()
            return True
        for queue in (self._demand_queue, self._prefetch_queue):
            for i, queued in enumerate(queue):
                if queued is request:
                    del queue[i]
                    self.stats.bump(self._prefix + "aborted")
                    return True
        return False
