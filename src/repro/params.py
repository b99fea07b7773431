"""System-wide configuration parameters.

The defaults model the paper's evaluation platform (Section 4):

* an AlphaStation 255 with a 233 MHz processor;
* four HP C2247 disks (15 ms average access time) behind a striping
  pseudodevice with a 64 KB striping unit;
* a 12 MB file cache managed by TIP (or, for baselines, by the stock
  Unified Buffer Cache with sequential read-ahead capped at 64 blocks);
* 8 KB file system blocks (the Digital UNIX block size).

Workloads in this reproduction are scaled down roughly 8x from the paper's
(see DESIGN.md section 2), so harness configurations usually also scale the
file cache with :func:`scaled_cache_blocks`.

The dataclasses hold only values some caller varies: a field nothing in
``src/`` sets (``tests/test_settable_values.py`` lists the few that only
tests set) is a constant instead, kept beside its reader.  The clock rate
and the two syscall costs the kernel and the speculating thread share are
defined below; the write-copy rate lives in ``kernel/kernel.py``, the
retry backoff growth and the XOR cost in ``storage/striping.py``, the
accuracy discount threshold in ``tip/manager.py``, the COW check costs in
``analysis/driver.py`` and the COW copy rate in ``spechint/cow.py``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

# File system geometry -------------------------------------------------------

#: Digital UNIX file system block size in bytes.
BLOCK_SIZE = 8192

#: Striping unit of the paper's striping pseudodevice, in bytes.
STRIPE_UNIT = 65536

#: Blocks per stripe unit.
BLOCKS_PER_STRIPE_UNIT = STRIPE_UNIT // BLOCK_SIZE

#: Page size used for footprint accounting (Table 6).
PAGE_SIZE = 8192

# Processor ------------------------------------------------------------------

#: Clock frequency in Hz (233 MHz AlphaStation 255).
CPU_HZ = 233_000_000

#: Path lookup cost for open(), in cycles (metadata I/O is not simulated;
#: the TIP benchmarks hint only data reads).  The kernel charges it whole;
#: the speculating thread's user-space lookup a quarter of it.
NAMEI_CYCLES = 2_000

#: Extra cycles for a hint ioctl beyond the syscall trap, charged by the
#: kernel's hint calls and by the speculating thread's substituted ones.
HINT_CALL_CYCLES = 150


@dataclass(frozen=True)
class CpuParams:
    """Processor model parameters."""

    #: Cycles charged for a system call trap + return.
    syscall_cycles: int = 400

    #: Cycles the original thread spends checking the next hint-log entry
    #: before each read call (observable overhead, Section 3.2.2).
    hintlog_check_cycles: int = 60

    #: Cycles the original thread spends saving its registers and setting the
    #: restart flag when it detects off-track speculation.
    restart_request_cycles: int = 250

    #: One-time cycles for the initialization routine that (among other
    #: things) spawns the speculating thread (Section 4.3).
    spec_init_cycles: int = 120_000

    #: Context switch cost when the scheduler changes threads.
    context_switch_cycles: int = 150

    #: Cycles per byte to copy read data from the file cache to the
    #: application's buffer (bcopy bandwidth of the platform).
    read_copy_cycles_per_byte: float = 0.5

    #: Cycles to service a page reclaim (referenced page resident but not
    #: physically mapped — OS intervention, no disk access).
    page_reclaim_cycles: int = 500

    #: Cycles to service a (soft) page fault on first touch.
    page_fault_cycles: int = 1_800

    def seconds(self, cycles: int) -> float:
        """Convert a cycle count to seconds on this processor."""
        return cycles / CPU_HZ

    def cycles(self, seconds: float) -> int:
        """Convert seconds to (rounded) cycles on this processor."""
        return int(round(seconds * CPU_HZ))


@dataclass(frozen=True)
class DiskParams:
    """Model of one HP C2247-class disk.

    The paper quotes a 15 ms average access time.  We split that into a
    positioning component (seek + rotation) charged for non-sequential
    accesses and a per-block transfer component.  Sequential accesses that
    hit the drive's track buffer skip positioning and transfer at the track
    buffer rate, mirroring the footnote in Section 4.8.
    """

    #: Average positioning time (seek + rotational latency), seconds.
    positioning_s: float = 0.012

    #: Sustained media transfer rate, bytes/second.
    transfer_bps: float = 4_000_000.0

    #: Transfer rate when a read is serviced from the track buffer.
    track_buffer_bps: float = 10_000_000.0

    #: Number of blocks the drive reads ahead into its track buffer after
    #: servicing a request.
    track_readahead_blocks: int = 16

    #: Fixed per-request controller/command overhead, seconds.
    overhead_s: float = 0.0005

    def media_transfer_s(self, nbytes: int) -> float:
        """Seconds to move ``nbytes`` from the platter."""
        return nbytes / self.transfer_bps

    def buffer_transfer_s(self, nbytes: int) -> float:
        """Seconds to move ``nbytes`` from the track buffer."""
        return nbytes / self.track_buffer_bps

    @staticmethod
    def scaled(time_scale: float) -> "DiskParams":
        """A disk that is ``time_scale`` times faster in every dimension.

        The harness scales disk time with the (~8x smaller) workloads so
        that the ratio of per-stall speculation progress to total run
        length stays near the paper's; otherwise a single 12 ms stall would
        let the speculating thread pre-execute a large fraction of a scaled
        benchmark, which the paper's full-size runs do not allow.
        """
        base = DiskParams()
        return DiskParams(
            positioning_s=base.positioning_s / time_scale,
            transfer_bps=base.transfer_bps * time_scale,
            track_buffer_bps=base.track_buffer_bps * time_scale,
            track_readahead_blocks=base.track_readahead_blocks,
            overhead_s=base.overhead_s / time_scale,
        )


@dataclass(frozen=True)
class ArrayParams:
    """Striped disk array parameters."""

    #: Number of disks in the array (paper default: 4).
    ndisks: int = 4

    #: Striping unit in bytes (paper default: 64 KB).
    stripe_unit: int = STRIPE_UNIT

    #: Multiplier applied to I/O completion *notification* times, used by
    #: Figure 6 to simulate a widening processor/disk speed gap.  1.0 means
    #: no delay.
    completion_delay_factor: float = 1.0

    #: If positive, limit the number of outstanding *prefetch* requests per
    #: disk (the paper sets this to 1 for the Figure 6 simulation).
    max_prefetches_per_disk: int = 0

    # -- degraded-mode policy (only exercised under fault injection) --------

    #: Maximum service attempts for a demand read before the array gives up
    #: and surfaces :class:`~repro.errors.RetriesExhausted`.
    retry_max_attempts: int = 12

    #: Maximum service attempts for a prefetch; an exhausted prefetch is
    #: dropped silently (degrades to the unhinted baseline, never an error).
    prefetch_retry_attempts: int = 2

    #: Backoff before the first retry, in cycles; doubles each further
    #: attempt so retries ride out offline windows.
    retry_backoff_cycles: int = 50_000

    #: Per-request timeout in cycles; a request not notified within this
    #: bound is aborted at the disk and retried.  Only armed while a fault
    #: injector is attached (0 disables).  ~0.5 s at the paper's 233 MHz.
    request_timeout_cycles: int = 120_000_000

    # -- redundancy / degraded mode -----------------------------------------

    #: Redundancy scheme: "none" (the paper's plain striping) or "parity"
    #: (RAID-5-style rotating parity; any single-disk loss is survivable).
    #: Parity changes the block layout, so it is strictly opt-in — the
    #: harness enables it automatically for fault plans with a dead disk.
    redundancy: str = "none"

    #: Spare disks appended to the array; a dead disk's contents are
    #: resilvered onto a spare by the background rebuild engine.
    hot_spares: int = 0

    #: Fraction of a rebuilt row's service time the rebuild engine is
    #: allowed to consume — the rest is idle, yielding the disks to demand
    #: traffic.  1.0 rebuilds flat-out; small values rebuild gently.
    rebuild_bandwidth_share: float = 0.25


@dataclass(frozen=True)
class CacheParams:
    """File cache parameters."""

    #: Capacity in blocks.  The paper's default cache is 12 MB = 1536 blocks
    #: of 8 KB; scaled harness configs shrink this with the workloads.
    capacity_blocks: int = 1536

    #: Maximum read-ahead window of the sequential read-ahead policy, in
    #: blocks ("up to a maximum of 64 blocks", Section 4).
    max_readahead_blocks: int = 64


@dataclass(frozen=True)
class TipParams:
    """TIP cost-benefit manager parameters."""

    #: Prefetch horizon: the deepest point in a process's hint queue that
    #: TIP will prefetch toward.  Patterson's thesis derives this from the
    #: ratio of disk time to per-access CPU time; we expose it directly.
    prefetch_horizon: int = 96

    #: If True, TIP ignores all hints and behaves exactly like the baseline
    #: UBC (used for Figure 4).
    ignore_hints: bool = False

    #: Maximum hinted prefetches TIP keeps in flight per disk.
    max_inflight_per_disk: int = 4


@dataclass(frozen=True)
class SpecHintParams:
    """SpecHint transformation and runtime parameters."""

    #: Software copy-on-write region size in bytes.  The paper explored
    #: 128 B - 8192 B and settled on 1024 B (Section 3.2.1).
    cow_region_size: int = 1024

    #: Cycles per byte the speculating thread spends copying the original
    #: thread's stack when restarting speculation.
    restart_stack_copy_cycles_per_byte: float = 0.25

    #: Fixed cycles for the rest of the restart bookkeeping (cancel call,
    #: clearing the COW map, reloading registers).
    restart_fixed_cycles: int = 4000

    #: How many instructions the speculating thread executes between polls
    #: of the restart flag.
    restart_poll_interval: int = 32

    # -- speculation gate (see repro.spechint.gate) -------------------------

    #: Throttle (Section 5 future work): after this many restarts whose
    #: CANCEL_ALL cancelled at least one hint, the next
    #: ``throttle_disable_reads`` off-track reads request no restart.  0
    #: disables the throttle (the paper's default configuration).
    throttle_cancel_limit: int = 0

    #: Off-track original-thread reads that request no restart once the
    #: throttle trips.
    throttle_disable_reads: int = 32

    #: Consecutive restarts with no hint-log match in between before the
    #: watchdog disables speculation for the rest of the run.  0 disables
    #: this trigger.  Paper benchmarks never reach the default.
    watchdog_restart_limit: int = 64

    #: Cumulative speculative faults (signals) before the watchdog trips.
    #: 0 disables this trigger.
    watchdog_fault_limit: int = 256

    #: Sliding-window hint-log match fraction below which the watchdog
    #: trips (evaluated only once the window is full).  0.0 disables.
    watchdog_min_accuracy: float = 0.02

    #: Number of recent hint-log checks in the accuracy window.
    watchdog_accuracy_window: int = 256


@dataclass(frozen=True)
class SystemConfig:
    """Complete configuration of one simulated machine."""

    cpu: CpuParams = dataclasses.field(default_factory=CpuParams)
    disk: DiskParams = dataclasses.field(default_factory=DiskParams)
    array: ArrayParams = dataclasses.field(default_factory=ArrayParams)
    cache: CacheParams = dataclasses.field(default_factory=CacheParams)
    tip: TipParams = dataclasses.field(default_factory=TipParams)
    spechint: SpecHintParams = dataclasses.field(default_factory=SpecHintParams)

    #: Number of CPUs.  1 reproduces the paper; 2 enables the Section 5
    #: multiprocessor extension (speculating thread runs concurrently).
    ncpus: int = 1

    #: RNG seed for every stochastic component (disk layout jitter, dataset
    #: generation uses its own seeds in the workload generators).
    seed: int = 1999

    def replace(self, **kwargs: object) -> "SystemConfig":
        """Return a copy with top-level fields replaced."""
        return dataclasses.replace(self, **kwargs)


def scaled_cache_blocks(paper_mb: float, scale: float = 8.0) -> int:
    """Cache capacity in blocks for a paper cache of ``paper_mb`` megabytes.

    Workloads in this reproduction are scaled down by ``scale`` relative to
    the paper's, so a paper 12 MB cache becomes 12/8 = 1.5 MB here.
    """
    return max(8, int(paper_mb * 1024 * 1024 / scale) // BLOCK_SIZE)
