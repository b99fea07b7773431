"""Typed metric-name constants.

Every counter and distribution name lives here.  ``StatRegistry.bump``
creates a counter on first use, which means a typo'd name silently
creates a *new* counter and the intended one stays at zero — centralizing
the names turns that class of bug into an ``AttributeError`` / linter
finding at the call site.

Every name has one writer in ``src/`` and at least one reader:
``tests/test_metric_readers.py`` fails on a name read nowhere but at its
own ``bump`` / ``distribution`` call, and lists the names that only tests
or benchmarks read.  A name with no reader loses its writer and its
constant here.

Naming convention: ``<subsystem>.<event>`` with subsystem prefixes matching
the trace categories (see :mod:`repro.trace.tracer`).  Per-instance metrics
(e.g. one counter per disk) keep a ``*_PREFIX`` constant here and append
the instance discriminator at the call site.
"""

from __future__ import annotations

# -- application-visible syscall layer (kernel) -----------------------------

APP_OPEN_CALLS = "app.open_calls"
APP_READ_CALLS = "app.read_calls"
APP_READ_BLOCKS = "app.read_blocks"
APP_READ_BYTES = "app.read_bytes"
APP_READ_STALLS = "app.read_stalls"
APP_READ_CALL_CPU = "app.read_call_cpu"          # distribution
APP_WRITE_CALLS = "app.write_calls"
APP_WRITE_BLOCKS = "app.write_blocks"
APP_WRITE_BYTES = "app.write_bytes"
APP_HINT_CALLS = "app.hint_calls"
APP_HINT_CALLS_UNRESOLVABLE = "app.hint_calls_unresolvable"
APP_HINT_CALL_CPU = "app.hint_call_cpu"          # distribution

KERNEL_RUNS = "kernel.runs"
#: Wall cycles the original thread spent blocked on demand reads (the
#: "demand stall" phase of the stall breakdown).
KERNEL_DEMAND_STALL_CYCLES = "kernel.demand_stall_cycles"
KERNEL_CONTEXT_SWITCHES = "kernel.context_switches"

# -- block cache (mechanism) ------------------------------------------------

CACHE_OVERCOMMITTED_INSERTS = "cache.overcommitted_inserts"
CACHE_PREFETCHED_BLOCKS = "cache.prefetched_blocks"
CACHE_PREFETCHED_FULLY = "cache.prefetched_fully"
CACHE_PREFETCHED_PARTIAL = "cache.prefetched_partial"
CACHE_PREFETCHED_UNUSED = "cache.prefetched_unused"
CACHE_BLOCK_READS = "cache.block_reads"
CACHE_BLOCK_REUSES = "cache.block_reuses"
CACHE_FETCH_FAILURES = "cache.fetch_failures"
CACHE_DEMAND_MISSES = "cache.demand_misses"
CACHE_DEMAND_JOINS_INFLIGHT = "cache.demand_joins_inflight"
CACHE_PREFETCH_DENIED_NO_ROOM = "cache.prefetch_denied_no_room"
CACHE_PREFETCHES_DROPPED = "cache.prefetches_dropped"

# -- TIP informed prefetching ----------------------------------------------

TIP_HINT_CALLS = "tip.hint_calls"
TIP_HINTS_IGNORED = "tip.hints_ignored"
TIP_HINTED_BLOCKS = "tip.hinted_blocks"
TIP_HINTED_READ_CALLS = "tip.hinted_read_calls"
TIP_HINTED_READ_BYTES = "tip.hinted_read_bytes"
TIP_HINTS_CONSUMED = "tip.hints_consumed"
TIP_HINTS_CANCELLED = "tip.hints_cancelled"
TIP_HINTS_STALE_DROPPED = "tip.hints_stale_dropped"
TIP_HINTS_UNCONSUMED_AT_END = "tip.hints_unconsumed_at_end"
TIP_CANCEL_DRAINED = "tip.cancel_drained"
TIP_PREFETCHES_ISSUED = "tip.prefetches_issued"
TIP_PREFETCHES_DROPPED = "tip.prefetches_dropped"
TIP_HINTED_EVICTIONS = "tip.hinted_evictions"

# -- SpecHint runtime -------------------------------------------------------

SPEC_RESTARTS = "spec.restarts"
SPEC_RESTART_REQUESTS = "spec.restart_requests"
SPEC_CANCEL_CALLS = "spec.cancel_calls"
SPEC_CANCEL_DRAIN_VERIFIED = "spec.cancel_drain_verified"
SPEC_HINTS_ISSUED = "spec.hints_issued"
SPEC_SIGNALS = "spec.signals"
SPEC_THROTTLE_SUPPRESSED = "spec.throttle_suppressed"
SPEC_ISOLATION_VIOLATIONS = "spec.isolation_violations"
SPEC_QUARANTINES = "spec.quarantines"
SPEC_QUARANTINE_PERMANENT = "spec.quarantine_permanent"
SPEC_QUARANTINE_RELEASED = "spec.quarantine_released"
SPEC_QUARANTINE_HINTS_CANCELLED = "spec.quarantine_hints_cancelled"
SPEC_WATCHDOG_DISABLED = "spec.watchdog_disabled"
SPEC_WATCHDOG_HINTS_CANCELLED = "spec.watchdog_hints_cancelled"
#: Observable cycles the original thread spent in hint-log checks and
#: restart requests (the "checks" phase of the stall breakdown).
SPEC_CHECK_CYCLES = "spec.check_cycles"
#: Per-reason park / watchdog-trip counters append the reason here.
SPEC_PARK_PREFIX = "spec.park."
SPEC_WATCHDOG_TRIP_PREFIX = "spec.watchdog_trip."

SPECHINT_ANALYSIS_STORES_ELIDED = "spechint.analysis.stores_elided"
SPECHINT_ANALYSIS_CHECK_CYCLES_SAVED = "spechint.analysis.check_cycles_saved"
#: Total COW regions first-copied by speculation (across clears).
SPEC_COW_REGIONS_COPIED = "spec.cow_regions_copied"

# -- storage ----------------------------------------------------------------

ARRAY_RETRIES = "array.retries"
ARRAY_TIMEOUTS = "array.timeouts"
ARRAY_COMPLETED = "array.completed"
ARRAY_FAULTED_ATTEMPTS = "array.faulted_attempts"
ARRAY_DEMAND_FAILURES = "array.demand_failures"
ARRAY_PREFETCHES_DROPPED = "array.prefetches_dropped"
ARRAY_PREFETCHES_HELD = "array.prefetches_held"

# -- degraded mode / redundancy ---------------------------------------------

#: Permanent disk deaths the array observed (first faulted access).
ARRAY_DISK_DEATHS = "array.disk_deaths"
#: Reads served by parity reconstruction because the home disk is dead.
ARRAY_DEGRADED_READS = "array.degraded_reads"
#: Blocks XOR-ed back together from surviving disks (degraded reads,
#: hedges that won, and rebuild rows all count).
ARRAY_RECONSTRUCTED_BLOCKS = "array.reconstructed_blocks"
#: Hedged (duplicate reconstruction-path) reads: armed/won/cancelled/lost.
ARRAY_HEDGES_ISSUED = "array.hedges_issued"
ARRAY_HEDGES_WON = "array.hedges_won"
ARRAY_HEDGES_CANCELLED = "array.hedges_cancelled"
ARRAY_HEDGES_LOST = "array.hedges_lost"
#: Blocks a run could not recover (double fault / no redundancy).
FAULTS_DATA_LOSS = "faults.data_loss"

REBUILD_STARTED = "rebuild.started"
REBUILD_BLOCKS = "rebuild.blocks_resilvered"
REBUILD_COMPLETED = "rebuild.completed"
#: Sim-clock cycle at which the (last) rebuild finished; the counter is
#: bumped by the cycle value once, so its value *is* the completion time.
REBUILD_COMPLETED_CYCLE = "rebuild.completed_cycle"
#: Sim-clock cycle at which the *workload* finished, recorded only when a
#: rebuild outlives it and keeps the clock running — lets consumers
#: separate demand-path slowdown from the rebuild drain tail.
WORKLOAD_COMPLETED_CYCLE = "app.workload_completed_cycle"

#: Hinted prefetches TIP declined to issue while the array was degraded.
TIP_PREFETCHES_SHED_DEGRADED = "tip.prefetches_shed_degraded"
#: Sequential readahead the cache manager shed while degraded; the
#: fetch origin is appended (e.g. "cache.shed_degraded.readahead").
CACHE_SHED_DEGRADED_PREFIX = "cache.shed_degraded."
#: Resumable degraded-mode speculation suspensions (not watchdog trips).
SPEC_DEGRADED_SUSPENSIONS = "spec.degraded_suspensions"
SPEC_DEGRADED_RESUMES = "spec.degraded_resumes"

#: Per-disk counters: prefix + "<metric>" with the disk id baked into the
#: instance prefix, e.g. "disk0.accesses".
DISK_PREFIX = "disk"
#: Per-disk I/O health suffixes surfaced in RunResult and trace summaries
#: (full name: f"{DISK_PREFIX}{disk_id}.{suffix}").
DISK_RETRIES_SUFFIX = "retries"
DISK_TIMEOUTS_SUFFIX = "timeouts"
DISK_HEDGES_SUFFIX = "hedges"
DISK_HEDGES_WON_SUFFIX = "hedges_won"
