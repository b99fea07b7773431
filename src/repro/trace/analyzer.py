"""Post-hoc trace analysis.

:class:`TraceAnalyzer` turns a recorded trace (plus the always-on hint
lifecycle and stall breakdown) into the numbers the observability layer
exists to answer:

* median (and distribution of) hint lead time, disclosed -> consumed;
* what fraction of prefetches completed before the demand read needed
  them (the paper's "prefetch far enough ahead" criterion);
* the stall breakdown, with the trace-only refinement of *overlapped
  compute* — how many of the speculating thread's CPU cycles ran inside
  an original-thread stall (useful speculation) rather than beside it;
* per-disk busy time, and (given the run's result) per-disk I/O health
  and the degraded-mode tallies.

:meth:`TraceAnalyzer.render_summary` is the one rendering, the block
``repro trace --summary`` prints.

Everything here is pure computation over recorded events — importing or
running the analyzer can never affect a simulation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.trace.lifecycle import HintLifecycle
from repro.trace.phases import StallBreakdown
from repro.trace.tracer import (
    CAT_KERNEL,
    CAT_SCHED,
    CAT_STORAGE,
    TID_DISK_BASE,
    TID_SPECULATING,
    Tracer,
)

Span = Tuple[int, int]  # (start, end) in cycles, end exclusive


def _merge(spans: List[Span]) -> List[Span]:
    """Sort and coalesce overlapping/adjacent spans."""
    if not spans:
        return []
    spans = sorted(spans)
    merged = [spans[0]]
    for start, end in spans[1:]:
        last_start, last_end = merged[-1]
        if start <= last_end:
            if end > last_end:
                merged[-1] = (last_start, end)
        else:
            merged.append((start, end))
    return merged


def _intersection_cycles(a: List[Span], b: List[Span]) -> int:
    """Total overlap between two merged span lists (two-pointer sweep)."""
    total = 0
    i = j = 0
    while i < len(a) and j < len(b):
        start = max(a[i][0], b[j][0])
        end = min(a[i][1], b[j][1])
        if start < end:
            total += end - start
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return total


class TraceAnalyzer:
    """Derives summary metrics from one run's trace and lifecycle."""

    def __init__(
        self,
        tracer: Tracer,
        lifecycle: Optional[HintLifecycle] = None,
        breakdown: Optional[StallBreakdown] = None,
        result: Optional[object] = None,
    ) -> None:
        self.tracer = tracer
        self.lifecycle = lifecycle
        self.breakdown = breakdown
        #: Optional RunResult: enables the per-disk I/O health and
        #: degraded-mode sections (counters live in the result, not the
        #: trace, so a filtered trace cannot hide them).
        self.result = result

    # -- span extraction -----------------------------------------------------

    def _spans(self, category: str, name: str, tid: Optional[int] = None) -> List[Span]:
        spans = [
            (event.ts, event.ts + event.dur)
            for event in self.tracer.events()
            if event.ph == "X"
            and event.category == category
            and event.name == name
            and (tid is None or event.tid == tid)
        ]
        return _merge(spans)

    def stall_spans(self) -> List[Span]:
        """Intervals where an original thread was blocked on a demand read."""
        return self._spans(CAT_KERNEL, "read.stall")

    def spec_exec_spans(self) -> List[Span]:
        """Intervals where the speculating thread was executing."""
        return self._spans(CAT_SCHED, "exec", tid=TID_SPECULATING)

    def overlapped_speculation_cycles(self) -> int:
        """Speculating-thread CPU cycles that ran *inside* a demand stall.

        This is the trace-only refinement of the stall breakdown: in
        uniprocessor mode it should equal (nearly all of) the speculation
        phase; on two CPUs it shows how much speculation was actually
        hidden behind stalls versus merely concurrent.
        """
        return _intersection_cycles(self.spec_exec_spans(), self.stall_spans())

    # -- storage -------------------------------------------------------------

    def disk_busy_cycles(self) -> Dict[int, int]:
        """Per-disk total service time, from storage service spans."""
        busy: Dict[int, int] = {}
        for event in self.tracer.events():
            if event.ph == "X" and event.category == CAT_STORAGE:
                disk = event.tid - TID_DISK_BASE
                busy[disk] = busy.get(disk, 0) + event.dur
        return busy

    def disk_utilization(self, wall: int) -> Dict[int, float]:
        """Per-disk busy fraction of ``wall`` cycles."""
        if wall <= 0:
            return {}
        return {
            disk: min(1.0, cycles / wall)
            for disk, cycles in sorted(self.disk_busy_cycles().items())
        }

    # -- rendering -----------------------------------------------------------

    def render_summary(self) -> str:
        """Human-readable summary block for the CLI."""
        lines: List[str] = []
        breakdown = self.breakdown
        if breakdown is not None:
            lines.append(f"wall cycles          {breakdown.wall:>16,}")
            lines.append("stall breakdown (of original-thread wall time):")
            for label, cycles in (
                ("compute", breakdown.compute),
                ("checks", breakdown.checks),
                ("demand stall", breakdown.demand_stall),
                ("other", breakdown.other),
            ):
                lines.append(
                    f"  {label:<18} {cycles:>16,}  ({breakdown.pct(cycles):5.1f}%)"
                )
            overlap = self.overlapped_speculation_cycles()
            lines.append(
                f"  speculation (overlapping) {breakdown.speculation:>9,}  "
                f"({overlap:,} inside stalls)"
            )
        lifecycle = self.lifecycle
        if lifecycle is not None:
            counts = lifecycle.summary_counts()
            lines.append(
                "hints                "
                f"disclosed={counts['disclosed']:,} consumed={counts['consumed']:,} "
                f"cancelled={counts['cancelled']:,} wasted={counts['wasted']:,} "
                f"open={counts['open']:,}"
            )
            if lifecycle.lead_times.count:
                lines.append(
                    f"hint lead time       median={lifecycle.lead_times.median:,.0f} "
                    f"p90={lifecycle.lead_times.percentile(90):,.0f} cycles"
                )
            lines.append(
                "prefetch readiness   "
                f"{lifecycle.pct_ready_before_demand:.1f}% complete before demand read"
            )
        utilization = self.disk_utilization(breakdown.wall if breakdown else 0)
        if utilization:
            parts = [f"disk{disk}={util * 100:.1f}%" for disk, util in utilization.items()]
            lines.append("disk utilization     " + " ".join(parts))
        result = self.result
        if result is not None:
            per_disk = result.per_disk_io_counters()  # type: ignore[attr-defined]
            if per_disk:
                parts = []
                for disk in sorted(per_disk):
                    counters = per_disk[disk]
                    detail = ",".join(f"{name}={counters[name]}"
                                      for name in sorted(counters))
                    parts.append(f"disk{disk}({detail})")
                lines.append("disk I/O health      " + " ".join(parts))
            lines.extend(result.degraded_report())  # type: ignore[attr-defined]
        lines.append(
            f"trace                {len(self.tracer):,} events "
            f"({self.tracer.dropped:,} dropped)"
        )
        return "\n".join(lines)
