"""Transformation statistics (the paper's Table 3)."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class TransformReport:
    """What the SpecHint tool did to one binary."""

    binary_name: str
    #: Original executable size in bytes.
    original_size_bytes: int
    #: Instruction counts (the shadow is instruction-for-instruction).
    original_insns: int
    shadow_insns: int = 0

    #: Wall-clock seconds the transformation took (Table 3 "Modification time").
    modification_time_s: float = 0.0
    #: Transformed executable size in bytes (shadow code + SpecHint runtime
    #: objects + threading libraries).
    transformed_size_bytes: int = 0

    #: Transformation detail counters: the tool counts straight into them.
    loads_wrapped: int = 0
    stores_wrapped: int = 0
    stack_relative_skipped: int = 0
    cwork_dilated: int = 0
    static_transfers_redirected: int = 0
    dynamic_transfers_routed: int = 0
    jump_tables_remapped: int = 0
    jump_tables_unrecognized: int = 0
    output_calls_stripped: int = 0
    reads_substituted: int = 0
    syscalls_guarded: int = 0

    #: Static-analysis optimization counters (all zero when the tool runs
    #: without ``optimize=True``).
    analysis_applied: bool = False
    stores_elided_dead: int = 0
    loads_unchecked_dead: int = 0
    stack_proved_unchecked: int = 0
    heap_stores_elided: int = 0
    transfers_statically_resolved: int = 0
    #: Instrumentation cost: COW check cycles the mechanical transformation
    #: would emit vs. what was emitted after analysis.
    check_cycles_baseline: int = 0
    check_cycles_emitted: int = 0

    @property
    def stores_elided(self) -> int:
        """Store sites whose COW wrapper was removed entirely."""
        return self.stores_elided_dead + self.heap_stores_elided

    @property
    def store_elision_pct(self) -> float:
        """% of would-be COW store wrappers the analysis elided."""
        total = self.stores_wrapped + self.stores_elided
        if total <= 0:
            return 0.0
        return 100.0 * self.stores_elided / total

    @property
    def check_cycles_saved_pct(self) -> float:
        """% of baseline COW check cycles removed by the analysis."""
        if self.check_cycles_baseline <= 0:
            return 0.0
        saved = self.check_cycles_baseline - self.check_cycles_emitted
        return 100.0 * saved / self.check_cycles_baseline

    @property
    def size_increase_pct(self) -> float:
        """Percentage growth of the executable (Table 3 "% increase in size")."""
        if self.original_size_bytes <= 0:
            return 0.0
        growth = self.transformed_size_bytes - self.original_size_bytes
        return 100.0 * growth / self.original_size_bytes

    def row(self) -> str:
        """One formatted Table 3 row."""
        return (
            f"{self.binary_name:<12} {self.modification_time_s:>8.3f}s "
            f"{self.transformed_size_bytes / 1024:>10,.0f} KB "
            f"{self.size_increase_pct:>8.0f}%"
        )
