"""Per-process hint accuracy estimation.

TIP "estimates the benefit of prefetching in response to a hint based on the
accuracy of previous hints from the application" (Section 2.1).  We track an
exponentially weighted moving accuracy per process: hints that a subsequent
read consumes count as accurate; hints that are cancelled (CANCEL_ALL) or
grow stale without ever matching a read count as inaccurate.  How many
hints ended which way is the hint lifecycle ledger's and the ``tip.hints_*``
counters' business; the tracker keeps only the estimate.
"""

from __future__ import annotations


#: Weight of each new outcome in the moving average.
ALPHA = 0.05


class HintAccuracyTracker:
    """EWMA of hint outcomes for one process."""

    def __init__(self) -> None:
        #: Current accuracy estimate in [0, 1] (read on every prefetch scan).
        self.value = 1.0

    def observe_consumed(self, n: int = 1) -> None:
        """A hinted block matched an actual read."""
        for _ in range(n):
            self.value += ALPHA * (1.0 - self.value)

    def observe_inaccurate(self, n: int = 1) -> None:
        """Hinted blocks were cancelled, or aged out or reached the end of
        the run without ever matching a read."""
        for _ in range(n):
            self.value += ALPHA * (0.0 - self.value)
