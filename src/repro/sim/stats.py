"""Statistics collection.

Each simulated subsystem owns named counters and distributions registered in
one :class:`StatRegistry` per simulation, which the harness snapshots at the
end of a run to build the paper's tables.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple


class Counter:
    """A monotonically increasing (or explicitly adjustable) named count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: int = 0

    def add(self, amount: int = 1) -> None:
        """Increase the count by ``amount``."""
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Distribution:
    """Streaming distribution of integer observations.

    Keeps every observation (runs are small enough) so exact medians and
    percentiles — which the paper reports, e.g. median cycles between read
    calls — are available.  Aggregates are maintained incrementally and the
    sorted order is cached between observations, so summaries that read
    ``mean``/``percentile`` repeatedly (mid-run trace queries, the tables
    code) do not re-sum or re-sort the whole sample every access.
    """

    __slots__ = ("name", "values", "_total", "_min", "_max", "_sorted")

    def __init__(self, name: str) -> None:
        self.name = name
        self.values: List[float] = []
        self._total: float = 0.0
        self._min: float = 0.0
        self._max: float = 0.0
        self._sorted: Optional[List[float]] = None

    def observe(self, value: float) -> None:
        """Record one observation."""
        if not self.values:
            self._min = self._max = value
        else:
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
        self.values.append(value)
        self._total += value
        self._sorted = None

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def total(self) -> float:
        return self._total

    @property
    def mean(self) -> float:
        return self._total / len(self.values) if self.values else 0.0

    @property
    def median(self) -> float:
        return self.percentile(50.0)

    @property
    def maximum(self) -> float:
        return self._max if self.values else 0.0

    @property
    def minimum(self) -> float:
        return self._min if self.values else 0.0

    def _ordered(self) -> List[float]:
        if self._sorted is None:
            self._sorted = sorted(self.values)
        return self._sorted

    def percentile(self, pct: float) -> float:
        """Exact percentile by nearest-rank on the sorted observations.

        Empty distributions report 0.0 for any percentile; a single
        observation is every percentile of itself; out-of-range ``pct``
        clamps to the extremes instead of indexing out of bounds.
        """
        if not self.values:
            return 0.0
        ordered = self._ordered()
        if len(ordered) == 1 or pct <= 0:
            return ordered[0]
        if pct >= 100:
            return ordered[-1]
        rank = max(0, min(len(ordered) - 1, int(round(pct / 100.0 * (len(ordered) - 1)))))
        return ordered[rank]

    def __repr__(self) -> str:
        return f"Distribution({self.name}, n={self.count}, median={self.median})"


class StatRegistry:
    """Namespace of counters and distributions for one simulation."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._distributions: Dict[str, Distribution] = {}

    def counter(self, name: str) -> Counter:
        """Get (creating on first use) the counter called ``name``."""
        found = self._counters.get(name)
        if found is None:
            found = Counter(name)
            self._counters[name] = found
        return found

    def bump(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the counter called ``name`` (creating it on
        first use, so counters appear in the order they were first bumped).
        The one way code increments a counter."""
        found = self._counters.get(name)
        if found is None:
            found = self._counters[name] = Counter(name)
        found.value += amount

    def distribution(self, name: str) -> Distribution:
        """Get (creating on first use) the distribution called ``name``."""
        found = self._distributions.get(name)
        if found is None:
            found = Distribution(name)
            self._distributions[name] = found
        return found

    def get(self, name: str, default: int = 0) -> int:
        """Current value of a counter, without creating it."""
        found = self._counters.get(name)
        return found.value if found is not None else default

    def counters(self) -> Iterator[Tuple[str, int]]:
        """Iterate (name, value) over all counters, sorted by name."""
        for name in sorted(self._counters):
            yield name, self._counters[name].value

    def distribution_or_none(self, name: str) -> Optional[Distribution]:
        """The named distribution if any observations were made."""
        return self._distributions.get(name)

    def distributions(self) -> Iterator[Tuple[str, Distribution]]:
        """Iterate (name, distribution) sorted by name — counters and
        distributions are queryable mid-run, not just at snapshot time."""
        for name in sorted(self._distributions):
            yield name, self._distributions[name]

    def snapshot(self) -> Dict[str, int]:
        """Plain-dict copy of all counter values."""
        return {name: counter.value for name, counter in self._counters.items()}
