"""Shared helpers for the benchmark suite.

Runs are fully deterministic; pytest-benchmark measures the wall time of
running each benchmark once (``rounds=1`` — these are simulations, not
microbenchmarks).  The paper's tables and figures are not benchmarks
here: ``python -m repro paper EXPERIMENTS.md`` regenerates them.
"""

from __future__ import annotations


def once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def banner(title: str) -> str:
    bar = "=" * len(title)
    return f"\n{bar}\n{title}\n{bar}"
