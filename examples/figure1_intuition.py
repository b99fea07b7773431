#!/usr/bin/env python3
"""The paper's Figure 1, live: why speculative execution works.

A hypothetical application issues four reads for uncached data with a
million cycles of processing before each; data sits on three disks with a
~three-million-cycle access latency.  Normal execution serializes
everything (~16 M cycles).  With speculation, the stall on the first read
is spent pre-executing: hints for the remaining reads go to TIP, the three
disks fetch in parallel, and execution time more than halves.

Run:  python examples/figure1_intuition.py
"""

from repro.harness.shapes import run_figure1


def timeline(label: str, total_mcycles: float, width: int = 48) -> str:
    filled = int(width * total_mcycles / 18)
    return f"{label:12s} |{'#' * filled:<{width}}| {total_mcycles:5.2f} Mcycles"


def main() -> None:
    print("Figure 1 - how speculative execution reduces stall time")
    print("=" * 62)
    normal = run_figure1(transform=False)
    speculating = run_figure1(transform=True)

    print()
    print(timeline("normal", normal / 1e6))
    print(timeline("speculating", speculating / 1e6))
    print()
    print(f"speedup: {normal / speculating:.2f}x "
          f"(paper: 'could more than halve the execution time')")
    print()
    print("what happened during the first stall: the speculating thread")
    print("pre-executed the compute phases and issued hints for the")
    print("remaining three reads; TIP fetched them on the other disks in")
    print("parallel, so the later reads hit the cache.")

    assert normal / speculating > 2.0


if __name__ == "__main__":
    main()
