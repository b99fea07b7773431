"""What the digest guards share: one digest and one baseline-file protocol.

``bench_parallel_sweep``, ``bench_degraded``, ``bench_registry`` and
``bench_fuzz_throughput`` each pin a seeded, machine-independent digest in
a committed ``BENCH_*.json``: ``--update-baseline`` merges the current
digest (plus a few descriptive entries) into the file, and a plain run
fails when the digest it computed is not the committed one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from typing import Dict, Optional

HERE = os.path.dirname(os.path.abspath(__file__))


def digest_of(value: object) -> str:
    """Canonical digest of a JSON-safe value: order-independent, byte-exact."""
    canonical = json.dumps(value, sort_keys=True).encode()
    return hashlib.sha256(canonical).hexdigest()


def add_baseline_arguments(
    parser: argparse.ArgumentParser, filename: str, update_help: str
) -> None:
    parser.add_argument("--update-baseline", action="store_true",
                        help=update_help)
    parser.add_argument("--baseline", default=os.path.join(HERE, filename),
                        help="baseline JSON path")


def update_baseline(
    path: str, key: str, digest: str, entries: Dict[str, object]
) -> None:
    """Merge ``entries`` and ``{key: digest}`` into the baseline file."""
    try:
        with open(path) as handle:
            baseline = json.load(handle)
    except (OSError, ValueError):
        baseline = {}
    baseline.update(entries)
    baseline[key] = digest
    with open(path, "w") as handle:
        json.dump(baseline, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"baseline updated: {path} ({key})")


def check_baseline(
    path: str, key: str, digest: str, noun: str, meaning: str
) -> Optional[Dict[str, object]]:
    """The baseline, when it holds ``digest`` under ``key``.

    Otherwise says why on stderr — no file, no such key, or a different
    digest (``noun`` names the digest, ``meaning`` what a change of it
    means) — and returns None.
    """
    try:
        with open(path) as handle:
            baseline = json.load(handle)
    except FileNotFoundError:
        print(f"FAIL: no baseline at {path}; run with "
              f"--update-baseline first", file=sys.stderr)
        return None
    expected = baseline.get(key)
    if expected is None:
        print(f"FAIL: baseline has no {key!r}; run this mode with "
              f"--update-baseline", file=sys.stderr)
        return None
    if digest != expected:
        print(f"FAIL: {noun} {digest} does not match the baseline "
              f"{expected} — {meaning}; update the baseline if intentional",
              file=sys.stderr)
        return None
    print("baseline digest: ok")
    return baseline
