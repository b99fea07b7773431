"""Pure helpers of the end-to-end benchmark: layer folding, digests, statistics.

Nothing here starts a process or imports ``repro``; ``run.py`` feeds these
functions what the worker processes reported, and ``test_e2e_helpers.py``
feeds them hand-built inputs.

A *layer* is one of the repo's packages (``spechint`` split into its four
parts).  A ``cProfile`` entry is folded into a layer by the path of the
file it was defined in; everything outside the ``repro`` package — builtins,
the standard library and the benchmark's own workers — is ``python``.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
from typing import Collection, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: ``(file, line, name)`` as cProfile keys a function.
Func = Tuple[str, int, str]
#: ``pstats.Stats.stats``: func -> (prim calls, calls, tottime, cumtime,
#: {caller: (calls, prim calls, tottime, cumtime)}).
RawStats = Mapping[Func, Tuple[int, int, float, float, Mapping[Func, Tuple[int, int, float, float]]]]

_PACKAGE_LAYERS = (
    "apps", "vm", "kernel", "tip", "fs", "storage", "sim", "faults",
    "trace", "harness", "registry",
)
_SPECHINT_PARTS = {"tool.py": "spechint.tool", "cow.py": "spechint.cow",
                   "auditor.py": "spechint.auditor"}

#: The 17 layers, in the order the tables print them.
LAYERS = (
    "apps", "vm", "kernel", "spechint.tool", "spechint.cow",
    "spechint.auditor", "spechint.runtime", "tip", "fs", "storage", "sim",
    "faults", "trace", "harness", "registry", "other", "python",
)

#: Phase spans: metric -> the public functions whose inclusive time it sums,
#: each as (path inside the package, function-name prefix).  cProfile names
#: a method by its bare name, so the file disambiguates.
PHASES: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "phase.build_s": (
        ("apps/agrep.py", "build_agrep"), ("apps/gnuld.py", "build_gnuld"),
        ("apps/xdataslice.py", "build_xdataslice"),
        ("apps/postgres.py", "build_postgres"),
    ),
    "phase.dataset_s": (("apps/", "generate_"),),
    "phase.transform_s": (("spechint/tool.py", "transform"),),
    "phase.wire_s": (("harness/runner.py", "build_system"),),
    "phase.spawn_s": (("kernel/kernel.py", "spawn"),),
    "phase.addrspace_init_s": (("vm/memory.py", "__init__"),),
    "phase.simulate_s": (("kernel/kernel.py", "run"),),
    "phase.checkpoint_s": (("harness/checkpoint.py", "atomic_write_json"),),
    "phase.registry_s": (
        ("registry/recorder.py", "record_payload"),
        ("registry/store.py", "compact"),
    ),
}
#: ``phase.collect_s`` is what is left of a cell once these are taken out.
_CELL_FUNCTION = ("harness/runner.py", "run_experiment_with_system")
_CELL_PARTS = ("phase.build_s", "phase.transform_s", "phase.wire_s",
               "phase.spawn_s", "phase.simulate_s")


def layer_of(filename: str, package_dir: str) -> str:
    """The layer a profiled function belongs to, from its file's path."""
    prefix = package_dir.rstrip(os.sep) + os.sep
    if not filename.startswith(prefix):
        return "python"
    parts = filename[len(prefix):].split(os.sep)
    if parts[0] == "spechint":
        return _SPECHINT_PARTS.get(parts[-1], "spechint.runtime")
    if parts[0] in _PACKAGE_LAYERS:
        return parts[0]
    return "other"


def fold_layers(stats: RawStats, package_dir: str) -> Dict[str, Dict[str, float]]:
    """Fold a profile into ``{layer: {self_s, incl_s, calls, entry_calls}}``.

    ``self_s`` sums tottime, so the layers' self times add up to the traced
    total.  ``incl_s`` and ``entry_calls`` are taken on caller->callee edges
    whose caller is in a *different* layer: the calls into the layer's
    public functions and the cumulative time they took.  Layers that call
    each other re-entrantly (``tip`` <-> ``fs``) count that time twice, so
    ``incl_s`` is an upper bound and ``self_s`` the lower.
    """
    out = {layer: {"self_s": 0.0, "incl_s": 0.0, "calls": 0, "entry_calls": 0}
           for layer in LAYERS}
    for func, (_prim, calls, tottime, _cum, callers) in stats.items():
        row = out[layer_of(func[0], package_dir)]
        row["self_s"] += tottime
        row["calls"] += calls
        for caller, (edge_calls, _eprim, _ett, edge_cum) in callers.items():
            if out[layer_of(caller[0], package_dir)] is not row:
                row["entry_calls"] += edge_calls
                row["incl_s"] += edge_cum
    return out


def fold_phases(
    stats: RawStats, package_dir: str, never_entered: Collection[str] = ()
) -> Tuple[Dict[str, Optional[float]], List[str]]:
    """Inclusive seconds of the named phase functions, plus ``probe_missing``.

    ``never_entered`` names the phases the workload cannot reach (no
    checkpoint in a matrix pass): absent from the profile they read 0 s.
    Any other phase whose functions are gone reads ``None`` and is listed in
    the second value, so a refactor that renames ``build_system`` loses one
    number, not the benchmark.
    """
    prefix = package_dir.rstrip(os.sep) + os.sep

    def inclusive(targets: Iterable[Tuple[str, str]]) -> Optional[float]:
        total, found = 0.0, False
        for (filename, _line, name), entry in stats.items():
            if not filename.startswith(prefix):
                continue
            rel = filename[len(prefix):].replace(os.sep, "/")
            if any(rel.startswith(path) and name.startswith(fn) for path, fn in targets):
                total += entry[3]
                found = True
        return total if found else None

    phases: Dict[str, Optional[float]] = {}
    for metric, targets in PHASES.items():
        value = inclusive(targets)
        phases[metric] = 0.0 if value is None and metric in never_entered else value
    cell = inclusive((_CELL_FUNCTION,))
    parts = [phases[name] for name in _CELL_PARTS]
    if cell is None or None in parts:
        phases["phase.collect_s"] = None
    else:
        phases["phase.collect_s"] = cell - sum(parts)
    return phases, sorted(name for name, value in phases.items() if value is None)


# ---------------------------------------------------------------- statistics

def summarize(values: Sequence[float]) -> Dict[str, object]:
    """Median, quartiles and sample count of one metric's samples.

    No tail percentile is claimed: a run has about ten samples, and a
    percentile needs ten samples beyond it.
    """
    n = len(values)
    if n >= 2:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": n}


# ------------------------------------------------------------------- digests

def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sim_digest(cells: Iterable[Mapping[str, object]]) -> str:
    """Digest of a pass's simulated results, independent of cell order.

    Covers what a host-speed change must leave alone: per cell the app,
    variant, cycle count, output bytes and every counter.
    """
    rows = sorted(
        json.dumps(
            [cell.get("app"), cell.get("variant"), cell["cycles"],
             cell.get("output_sha"), sorted(cell["counters"].items())],
            sort_keys=True,
        )
        for cell in cells
    )
    return sha256_hex("\n".join(rows).encode())


# ------------------------------------------------------------------ failures

def count_failures(
    passes: Sequence[Mapping[str, object]],
    reference_digest: str,
    originals: Mapping[str, Mapping[str, object]],
) -> Tuple[int, int]:
    """``(attempted, failed)`` operations over the given passes.

    An operation is a cell, plus the process itself for a CLI pass.  A pass
    that crashed, exited non-zero or whose ``digest`` differs from pass 0
    fails whole.  Otherwise a matrix cell fails when a hinting variant's
    output differs from the original's bytes, or a speculating cell's read
    trace differs from the original's; a CLI pass fails the cells its own
    report did not confirm (``cells_ok``).
    """
    attempted = failed = 0
    for record in passes:
        expected = int(record["cells_expected"])
        cli = record["kind"] == "cli"
        attempted += expected + (1 if cli else 0)
        if record["exit_code"] != 0 or record["digest"] != reference_digest:
            failed += expected + (1 if cli else 0)
            continue
        if cli:
            failed += expected - int(record["cells_ok"])
            continue
        cells = record["cells"]
        failed += max(0, expected - len(cells))
        for cell in cells:
            original = originals.get(cell["app"])
            if cell["variant"] == "original":
                continue
            if original is None or cell["output_sha"] != original["output_sha"]:
                failed += 1
            elif (cell["variant"] == "speculating"
                  and cell["read_trace_sha"] != original["read_trace_sha"]):
                failed += 1
    return attempted, failed


# -------------------------------------------------------------- model counts

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def model_counts(cells: Sequence[Mapping[str, object]]) -> Dict[str, float]:
    """Model-side counts of one pass, summed over its cells.

    They come from the simulator's own counters, so they repeat exactly and
    a host-only change must leave every one identical.
    """
    counters: Dict[str, float] = {}
    for cell in cells:
        for name, value in cell["counters"].items():
            counters[name] = counters.get(name, 0) + value

    def total(field: str, sub: Optional[str] = None) -> float:
        """Sum of ``cell[field]`` (or ``cell[field][sub]``), a missing one as 0."""
        values = (cell.get(field) for cell in cells)
        if sub is not None:
            values = ((value or {}).get(sub) for value in values)
        return sum(value or 0 for value in values)

    stall_wall = total("stall", "wall")
    prefetched = counters.get("cache.prefetched_blocks", 0)
    return {
        "vm.instructions": total("instructions"),
        "sim.events": total("events"),
        "kernel.context_switches": counters.get("kernel.context_switches", 0),
        "app.read_calls": counters.get("app.read_calls", 0),
        "cache.block_reads": counters.get("cache.block_reads", 0),
        "cache.demand_misses": counters.get("cache.demand_misses", 0),
        "cache.prefetch_useful_ratio": _ratio(
            counters.get("cache.prefetched_fully", 0)
            + counters.get("cache.prefetched_partial", 0), prefetched),
        "tip.hinted_blocks": counters.get("tip.hinted_blocks", 0),
        "tip.prefetches_issued": counters.get("tip.prefetches_issued", 0),
        "tip.hint_consumed_ratio": _ratio(
            total("hint_lifecycle", "consumed"), total("hint_lifecycle", "disclosed")),
        "spec.restarts": counters.get("spec.restarts", 0),
        "spec.hints_issued": counters.get("spec.hints_issued", 0),
        "spec.cow_regions_copied": total("cow_regions"),
        "spechint.audit_records": total("audit_records"),
        "array.completed": counters.get("array.completed", 0),
        "array.retries": counters.get("array.retries", 0),
        "stall.compute_share": _ratio(total("stall", "compute"), stall_wall),
        "stall.demand_share": _ratio(total("stall", "demand_stall"), stall_wall),
        "stall.checks_share": _ratio(total("stall", "checks"), stall_wall),
    }


def fig3_error_pp(
    cells: Sequence[Mapping[str, object]],
    originals: Mapping[str, Mapping[str, object]],
    variant: str,
    paper: Mapping[str, float],
) -> Optional[float]:
    """Mean over the paper's apps of |simulated % improvement - paper %|."""
    errors = []
    for cell in cells:
        if cell["variant"] != variant or cell["app"] not in paper:
            continue
        original = originals.get(cell["app"])
        if original is None:
            return None
        improvement = 100.0 * (1.0 - cell["cycles"] / original["cycles"])
        errors.append(abs(improvement - paper[cell["app"]]))
    return sum(errors) / len(errors) if errors else None
