"""Tests of the benchmark's pure helpers.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e`` (outside the
tier-1 ``testpaths``; nothing here launches a simulation).
"""

import json

import layers
import pytest
import run

PKG = "/checkout/src/repro"


def fn(path, name, line=1):
    return (f"{PKG}/{path}", line, name)


BUILTIN = ("~", 0, "<built-in method builtins.len>")
WORKER = ("/checkout/benchmarks/e2e/matrix_worker.py", 52, "run_cells")
RUN_CELL = fn("harness/runner.py", "run_experiment_with_system")
KERNEL_RUN = fn("kernel/kernel.py", "run")
EXECUTE = fn("vm/machine.py", "execute")
STEP = fn("vm/machine.py", "_run_inner")
COW_WRITE = fn("spechint/cow.py", "write")
HINTLOG = fn("spechint/hintlog.py", "check")

#: func -> (prim calls, calls, tottime, cumtime, {caller: (calls, prim, tt, ct)})
STATS = {
    WORKER: (1, 1, 0.01, 1.00, {}),
    RUN_CELL: (2, 2, 0.04, 0.99, {WORKER: (2, 2, 0.04, 0.99)}),
    KERNEL_RUN: (2, 2, 0.05, 0.95, {RUN_CELL: (2, 2, 0.05, 0.95)}),
    EXECUTE: (10, 10, 0.10, 0.90, {KERNEL_RUN: (10, 10, 0.10, 0.90)}),
    STEP: (10, 10, 0.50, 0.80, {EXECUTE: (10, 10, 0.50, 0.80)}),
    COW_WRITE: (40, 40, 0.15, 0.20, {STEP: (40, 40, 0.15, 0.20)}),
    HINTLOG: (5, 5, 0.05, 0.05, {STEP: (5, 5, 0.05, 0.05)}),
    BUILTIN: (100, 100, 0.10, 0.10, {STEP: (60, 60, 0.05, 0.05),
                                     COW_WRITE: (40, 40, 0.05, 0.05)}),
}


def test_layer_of_follows_the_package_path():
    assert layers.layer_of(f"{PKG}/spechint/cow.py", PKG) == "spechint.cow"
    assert layers.layer_of(f"{PKG}/spechint/throttle.py", PKG) == "spechint.runtime"
    assert layers.layer_of(f"{PKG}/tip/manager.py", PKG) == "tip"
    assert layers.layer_of(f"{PKG}/cli.py", PKG) == "other"
    assert layers.layer_of(f"{PKG}/analysis/taint.py", PKG) == "other"
    assert layers.layer_of("/usr/lib/python3.11/json/encoder.py", PKG) == "python"
    assert layers.layer_of("~", PKG) == "python"
    # A sibling directory that shares the prefix is not the package.
    assert layers.layer_of(f"{PKG}_old/vm/machine.py", PKG) == "python"


def test_self_time_sums_to_the_traced_total():
    folded = layers.fold_layers(STATS, PKG)
    assert set(folded) == set(layers.LAYERS)
    total = sum(entry[2] for entry in STATS.values())
    assert sum(row["self_s"] for row in folded.values()) == pytest.approx(total)
    assert folded["vm"]["self_s"] == pytest.approx(0.60)
    assert folded["python"]["self_s"] == pytest.approx(0.11)  # builtin + worker
    assert folded["vm"]["calls"] == 20


def test_entry_calls_only_on_cross_layer_edges():
    folded = layers.fold_layers(STATS, PKG)
    # execute <- kernel crosses layers; _run_inner <- execute stays inside vm.
    assert folded["vm"]["entry_calls"] == 10
    assert folded["vm"]["incl_s"] == pytest.approx(0.90)
    assert folded["spechint.cow"]["entry_calls"] == 40
    assert folded["spechint.runtime"]["entry_calls"] == 5
    assert folded["python"]["entry_calls"] == 100
    assert folded["tip"] == {"self_s": 0.0, "incl_s": 0.0, "calls": 0, "entry_calls": 0}


def test_missing_phase_function_is_a_note_not_a_crash():
    never = ("phase.checkpoint_s", "phase.registry_s", "phase.transform_s")
    phases, missing = layers.fold_phases(STATS, PKG, never)
    assert phases["phase.simulate_s"] == pytest.approx(0.95)
    assert phases["phase.checkpoint_s"] == 0.0
    # build_system, spawn, ... are not in this profile: null plus a note.
    assert phases["phase.wire_s"] is None
    assert phases["phase.collect_s"] is None
    assert "phase.wire_s" in missing and "phase.simulate_s" not in missing
    assert "phase.checkpoint_s" not in missing


def test_collect_is_the_remainder_of_the_cell():
    stats = dict(STATS)
    for path, name, cum in (("apps/agrep.py", "build_agrep", 0.01),
                            ("harness/runner.py", "build_system", 0.005),
                            ("kernel/kernel.py", "spawn", 0.005)):
        stats[fn(path, name)] = (2, 2, 0.0, cum, {RUN_CELL: (2, 2, 0.0, cum)})
    phases, missing = layers.fold_phases(
        stats, PKG, ("phase.transform_s", "phase.checkpoint_s", "phase.registry_s"))
    assert phases["phase.collect_s"] == pytest.approx(0.99 - 0.95 - 0.02)
    assert "phase.collect_s" not in missing


def cell(app, variant, output="out", trace="trace", cycles=100):
    return {"app": app, "variant": variant, "cycles": cycles, "output_sha": output,
            "read_trace_sha": trace, "counters": {"a": 1, "b": 2}}


def matrix_record(cells, exit_code=0, digest="d0"):
    return {"kind": "matrix", "exit_code": exit_code, "digest": digest,
            "cells_expected": 2, "cells": cells}


def test_failures_count_an_output_mismatch_and_a_nonzero_exit():
    originals = {"agrep": cell("agrep", "original"), "xds": cell("xds", "original")}
    good = matrix_record([cell("agrep", "speculating"), cell("xds", "speculating")])
    assert layers.count_failures([good, good], "d0", originals) == (4, 0)

    wrong_output = matrix_record(
        [cell("agrep", "speculating", output="other"), cell("xds", "speculating")])
    wrong_trace = matrix_record(
        [cell("agrep", "speculating", trace="other"), cell("xds", "manual", trace="other")])
    assert layers.count_failures([good, wrong_output], "d0", originals) == (4, 1)
    # A manual executable may read differently; a speculating one may not.
    assert layers.count_failures([wrong_trace], "d0", originals) == (2, 1)

    crashed = matrix_record([], exit_code=1, digest=None)
    drifted = matrix_record(good["cells"], digest="d1")
    assert layers.count_failures([good, crashed, drifted], "d0", originals) == (6, 4)

    cli = {"kind": "cli", "exit_code": 0, "digest": "d0", "cells_expected": 27, "cells_ok": 27}
    assert layers.count_failures([cli], "d0", {}) == (28, 0)
    assert layers.count_failures([dict(cli, exit_code=1)], "d0", {}) == (28, 28)
    assert layers.count_failures([dict(cli, cells_ok=25)], "d0", {}) == (28, 2)
    # Killed at its timeout: exit_code is None.
    assert layers.count_failures([dict(cli, exit_code=None)], "d0", {}) == (28, 28)


def test_digest_is_order_independent_and_content_sensitive():
    cells = [cell("agrep", "speculating"), cell("xds", "speculating", cycles=7)]
    digest = layers.sim_digest(cells)
    assert layers.sim_digest(list(reversed(cells))) == digest
    assert layers.sim_digest([cells[0], cell("xds", "speculating", cycles=8)]) != digest
    moved = cell("agrep", "speculating")
    moved["counters"] = {"a": 1, "b": 3}
    assert layers.sim_digest([moved, cells[1]]) != digest


def test_summarize_reports_median_quartiles_and_count():
    summary = layers.summarize([1.0, 2.0, 3.0, 4.0, 5.0])
    assert summary == {"median": 3.0, "q1": 1.5, "q3": 4.5, "n": 5}
    assert layers.summarize([2.5]) == {"median": 2.5, "q1": 2.5, "q3": 2.5, "n": 1}


def test_model_counts_sum_cells_and_guard_empty_ratios():
    cells = [
        {"instructions": 10, "events": 2, "counters": {"cache.prefetched_blocks": 4,
         "cache.prefetched_fully": 1, "cache.prefetched_partial": 2, "app.read_calls": 5},
         "hint_lifecycle": {"disclosed": 8, "consumed": 6},
         "stall": {"wall": 100, "compute": 25, "demand_stall": 70, "checks": 5},
         "cow_regions": 3, "audit_records": 1},
        {"instructions": 5, "events": 1, "counters": {"app.read_calls": 1},
         "hint_lifecycle": None, "stall": None, "cow_regions": 0, "audit_records": 0},
    ]
    counts = layers.model_counts(cells)
    assert counts["vm.instructions"] == 15 and counts["sim.events"] == 3
    assert counts["app.read_calls"] == 6
    assert counts["cache.prefetch_useful_ratio"] == pytest.approx(0.75)
    assert counts["tip.hint_consumed_ratio"] == pytest.approx(0.75)
    assert counts["stall.demand_share"] == pytest.approx(0.70)
    assert counts["spec.cow_regions_copied"] == 3
    assert layers.model_counts([cells[1]])["tip.hint_consumed_ratio"] == 0.0


def test_fig3_error_is_the_mean_distance_to_the_paper():
    originals = {"agrep": cell("agrep", "original", cycles=100),
                 "gnuld": cell("gnuld", "original", cycles=200)}
    cells = [cell("agrep", "speculating", cycles=40),    # 60 % vs 69 %
             cell("gnuld", "speculating", cycles=120),   # 40 % vs 29 %
             cell("postgres20", "speculating", cycles=1)]  # not in the paper's figure
    paper = {"agrep": 69.0, "gnuld": 29.0}
    assert layers.fig3_error_pp(cells, originals, "speculating", paper) == pytest.approx(10.0)
    assert layers.fig3_error_pp(cells, originals, "manual", paper) is None


def test_workload_and_seed_parsing():
    spec = run.load_spec()
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(run.WORKLOADS)
    parser = run.build_parser(names, spec["run_seconds"])
    args = parser.parse_args(["--workload", "fuzz_cli", "--seed", "7", "--trace", "1"])
    assert (args.workload, args.seed, args.trace) == ("fuzz_cli", 7, 1)
    defaults = parser.parse_args([])
    assert (defaults.workload, defaults.seed, defaults.trace) == (None, 1999, None)
    assert defaults.seconds == spec["run_seconds"]
    with pytest.raises(SystemExit):
        parser.parse_args(["--workload", "nope"])


def test_benchmark_json_names_are_unique_and_listed(capsys):
    spec = run.load_spec()
    declared = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(declared) == len(set(declared))
    assert len(spec["per_layer"]) <= 128
    assert "setup_s" in declared
    for layer in layers.LAYERS:
        assert f"{layer}.self_s" in declared
    run.print_list(spec)
    listed = capsys.readouterr().out
    assert all(name in listed for name in declared)
    assert json.dumps(spec)  # plain JSON types only
