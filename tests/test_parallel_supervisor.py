"""Tests for the cell engine and its worker pool.

The kill matrix: parallel results byte-identical to serial and to the
pinned digests; a worker
killed mid-cell (the cell re-runs to the payload the serial loop
computes); a death between the journal append and the report; repeated
deaths (typed ``WorkerCrash``); a raising cell (the serial loop's
exception, after the cells before it have finished); progress reported
in spec order; pool-startup degradation; parent SIGKILL, with no worker
outliving it, then a resume equal to an uninterrupted run; SIGTERM at
``jobs`` 1 and 2; the CLI ``--jobs`` wiring; and the one-pipeline
guarantees (every ``--jobs`` value prints the serial stdout; a serial
resume picks up what a killed parallel run left; a failing registry
update is reported in every mode).
"""

import functools
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.errors import CheckpointError, WorkerCrash
from repro.faults.plan import PROFILES
from repro.harness import parallel as engine
from repro.harness.checkpoint import SweepCheckpoint, append_cell
from repro.harness.experiments import SWEEP_POINTS, sweep_parallel_cells
from repro.harness.parallel import run_cells
from repro.registry.recorder import record_results
from repro.registry.store import read_journal
from tests.conftest import digest_of

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(TESTS_DIR), "src")
#: Sweep cells come app-major; at one point the first six span two apps.
FIRST_POINT = SWEEP_POINTS["cache"][:1]


# ---------------------------------------------------------------------------
# Synthetic cell runners (module-level: pickled by reference into workers)
# ---------------------------------------------------------------------------

def ok_cell(key, value=0):
    return {"key": key, "value": value}


def counted_cell(key, runs_dir, seconds=0.0):
    """Append the running pid once per execution, so tests can count real
    runs and find the processes that ran them."""
    with open(os.path.join(runs_dir, f"{key}.runs"), "a") as handle:
        handle.write(f"{os.getpid()}\n")
    if seconds:
        time.sleep(seconds)
    return {"key": key, "value": 1}


def raise_after(key, seconds):
    time.sleep(seconds)
    raise RuntimeError(f"poisoned cell {key}")


def timed_cell(key, seconds):
    """Sleep, then report when the cell ended (one clock for every process)."""
    time.sleep(seconds)
    return {"key": key, "ended": time.monotonic()}


def crash_once(marker_dir, key, fn, *args):
    """``fn(*args)``, but SIGKILL the running worker on the first attempt."""
    marker = os.path.join(marker_dir, key.replace("/", "_") + ".crashed")
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        os.kill(os.getpid(), signal.SIGKILL)
    return fn(*args)


def append_then_crash_once(marker_dir, path, key, payload):
    """A journal that SIGKILLs its worker after a cell's first append."""
    append_cell(path, key, payload)
    marker = os.path.join(marker_dir, f"{key}.appended")
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        os.kill(os.getpid(), signal.SIGKILL)


def crash_always_cell(key):
    os.kill(os.getpid(), signal.SIGKILL)
    raise AssertionError("unreachable")


def runs_of(key, runs_dir):
    path = os.path.join(runs_dir, f"{key}.runs")
    if not os.path.exists(path):
        return 0
    with open(path) as handle:
        return len(handle.readlines())


def pids_of(runs_dir):
    """Every process that ran a ``counted_cell`` in ``runs_dir``."""
    pids = set()
    for name in os.listdir(runs_dir):
        if name.endswith(".runs"):
            with open(os.path.join(runs_dir, name)) as handle:
                pids.update(int(line) for line in handle)
    return pids


def alive(pid):
    """Whether ``pid`` is a running process (a zombie has exited)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"


def survivors(pids, timeout_s=5.0):
    """Those of ``pids`` still running after up to ``timeout_s``."""
    deadline = time.monotonic() + timeout_s
    while any(alive(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    return {pid for pid in pids if alive(pid)}


def group_members(pgid):
    """Running processes (zombies have exited) of process group ``pgid``."""
    members = set()
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as handle:
                state, _ppid, pgrp = handle.read().rsplit(")", 1)[1].split()[:3]
        except (OSError, ValueError):
            continue
        if int(pgrp) == pgid and state != "Z":
            members.add(int(name))
    return members


def canonical(results):
    return {key: json.dumps(payload, sort_keys=True)
            for key, payload in results.items()}


def _recorded_cells(path):
    """Cells durably recorded in the checkpoint journal at ``path``."""
    return {record["cell"] for record in read_journal(path)
            if "payload" in record}


# ---------------------------------------------------------------------------
# Determinism guard
# ---------------------------------------------------------------------------

#: The pinned grid: the cache sweep plus agrep fault-free and under every
#: profile that kills no disk, at scale 0.2 (45 cells).  Each digest was
#: recorded once and every interpreter must reproduce it byte for byte; a
#: change that moves one has moved results.  Re-pin only after showing the
#: old and new payloads equal but for what the change meant to move.
PINNED_PROFILES = ("none",) + tuple(sorted(
    name for name in PROFILES
    if name != "none" and not PROFILES[name].permanent_death
))
SWEEP_DIGEST = (
    "9644f123d276b00e20df3967f68325283faeb6821d6153d3decf846227dae0a9")
#: The first four cells of the cache sweep's first point.
FIRST_CELLS_DIGEST = (
    "3ff8a5c635da5260850f6c29fa1a5e15fef3410d0ee69209ba43ad6dfaa80eb8")
#: The cache sweep's compacted registry, and that of its first three cells.
#: Records carry the code version, so the pins hold under this fixed one.
REGISTRY_META = {"kind": "sweep-cell", "code_version": "bench-registry"}
REGISTRY_DIGEST = (
    "e211760195cce35299c76c44ad09c63d6fe60f336cba12f3bf9e4fff8c922819")
FIRST_CELLS_REGISTRY_DIGEST = (
    "f64f21f55c0b6b8d581327f3a8030aeee67cea3b5d6168b4029e704f356704d8")


@pytest.fixture(scope="module")
def pinned_grid(tmp_path_factory):
    """``{jobs: (sweep outcome, chaos outcome, registry path)}`` for the
    pinned grid run serially and on four workers; each run records its
    cache sweep into a registry of its own."""
    tmp = tmp_path_factory.mktemp("pinned")
    sweep = sweep_parallel_cells("cache", workload_scale=0.2)
    chaos = sweep_parallel_cells(
        "degraded", workload_scale=0.2, points=PINNED_PROFILES,
        apps=("agrep",),
    )
    runs = {}
    for jobs in (1, 4):
        registry = tmp / f"registry-{jobs}.jsonl"
        runs[jobs] = (
            run_cells(sweep, jobs=jobs, registry_path=str(registry),
                      registry_meta=REGISTRY_META),
            run_cells(chaos, jobs=jobs),
            registry,
        )
    return runs


class TestDeterminism:
    def test_parallel_sweep_cells_byte_identical_to_serial(self, pinned_grid):
        results = {}
        for jobs, (sweep, chaos, _) in pinned_grid.items():
            for outcome in (sweep, chaos):
                assert outcome.stats.mode == (
                    "serial" if jobs == 1 else "parallel")
                assert outcome.stats.worker_crashes == 0
            results[jobs] = {**sweep.results, **chaos.results}
        assert len(results[1]) == 45
        assert canonical(results[4]) == canonical(results[1])
        assert digest_of(results[1]) == SWEEP_DIGEST
        first = sweep_parallel_cells(
            "cache", workload_scale=0.2, points=FIRST_POINT)[:4]
        assert digest_of({key: results[1][key] for key, _, _ in first}) \
            == FIRST_CELLS_DIGEST

    def test_parallel_chaos_cells_byte_identical_to_serial(self):
        profile = next(name for name in sorted(PROFILES) if name != "none")
        cells = sweep_parallel_cells(
            "degraded", workload_scale=0.2,
            points=("none", profile), apps=("agrep",),
        )
        serial = run_cells(cells, jobs=1)
        parallel = run_cells(cells, jobs=2)
        assert canonical(serial.results) == canonical(parallel.results)

    def test_parallel_registry_byte_identical_to_serial(self, pinned_grid,
                                                         tmp_path):
        serial_bytes, parallel_bytes = (
            pinned_grid[jobs][2].read_bytes() for jobs in (1, 4))
        assert serial_bytes == parallel_bytes
        assert hashlib.sha256(serial_bytes).hexdigest() == REGISTRY_DIGEST
        # A ledger of fewer cells is recorded from the same payloads.
        sweep = pinned_grid[1][0]
        first = sweep_parallel_cells("cache", workload_scale=0.2)[:3]
        path = tmp_path / "first.jsonl"
        record_results(str(path),
                       {key: sweep.results[key] for key, _, _ in first},
                       REGISTRY_META)
        assert hashlib.sha256(path.read_bytes()).hexdigest() \
            == FIRST_CELLS_REGISTRY_DIGEST

    def test_parallel_checkpoint_file_matches_serial(self, tmp_path):
        cells = sweep_parallel_cells(
            "cache", workload_scale=0.2, points=FIRST_POINT)[:4]
        serial_path = str(tmp_path / "serial.ckpt")
        parallel_path = str(tmp_path / "parallel.ckpt")
        run_cells(cells, jobs=1, checkpoint_path=serial_path,
                  identity="determinism")
        run_cells(cells, jobs=2, checkpoint_path=parallel_path,
                  identity="determinism")
        with open(serial_path, "rb") as handle:
            serial_bytes = handle.read()
        with open(parallel_path, "rb") as handle:
            parallel_bytes = handle.read()
        assert serial_bytes == parallel_bytes
        assert sorted(_recorded_cells(serial_path)) == sorted(
            key for key, _, _ in cells)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_each_cell_is_appended_exactly_once(self, tmp_path, jobs,
                                                monkeypatch):
        """Whoever ran a cell writes it, once: before compaction the journal
        is the header plus one line per cell, and about as long as the
        compacted file (bytes written are O(result), not O(cells x result))."""
        monkeypatch.setattr(SweepCheckpoint, "compact", lambda self: None)
        cells = sweep_parallel_cells(
            "cache", workload_scale=0.2, points=FIRST_POINT)[:6]
        path = str(tmp_path / "sweep.ckpt")
        run_cells(cells, jobs=jobs, checkpoint_path=path, identity="once")
        with open(path, "rb") as handle:
            appended = handle.read()
        lines = appended.splitlines()
        assert len(lines) == 1 + len(cells)
        assert sorted(json.loads(line)["cell"] for line in lines[1:]) == sorted(
            key for key, _, _ in cells)
        monkeypatch.undo()
        SweepCheckpoint.load(path, "once").compact()
        assert os.path.getsize(path) == len(appended)


# ---------------------------------------------------------------------------
# Failure policy: raise / crash / storm / degradation
# ---------------------------------------------------------------------------

class TestSupervision:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_raising_cell_raises_as_in_serial_loop(self, tmp_path, jobs):
        """Both modes end the run with the cell's own exception, once the
        cells finished before it are in the journal."""
        runs_dir = str(tmp_path)
        path = str(tmp_path / "sweep.ckpt")
        cells = [("good-a", counted_cell, ("good-a", runs_dir)),
                 ("good-b", counted_cell, ("good-b", runs_dir)),
                 ("bad", raise_after, ("bad", 0.3))]
        with pytest.raises(RuntimeError, match="poisoned cell bad"):
            run_cells(cells, jobs=jobs, checkpoint_path=path,
                      identity="raise")
        assert _recorded_cells(path) == {"good-a", "good-b"}

    def test_progress_is_in_spec_order_when_the_first_cell_ends_last(self):
        """The pool reports progress as the loop does, whatever order its
        workers finish in."""
        cells = [("slow", timed_cell, ("slow", 0.5)),
                 ("fast-a", timed_cell, ("fast-a", 0.0)),
                 ("fast-b", timed_cell, ("fast-b", 0.0))]
        seen = {}
        for jobs in (1, 2):
            seen[jobs] = []
            outcome = run_cells(cells, jobs=jobs, progress=lambda key, resumed,
                                seen=seen[jobs]: seen.append((key, resumed)))
        ended = {key: payload["ended"] for key, payload in outcome.results.items()}
        assert ended["slow"] > ended["fast-b"]  # the pool finished it last
        assert seen[2] == seen[1] == [(key, False) for key, _, _ in cells]

    def test_progress_before_a_raise_is_the_serial_progress(self):
        """A pool whose later cell raises first still finishes the cells
        before it: it prints what the loop prints up to that cell."""
        cells = [("slow", timed_cell, ("slow", 0.3)),
                 ("bad", raise_after, ("bad", 0.0)),
                 ("after", timed_cell, ("after", 0.0))]
        seen = {}
        for jobs in (1, 2):
            seen[jobs] = []
            with pytest.raises(RuntimeError, match="poisoned cell bad"):
                run_cells(cells, jobs=jobs, progress=lambda key, resumed,
                          seen=seen[jobs]: seen.append(key))
        assert seen[2] == seen[1] == ["slow"]

    def test_worker_crash_mid_cell_rescheduled(self, tmp_path):
        """A worker SIGKILLed mid-cell: the cell re-runs on a fresh worker,
        to the payload the serial loop computes."""
        cells = sweep_parallel_cells("cache", workload_scale=0.2)[:2]
        (key, fn, args), steady = cells
        crashing = [(key, crash_once, (str(tmp_path), key, fn, *args)),
                    steady]
        events = []
        outcome = run_cells(crashing, jobs=2, on_event=events.append)
        serial = run_cells(cells, jobs=1)
        assert canonical(outcome.results) == canonical(serial.results)
        assert outcome.stats.worker_crashes == 1
        # The crashed slot was refilled on top of the initial pool.
        assert outcome.stats.workers_spawned == 3
        assert any("re-running the cell" in message for message in events)

    def test_crash_storm_aborts_with_typed_error(self):
        cells = [("doomed", crash_always_cell, ("doomed",))]
        with pytest.raises(WorkerCrash, match="pool unhealthy"):
            run_cells(cells, jobs=2, on_event=lambda _msg: None)

    def test_pool_startup_failure_degrades_to_serial(self, monkeypatch):
        def broken_start(ctx, journal):
            raise RuntimeError("no processes for you")

        monkeypatch.setattr(engine, "_start_worker", broken_start)
        events = []
        cells = [("a", ok_cell, ("a", 1)), ("b", ok_cell, ("b", 2))]
        outcome = run_cells(cells, jobs=2, on_event=events.append)
        assert outcome.stats.mode == "serial"
        assert sorted(outcome.results) == ["a", "b"]
        assert any("degrading to serial" in message for message in events)

    def test_jobs_one_runs_serial(self):
        outcome = run_cells([("a", ok_cell, ("a", 1))], jobs=1)
        assert outcome.stats.mode == "serial"
        assert outcome.results == {"a": {"key": "a", "value": 1}}


# ---------------------------------------------------------------------------
# Checkpoint integration: resume, older journals, re-run compaction
# ---------------------------------------------------------------------------

class TestCheckpointIntegration:
    def test_resume_restores_instead_of_recomputing(self, tmp_path):
        runs_dir = str(tmp_path)
        path = str(tmp_path / "sweep.ckpt")
        cells = [(f"cell-{i}", counted_cell, (f"cell-{i}", runs_dir))
                 for i in range(4)]
        first = run_cells(cells, jobs=2, checkpoint_path=path,
                          identity="resume-test")
        assert len(first.results) == 4
        second = run_cells(cells, jobs=2, checkpoint_path=path,
                           identity="resume-test", resume=True)
        assert canonical(second.results) == canonical(first.results)
        assert second.stats.cells_restored == 4
        assert second.stats.cells_completed == 0
        for i in range(4):
            assert runs_of(f"cell-{i}", runs_dir) == 1  # never recomputed

    def test_old_quarantined_line_is_refused(self, tmp_path):
        """A ``quarantined`` line an older journal holds is a malformed
        line: the resume refuses the journal before running any cell."""
        path = str(tmp_path / "sweep.ckpt")
        SweepCheckpoint(path, "older")
        with open(path, "a") as handle:
            handle.write(json.dumps({"cell": "flaky", "quarantined": {
                "status": "QUARANTINED", "failures": []}}) + "\n")
        with pytest.raises(CheckpointError, match="not a result record"):
            run_cells([("flaky", ok_cell, ("flaky", 7))], jobs=2,
                      checkpoint_path=path, identity="older", resume=True)

    def test_fresh_start_replaces_old_journal(self, tmp_path):
        """A non-resume start owns the file: the journal of an abandoned
        run — of this sweep or another — never leaks in."""
        path = str(tmp_path / "sweep.ckpt")
        for stale_identity in ("fresh-test", "another-sweep"):
            stale = SweepCheckpoint(path, stale_identity)
            stale.record_payload("stale-cell", {"value": 1})
            outcome = run_cells(
                [("a", ok_cell, ("a", 1))], jobs=1,
                checkpoint_path=path, identity="fresh-test",
            )
            assert "stale-cell" not in outcome.results
            assert _recorded_cells(path) == {"a"}

    def test_worker_death_between_append_and_report(self, tmp_path,
                                                    monkeypatch):
        """A worker that dies after appending its cell but before reporting
        it gets the cell re-run; the second line for the key compacts away."""
        monkeypatch.setattr(engine, "append_cell", functools.partial(
            append_then_crash_once, str(tmp_path)))
        monkeypatch.setattr(SweepCheckpoint, "compact", lambda self: None)
        path = str(tmp_path / "sweep.ckpt")
        cells = [("a", ok_cell, ("a", 1)), ("b", ok_cell, ("b", 2))]
        outcome = run_cells(cells, jobs=2, checkpoint_path=path,
                            identity="crash-test", on_event=lambda _msg: None)
        assert sorted(outcome.results) == ["a", "b"]
        assert outcome.stats.worker_crashes == 2
        with open(path) as handle:
            assert len(handle.readlines()) == 5  # header, a and b twice
        monkeypatch.undo()
        reloaded = SweepCheckpoint.load(path, "crash-test")
        reloaded.compact()
        with open(path) as handle:
            assert len(handle.readlines()) == 3
        assert reloaded.payload("b") == {"key": "b", "value": 2}


# ---------------------------------------------------------------------------
# Kill matrix: parent SIGKILL mid-sweep, SIGTERM at jobs 1 and 2
# ---------------------------------------------------------------------------

_KILL_SCRIPT = """
import sys
sys.path.insert(0, {src!r})
sys.path.insert(0, {tests!r})
from test_parallel_supervisor import counted_cell
from repro.harness.parallel import run_cells

cells = [("cell-%d" % i, counted_cell, ("cell-%d" % i, {runs_dir!r}, {seconds!r}))
         for i in range(8)]
run_cells(cells, jobs={jobs}, checkpoint_path={path!r},
          identity="kill-test", resume=True,
          on_event=lambda _msg: None)
print("COMPLETED")
"""


def _resume(path, runs_dir, jobs):
    """Finish the kill-test sweep in this process; check it is complete."""
    cells = [(f"cell-{i}", counted_cell, (f"cell-{i}", runs_dir, 0.0))
             for i in range(8)]
    outcome = run_cells(cells, jobs=jobs, checkpoint_path=path,
                        identity="kill-test", resume=True)
    assert outcome.results == {f"cell-{i}": {"key": f"cell-{i}", "value": 1}
                               for i in range(8)}
    return outcome


class TestKillMatrix:
    def _launch(self, tmp_path, jobs, seconds=0.3):
        runs_dir = str(tmp_path)
        path = str(tmp_path / "sweep.ckpt")
        script = _KILL_SCRIPT.format(src=SRC_DIR, tests=TESTS_DIR,
                                     runs_dir=runs_dir, path=path, jobs=jobs,
                                     seconds=seconds)
        process = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
        return process, path, runs_dir

    def _wait_until(self, process, condition, what, timeout_s=60.0):
        deadline = time.monotonic() + timeout_s
        while not condition():
            if process.poll() is not None:
                pytest.fail("sweep subprocess exited before the kill point")
            if time.monotonic() > deadline:
                pytest.fail(f"no {what} within {timeout_s}s")
            time.sleep(0.05)

    def test_parent_sigkill_then_resume_equals_uninterrupted(self, tmp_path):
        process, path, runs_dir = self._launch(tmp_path, jobs=2)
        try:
            self._wait_until(process, lambda: len(_recorded_cells(path)) >= 2,
                             "2 checkpointed cells")
        finally:
            process.kill()
            process.wait(timeout=30)
        assert not survivors(pids_of(runs_dir))

        # Resume in-process: the merged result set must equal an
        # uninterrupted run's, with the survivors restored, not re-run.
        restored = _recorded_cells(path)
        assert len(restored) >= 2
        outcome = _resume(path, runs_dir, jobs=2)
        assert outcome.stats.cells_restored >= len(restored)
        for key in restored:
            assert runs_of(key, runs_dir) == 1  # restored, never recomputed

    def test_parent_sigkill_mid_cell_leaves_no_worker(self, tmp_path):
        """Workers sitting in a 60 s cell exit once their parent is killed."""
        process, _, runs_dir = self._launch(tmp_path, jobs=2, seconds=60.0)
        try:
            self._wait_until(process, lambda: len(pids_of(runs_dir)) >= 2,
                             "2 workers in a cell")
        finally:
            process.kill()
            process.wait(timeout=30)
        assert not survivors(pids_of(runs_dir))

    def _sigterm_then_resume(self, tmp_path, jobs):
        process, path, runs_dir = self._launch(tmp_path, jobs=jobs)
        try:
            self._wait_until(process, lambda: _recorded_cells(path),
                             "checkpointed cell")
            process.send_signal(signal.SIGTERM)
            returncode = process.wait(timeout=30)
        finally:
            process.kill()
            process.wait(timeout=30)
        assert returncode == 128 + signal.SIGTERM  # conventional 143
        assert not survivors(pids_of(runs_dir) - {process.pid})

        flushed = _recorded_cells(path)
        assert flushed
        _resume(path, runs_dir, jobs)
        for key in flushed:
            assert runs_of(key, runs_dir) == 1

    def test_sigterm_flushes_checkpoint_before_exit(self, tmp_path):
        self._sigterm_then_resume(tmp_path, jobs=1)

    def test_sigterm_of_a_parallel_run_exits_143_and_resumes(self, tmp_path):
        self._sigterm_then_resume(tmp_path, jobs=2)


# ---------------------------------------------------------------------------
# Sweep / oracle / CLI integration
# ---------------------------------------------------------------------------

class TestIntegration:
    def test_run_sweep_resumable_parallel_matches_serial(self, tmp_path):
        from repro.harness.experiments import run_sweep

        serial = run_sweep("cache", workload_scale=0.1)
        parallel = run_sweep(
            "cache", workload_scale=0.1,
            checkpoint_path=str(tmp_path / "sweep.ckpt"), jobs=2,
        )
        assert parallel.keys() == serial.keys()
        for point, matrix in serial.items():
            for app, by_variant in matrix.items():
                for variant, result in by_variant.items():
                    other = parallel[point][app][variant]
                    assert other.to_jsonable() == result.to_jsonable()

        # A sub-grid is the corresponding slice of the full sweep.
        sliced = run_sweep("cache", points=(6.0,), apps=("agrep",),
                           workload_scale=0.1)
        assert list(sliced) == [6.0] and list(sliced[6.0]) == ["agrep"]
        for variant, result in serial[6.0]["agrep"].items():
            assert (sliced[6.0]["agrep"][variant].to_jsonable()
                    == result.to_jsonable())

    def test_oracle_parallel_matches_serial(self):
        from repro.harness.oracle import run_oracle

        serial = run_oracle(("agrep",), profiles=(None,),
                            workload_scale=0.2)
        parallel = run_oracle(("agrep",), profiles=(None,),
                              workload_scale=0.2, jobs=2)
        assert parallel.passed
        assert parallel.to_jsonable() == serial.to_jsonable()

    def test_cli_sweep_forwards_jobs(self, monkeypatch, capsys):
        from repro import cli
        from repro.harness import experiments

        captured = {}

        def fake_resumable(kind, **kwargs):
            captured["kind"] = kind
            captured.update(kwargs)
            from repro.harness.results import RunResult

            fake = RunResult(app="agrep", variant="original", cycles=1,
                             cpu_hz=1, counters={}, output=b"",
                             read_trace=())
            from repro.harness.config import APPS, Variant
            from repro.harness.experiments import SWEEP_POINTS

            return {point: {app: {v.value: fake for v in Variant}
                            for app in APPS}
                    for point in SWEEP_POINTS[kind]}

        monkeypatch.setattr(experiments, "run_sweep", fake_resumable)
        exit_code = cli.main(["sweep", "cache", "--scale", "0.2",
                              "--jobs", "3"])
        assert exit_code == 0
        assert captured["kind"] == "cache"
        assert captured["jobs"] == 3
        assert captured["progress"] is None  # a plain sweep prints tables
        out = capsys.readouterr().out
        assert out.startswith("Table 7") and "supervisor" not in out

    def test_cli_run_oracle_forwards_jobs(self, monkeypatch):
        from repro import cli
        from repro.harness import oracle as oracle_mod
        from repro.harness.oracle import OracleReport

        captured = {}

        def fake_oracle(apps, **kwargs):
            captured["apps"] = tuple(apps)
            captured.update(kwargs)
            return OracleReport()

        monkeypatch.setattr(oracle_mod, "run_oracle", fake_oracle)
        exit_code = cli.main(["run", "agrep", "--oracle", "--jobs", "4",
                              "--scale", "0.2"])
        assert exit_code == 0
        assert captured["apps"] == ("agrep",)
        assert captured["jobs"] == 4

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    @pytest.mark.parametrize("command", [
        ["sweep", "cache", "--scale", "0.05", "--checkpoint", "cells.ckpt"],
        ["fuzz", "--budget", "1", "--apps", "agrep", "--checkpoint", "cells.ckpt"],
        ["run", "agrep", "--oracle", "--oracle-report", "report.json"],
    ])
    def test_cli_refuses_fewer_than_one_job(self, command, jobs, tmp_path, monkeypatch, capsys):
        from repro import cli

        # Nothing is written: not the checkpoint, the report or fuzz-failures/.
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            cli.main([*command, f"--jobs={jobs}"])
        assert exit_info.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert [line for line in err.splitlines() if "error" in line] == [
            f"repro {command[0]}: error: argument --jobs: must be at least 1, got {jobs}"]
        assert os.listdir(tmp_path) == []


# ---------------------------------------------------------------------------
# One pipeline: the same engine behind every sweep / oracle mode
# ---------------------------------------------------------------------------

def _broken_record_payload(*_args, **_kwargs):
    raise RuntimeError("registry disk full")


_RAN = "  [ran    ] "


class TestOnePipeline:
    # One sweep kind: the engine is kind-agnostic, and TestDeterminism
    # compares the cache and chaos grids byte for byte.
    def test_every_jobs_value_prints_the_serial_stdout(self, tmp_path, capsys):
        """A checkpointed sweep and a fuzz campaign print the same bytes at
        ``--jobs`` 1, 2 and 3.  A plain sweep prints those bytes without
        the progress lines, and resuming a finished checkpoint restores
        every cell and prints the same tables."""
        from repro import cli

        def stdout(*argv):
            assert cli.main(list(argv)) == 0
            return capsys.readouterr().out

        sweep = ["sweep", "cache", "--scale", "0.05"]
        outs = {jobs: stdout(*sweep, "--jobs", str(jobs), "--checkpoint",
                             str(tmp_path / f"ck{jobs}.json"))
                for jobs in (1, 2, 3)}
        assert outs[3] == outs[2] == outs[1]
        lines = outs[1].splitlines()
        assert sum(line.startswith(_RAN) for line in lines) == 27
        assert stdout(*sweep).splitlines() == [
            line for line in lines if not line.startswith(_RAN)]
        assert stdout(*sweep, "--checkpoint", str(tmp_path / "ck1.json"),
                      "--resume") == outs[1].replace("[ran    ]", "[resumed]")

        fuzz = ["fuzz", "--budget", "4", "--apps", "agrep,gnuld"]
        outs = {jobs: stdout(*fuzz, "--jobs", str(jobs)) for jobs in (1, 2, 3)}
        assert outs[3] == outs[2] == outs[1]
        assert "fuzz: PASS (4/4 cells clean" in outs[1]

    def test_serial_resume_reads_duplicates_and_torn_tail(self, tmp_path,
                                                          capsys):
        """A serial ``--resume`` adopts the journal a killed ``--jobs N``
        run leaves: cells appended by the parent and by workers (some
        twice), then a torn line."""
        from repro import cli

        path = str(tmp_path / "ck.json")
        done = run_cells(
            sweep_parallel_cells("cache", workload_scale=0.1)[:12], jobs=1,
        ).results
        keys = sorted(done)
        main = SweepCheckpoint(path, "sweep:cache:scale=0.1")
        for key in keys[:5]:
            main.record_payload(key, done[key])
        for key in keys[3:]:
            append_cell(path, key, done[key])
        with open(path, "a") as handle:
            handle.write('{"cell": "cache=12/xds/manual", "payl')

        assert cli.main(["sweep", "cache", "--scale", "0.1",
                         "--checkpoint", path, "--resume"]) == 0
        out = capsys.readouterr().out
        assert out.count("[resumed]") == 12
        assert out.count("[ran    ]") == 27 - 12

        reference = str(tmp_path / "reference.json")
        assert cli.main(["sweep", "cache", "--scale", "0.1",
                         "--checkpoint", reference]) == 0
        with open(path, "rb") as ours, open(reference, "rb") as theirs:
            assert ours.read() == theirs.read()

    def test_resume_of_a_version_1_checkpoint_is_a_typed_cli_error(
            self, tmp_path, capsys):
        from repro import cli

        path = tmp_path / "old.ckpt"
        path.write_text(json.dumps(
            {"version": 1, "identity": "sweep:cache:scale=0.1", "cells": {}},
            indent=2, sort_keys=True))
        assert cli.main(["sweep", "cache", "--scale", "0.1",
                         "--checkpoint", str(path), "--resume"]) == 1
        captured = capsys.readouterr()
        assert "[ran    ]" not in captured.out
        assert "CheckpointError" in captured.err
        assert "version 2 cell journal" in captured.err
        assert "Traceback" not in captured.err

    def test_serial_sweep_reports_failing_registry_update(
            self, tmp_path, capsys, monkeypatch):
        from repro.harness import experiments
        from repro.registry import recorder

        monkeypatch.setattr(recorder, "record_payload",
                            _broken_record_payload)
        sweep = experiments.run_sweep(
            "cache", points=(12.0,), workload_scale=0.1,
            registry_path=str(tmp_path / "reg.jsonl"),
        )
        assert list(sweep) == [12.0]  # results are unaffected
        err = capsys.readouterr().err
        assert "run registry update failed" in err
        assert "results and checkpoint are unaffected" in err

    def test_serial_oracle_reports_failing_registry_update(
            self, tmp_path, capsys, monkeypatch):
        from repro.harness.oracle import run_oracle
        from repro.registry import recorder

        monkeypatch.setattr(recorder, "record_payload",
                            _broken_record_payload)
        report = run_oracle(("agrep",), profiles=(None,), workload_scale=0.2,
                            registry_path=str(tmp_path / "reg.jsonl"))
        assert report.passed
        err = capsys.readouterr().err
        assert "run registry update failed" in err
        assert "results and checkpoint are unaffected" in err

    def test_parent_sigkill_then_serial_resume_loses_nothing(
            self, tmp_path, capsys):
        """SIGKILL a ``--jobs 2`` CLI sweep mid-run: no worker outlives
        it, and a *serial* ``--resume`` restores every completed cell from
        the journal and ends with the checkpoint and registry an
        uninterrupted serial run writes."""
        from repro import cli

        path = str(tmp_path / "ck.json")
        registry = str(tmp_path / "reg.jsonl")
        argv = ["sweep", "cache", "--scale", "0.2",
                "--checkpoint", path, "--registry", registry]
        # A session of its own: the sweep and its workers are one group.
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", *argv, "--jobs", "2"],
            env={**os.environ, "PYTHONPATH": SRC_DIR},
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 60.0
            while len(_recorded_cells(path)) < 4:
                assert process.poll() is None, "sweep exited before the kill"
                assert time.monotonic() < deadline, "no checkpointed cells"
                time.sleep(0.05)
            assert len(group_members(process.pid)) >= 3  # parent, 2 workers
        finally:
            process.kill()
            process.wait(timeout=30)
        # Orphaned workers check getppid() twice a second.
        deadline = time.monotonic() + 5.0
        while group_members(process.pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not group_members(process.pid), "a worker outlived its parent"
        survived = _recorded_cells(path)

        assert cli.main([*argv, "--resume"]) == 0
        out = capsys.readouterr().out
        assert out.count("[resumed]") == len(survived) >= 4
        assert out.count("[ran    ]") == 27 - len(survived)
        assert sorted(os.listdir(tmp_path)) == ["ck.json", "reg.jsonl"]

        reference = str(tmp_path / "reference.jsonl")
        reference_ckpt = str(tmp_path / "reference.json")
        assert cli.main(["sweep", "cache", "--scale", "0.2",
                         "--checkpoint", reference_ckpt,
                         "--registry", reference]) == 0
        for ours, theirs in ((registry, reference), (path, reference_ckpt)):
            with open(ours, "rb") as left, open(theirs, "rb") as right:
                assert left.read() == right.read()
