"""Tests for crash-safe harness checkpointing and resume."""

import dataclasses
import json
import os
import signal
import stat
import subprocess
import sys
import threading
import time

import pytest

from repro.errors import CheckpointError
from repro.harness.checkpoint import (
    CHECKPOINT_VERSION,
    SweepCheckpoint,
    append_cell,
    atomic_write_json,
    unwind_on_signals,
)
from repro.harness.experiments import SWEEP_POINTS, sweep_parallel_cells
from repro.harness.parallel import run_cells
from repro.harness.results import RunResult


def make_result(key: str, cycles: int = 1000) -> RunResult:
    return RunResult(
        app="agrep", variant="speculating", cycles=cycles, cpu_hz=500_000_000,
        counters={"app.read_calls": 7, "spec.restarts": 2},
        output=f"output of {key}".encode(),
        read_trace=((1, 0, 100), (1, 100, 100)),
    )


class TestAtomicWrite:
    def test_writes_valid_json(self, tmp_path):
        path = str(tmp_path / "out.json")
        atomic_write_json(path, {"a": 1})
        with open(path) as handle:
            assert json.load(handle) == {"a": 1}

    def test_replaces_existing_file(self, tmp_path):
        path = str(tmp_path / "out.json")
        atomic_write_json(path, {"v": 1})
        atomic_write_json(path, {"v": 2})
        with open(path) as handle:
            assert json.load(handle) == {"v": 2}

    def test_no_temp_litter_on_success(self, tmp_path):
        atomic_write_json(str(tmp_path / "out.json"), [1, 2, 3])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]

    def test_fsyncs_file_and_containing_directory(self, tmp_path, monkeypatch):
        """Durability needs two fsyncs: the temp file's data before the
        rename, and the directory's metadata after it — otherwise a
        power-loss-style kill can roll the rename back."""
        synced = []
        real_fsync = os.fsync

        def recording_fsync(fd):
            synced.append(stat.S_ISDIR(os.fstat(fd).st_mode))
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        atomic_write_json(str(tmp_path / "out.json"), {"a": 1})
        assert synced == [False, True]  # file data first, then directory

    def test_directory_fsync_failure_is_best_effort(self, tmp_path,
                                                    monkeypatch):
        real_fsync = os.fsync

        def flaky_fsync(fd):
            if stat.S_ISDIR(os.fstat(fd).st_mode):
                raise OSError("EINVAL: fsync on directory unsupported")
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", flaky_fsync)
        path = str(tmp_path / "out.json")
        atomic_write_json(path, {"a": 1})  # must not raise
        with open(path) as handle:
            assert json.load(handle) == {"a": 1}

    def test_crash_window_never_corrupts(self, tmp_path):
        """SIGKILL a writer loop at random points; the target file must
        always hold one complete, valid JSON state — never a torn write."""
        path = str(tmp_path / "state.json")
        script = (
            "import sys, time\n"
            f"sys.path.insert(0, {os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), 'src')!r})\n"
            "from repro.harness.checkpoint import atomic_write_json\n"
            "i = 0\n"
            "while True:\n"
            f"    atomic_write_json({path!r}, {{'gen': i, 'pad': 'x' * 4096}})\n"
            "    i += 1\n"
        )
        for attempt in range(5):
            process = subprocess.Popen(
                [sys.executable, "-c", script],
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            )
            try:
                time.sleep(0.05 + 0.03 * attempt)  # vary the kill point
            finally:
                process.kill()
                process.wait(timeout=30)
            if not os.path.exists(path):
                continue  # killed before the first write completed
            with open(path) as handle:
                state = json.load(handle)  # raises if torn
            assert set(state) == {"gen", "pad"}
            assert len(state["pad"]) == 4096


class TestUnwindOnSignals:
    def test_sigterm_exits_with_143(self):
        with pytest.raises(SystemExit) as excinfo, unwind_on_signals():
            os.kill(os.getpid(), signal.SIGTERM)
            time.sleep(1)  # handler fires before the sleep finishes
            pytest.fail("SIGTERM handler did not fire")
        assert excinfo.value.code == 128 + signal.SIGTERM

    def test_sigint_raises_keyboard_interrupt(self):
        before = signal.getsignal(signal.SIGINT)
        with pytest.raises(KeyboardInterrupt), unwind_on_signals():
            os.kill(os.getpid(), signal.SIGINT)
            time.sleep(1)
            pytest.fail("SIGINT handler did not fire")
        assert signal.getsignal(signal.SIGINT) is before

    def test_outside_the_main_thread_it_installs_nothing(self):
        seen = []

        def body():
            with unwind_on_signals():
                seen.append(signal.getsignal(signal.SIGTERM))

        before = signal.getsignal(signal.SIGTERM)
        worker = threading.Thread(target=body)
        worker.start()
        worker.join()
        assert seen == [before]

    def test_handlers_restored_after_scope(self):
        before = signal.getsignal(signal.SIGTERM)
        with unwind_on_signals():
            assert signal.getsignal(signal.SIGTERM) is not before
        assert signal.getsignal(signal.SIGTERM) is before


#: A non-default value for every declared field type of ``RunResult``.
SAMPLE_BY_TYPE = {
    "str": "x",
    "int": 7,
    "float": 2.5,
    "bytes": b"\x00out\xff",
    "Dict[str, int]": {"k": 3},
    "Optional[str]": "why",
    "Optional[object]": object(),
    "Tuple[Tuple[int, int, int], ...]": ((1, 0, 100), (1, 100, 100)),
}

#: Every key a serialized ``RunResult`` carries.  Adding a field without
#: deciding how it is serialized fails here.
GOLDEN_KEYS = [
    "app", "audit_head_digest", "audit_records", "counters", "cpu_hz",
    "cycles", "fault_profile", "footprint_bytes", "hint_lead_median",
    "hint_lifecycle", "median_hint_interval", "median_read_interval",
    "output_b64", "page_faults", "page_reclaims", "params_digest",
    "pct_prefetches_before_demand", "read_trace", "schema_version", "seed",
    "stall_breakdown", "variant",
]


class TestRunResultRoundtrip:
    def test_roundtrip_preserves_fields(self):
        """Every field, set to a non-default value, survives the codec
        (through real JSON text) — except the transform report, which is
        deliberately not serialized."""
        specs = dataclasses.fields(RunResult)
        original = RunResult(**{f.name: SAMPLE_BY_TYPE[f.type] for f in specs})
        blank = RunResult(app="", variant="", cycles=0, cpu_hz=0)
        payload = original.to_jsonable()
        restored = RunResult.from_jsonable(json.loads(json.dumps(payload)))
        for spec in specs:
            value = getattr(original, spec.name)
            assert value != getattr(blank, spec.name), spec.name
            if spec.name == "transform_report":
                assert restored.transform_report is None
            else:
                assert getattr(restored, spec.name) == value, spec.name
        assert sorted(payload) == GOLDEN_KEYS
        assert restored.to_jsonable() == payload

    def test_jsonable_is_json_serializable(self):
        blob = json.dumps(make_result("x").to_jsonable())
        assert "output_b64" in blob


class TestSweepCheckpoint:
    def test_record_and_reload(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        checkpoint = SweepCheckpoint(path, "sweep:test")
        cell_a = make_result("cell-a").to_jsonable()
        cell_b = make_result("cell-b", cycles=2000).to_jsonable()
        checkpoint.record_payload("cell-a", cell_a)
        checkpoint.record_payload("cell-b", cell_b)

        reloaded = SweepCheckpoint.load(path, "sweep:test")
        assert "cell-a" in reloaded and "cell-c" not in reloaded
        assert reloaded.payload("cell-a") == cell_a
        assert RunResult.from_jsonable(reloaded.payload("cell-b")).cycles == 2000

    def test_missing_file_is_typed_error(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            SweepCheckpoint.load(str(tmp_path / "absent.json"), "x")

    def test_corrupt_json_is_typed_error(self, tmp_path):
        """Damage before the end of the journal is typed; a torn final
        line is not damage (the writer died mid-append)."""
        path = str(tmp_path / "ckpt.json")
        SweepCheckpoint(path, "x").record_payload("a", {"value": 1})
        with open(path, "a") as handle:
            handle.write('{"cell": "b", "payl')
        assert "a" in SweepCheckpoint.load(path, "x")
        with open(path, "a") as handle:
            handle.write('oad": garbage}\n{"cell": "c", "payload": {}}\n')
        with pytest.raises(CheckpointError, match="corrupt"):
            SweepCheckpoint.load(path, "x")

    def test_wrong_version_is_typed_error(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps({
            "cell": "", "version": CHECKPOINT_VERSION + 1, "identity": "x",
        }) + "\n")
        with pytest.raises(CheckpointError, match=r"version .*3"):
            SweepCheckpoint.load(str(path), "x")

    @pytest.mark.parametrize("text", [
        # A version-1 checkpoint: one indented JSON document.
        json.dumps({"version": 1, "identity": "x", "cells": {}}, indent=2,
                   sort_keys=True),
        "not a journal at all\n",
        "",
    ], ids=["version-1-document", "text-file", "empty-file"])
    def test_non_journal_file_is_typed_error(self, tmp_path, text):
        path = tmp_path / "ckpt.json"
        path.write_text(text)
        with pytest.raises(CheckpointError,
                           match=f"version {CHECKPOINT_VERSION} cell journal"):
            SweepCheckpoint.load(str(path), "x")

    def test_wrong_identity_is_typed_error(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        SweepCheckpoint(path, "sweep:disks")
        with pytest.raises(CheckpointError, match="belongs to sweep"):
            SweepCheckpoint.load(path, "sweep:cache")

    def test_missing_payload_is_typed_error(self, tmp_path):
        checkpoint = SweepCheckpoint(str(tmp_path / "c.json"), "x")
        with pytest.raises(CheckpointError, match="no cell"):
            checkpoint.payload("absent")

    def test_unwritable_flush_is_typed_error(self, tmp_path):
        missing_dir = tmp_path / "no" / "such" / "dir"
        with pytest.raises(CheckpointError, match="cannot write"):
            SweepCheckpoint(str(missing_dir / "c.json"), "x")
        checkpoint = SweepCheckpoint(str(tmp_path / "c.json"), "x")
        checkpoint.path = checkpoint._store.path = str(missing_dir / "c.json")
        with pytest.raises(CheckpointError, match="cannot write"):
            checkpoint.record_payload("a", {"value": 1})
        with pytest.raises(CheckpointError, match="cannot write"):
            checkpoint.compact()

    def test_bad_quarantine_table_is_typed_error(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        SweepCheckpoint(path, "x")
        with open(path, "a") as handle:
            handle.write('{"cell": "p", "quarantined": ["not", "a", "dict"]}\n')
        with pytest.raises(CheckpointError, match="not a result record"):
            SweepCheckpoint.load(path, "x")

    def test_quarantine_roundtrip_and_clear_on_success(self, tmp_path):
        """An older journal's ``quarantined`` line, which no writer produces
        any more, is refused while it is its cell's last line; a later
        result line for the cell supersedes it, in the journal as appended
        and in its compacted form."""
        path = str(tmp_path / "ckpt.json")
        SweepCheckpoint(path, "x")
        record = {"status": "QUARANTINED", "failures": [], "traceback": "tb"}
        with open(path, "a") as handle:
            handle.write(json.dumps({"cell": "poisoned",
                                     "quarantined": record}) + "\n")
        with pytest.raises(CheckpointError, match="not a result record"):
            SweepCheckpoint.load(path, "x")

        append_cell(path, "poisoned", {"value": 1})
        reloaded = SweepCheckpoint.load(path, "x")
        assert reloaded.payload("poisoned") == {"value": 1}
        reloaded.compact()
        assert "poisoned" in SweepCheckpoint.load(path, "x")
        with open(path) as handle:
            assert "quarantined" not in handle.read()

    def test_compacted_form_is_independent_of_append_order(self, tmp_path):
        cells = {f"cell-{i}": {"value": i} for i in range(5)}
        texts = []
        for name, order in (("a", sorted(cells)), ("b", sorted(cells)[::-1])):
            checkpoint = SweepCheckpoint(str(tmp_path / name), "x")
            for key in order:
                checkpoint.record_payload(key, cells[key])
            checkpoint.record_payload(order[0], cells[order[0]])  # duplicate
            checkpoint.compact()
            texts.append((tmp_path / name).read_text())
        assert texts[0] == texts[1]
        lines = texts[0].splitlines()
        assert json.loads(lines[0]) == {
            "cell": "", "identity": "x", "version": CHECKPOINT_VERSION}
        assert [json.loads(line)["cell"] for line in lines[1:]] == sorted(cells)


class _Killed(Exception):
    """Simulated harness kill mid-sweep."""


def run_serial(cells, **kwargs):
    """The engine with zero workers, payloads decoded back to results."""
    outcome = run_cells(cells, jobs=1, **kwargs)
    return {key: RunResult.from_jsonable(payload)
            for key, payload in outcome.results.items()}


class TestRunCells:
    def _cells(self, log):
        def run(key):
            log.append(key)
            return make_result(key, cycles=100 * (len(log))).to_jsonable()
        return [(f"cell-{i}", run, (f"cell-{i}",)) for i in range(4)]

    def test_plain_run_without_checkpoint(self):
        log = []
        results = run_serial(self._cells(log))
        assert len(results) == 4
        assert log == [f"cell-{i}" for i in range(4)]

    def test_killed_sweep_resumes_identically(self, tmp_path):
        """Kill the sweep after two cells; the resumed sweep must restore
        them from the checkpoint and produce results identical to an
        uninterrupted run."""
        path = str(tmp_path / "ckpt.json")

        # Uninterrupted reference (deterministic cells).
        reference = run_serial(self._cells([]))

        # First attempt: the third cell kills the harness.
        killed_log = []
        cells = self._cells(killed_log)
        key = cells[2][0]

        def dying():
            raise _Killed()

        cells[2] = (key, dying, ())
        with pytest.raises(_Killed):
            run_serial(cells, checkpoint_path=path, identity="t")
        assert killed_log == ["cell-0", "cell-1"]

        # Resume: completed cells restored, only the rest re-run.
        resumed_log = []
        results = run_serial(
            self._cells(resumed_log), checkpoint_path=path,
            identity="t", resume=True,
        )
        assert resumed_log == ["cell-2", "cell-3"]  # only missing cells ran
        assert results.keys() == reference.keys()
        for cell_key in reference:
            assert results[cell_key].output == reference[cell_key].output
            assert results[cell_key].read_trace == reference[cell_key].read_trace
            assert results[cell_key].counters == reference[cell_key].counters

    def test_resume_without_checkpoint_starts_fresh(self, tmp_path):
        path = str(tmp_path / "new.json")
        log = []
        results = run_serial(self._cells(log), checkpoint_path=path,
                             identity="t", resume=True)
        assert len(results) == 4
        assert len(log) == 4
        assert os.path.exists(path)

    def test_identity_mismatch_refuses_resume(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        run_serial(self._cells([]), checkpoint_path=path, identity="sweep-a")
        with pytest.raises(CheckpointError, match="belongs to sweep"):
            run_serial(self._cells([]), checkpoint_path=path,
                       identity="sweep-b", resume=True)

    def test_progress_callback_reports_resumed_cells(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        run_serial(self._cells([])[:2], checkpoint_path=path, identity="t")
        seen = []
        run_serial(self._cells([]), checkpoint_path=path, identity="t",
                   resume=True, progress=lambda k, r: seen.append((k, r)))
        assert seen[0] == ("cell-0", True)
        assert seen[2] == ("cell-2", False)


class TestSweepCells:
    def test_cell_grid_shapes(self):
        from repro.harness.config import APPS, Variant

        for kind, points in SWEEP_POINTS.items():
            cells = sweep_parallel_cells(kind, workload_scale=0.2)
            assert len(cells) == len(points) * len(APPS) * len(tuple(Variant))
            keys = [key for key, _, _ in cells]
            assert len(set(keys)) == len(keys)  # unique keys

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep kind"):
            sweep_parallel_cells("nope")
