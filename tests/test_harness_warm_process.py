"""What a cell costs besides its simulation, and that paying it once is safe.

Consecutive cells of one app are built over the same dataset buffers, and
the cell loops freeze the heap they start with so the collection that ends
every cell walks the cell.  Neither may be observable in a result: a warm
process must produce what a fresh interpreter produces, a cell that writes
an input file must not reach the next cell's copy, and the freeze must not
outlive the loop.
"""

import gc
import json
import os
import signal
import subprocess
import sys
import time
import weakref

import pytest

from repro.apps import datasets
from repro.apps.agrep import AgrepWorkload, build_agrep_files
from repro.fs.filesystem import FileSystem
from repro.harness.config import ExperimentConfig, Variant
from repro.harness.experiments import (
    run_config_payload,
    run_sweep,
    sweep_parallel_cells,
)
from repro.harness.parallel import run_cell, run_cells
from repro.harness.runner import build_system
from repro.vm.isa import SYS_OPEN, SYS_WRITE, Reg

from tests.conftest import assemble, make_system, small_system_config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(ROOT, "src")

SCALE = 0.1
SCRIBBLE = b"\xaa" * 64


def fresh_interpreter(source):
    """stdout of ``source`` run by a new interpreter over the same tree."""
    return subprocess.run(
        [sys.executable, "-c", source], check=True, capture_output=True,
        text=True, timeout=120, cwd=ROOT,
        env={**os.environ, "PYTHONPATH": SRC_DIR},
    ).stdout


def canonical(results):
    return json.dumps(results, sort_keys=True)


# ---------------------------------------------------------------------------
# Cell runners (module-level, as the engine's are)
# ---------------------------------------------------------------------------

#: What the cells leave for the test to look at afterwards.
SEEN = {}


def wire_and_raise(key):
    system = make_system()
    SEEN[key] = weakref.ref(system.kernel)
    raise RuntimeError(f"{key} failed after wiring its system")


def _agrep_fs():
    """The file system an agrep cell at ``SCALE`` is built over."""
    fs = FileSystem(allocation_jitter_blocks=24, seed=1)
    build_agrep_files(fs, AgrepWorkload().scaled(SCALE))
    return fs


def scribbling_cell(key):
    """Overwrite the head of agrep's first input file, from a program."""
    fs = _agrep_fs()
    victim = fs.inode(0)
    before = victim.read_at(0, len(SCRIBBLE))

    def body(asm):
        asm.data_asciiz("path", victim.path)
        asm.data_bytes("junk", SCRIBBLE)
        asm.la(Reg.a0, "path")
        asm.syscall(SYS_OPEN)
        asm.mov(Reg.a0, Reg.v0)
        asm.la(Reg.a1, "junk")
        asm.li(Reg.a2, len(SCRIBBLE))
        asm.syscall(SYS_WRITE)

    system = build_system(small_system_config(), fs)
    system.kernel.spawn(assemble(body))
    system.kernel.run()
    assert before != SCRIBBLE
    return {"key": key, "written": victim.read_at(0, len(SCRIBBLE)).hex()}


def freeze_count_cell(key):
    return {"key": key, "frozen": gc.get_freeze_count()}


def raising_cell(key):
    raise RuntimeError(f"{key} failed")


def sigterm_cell(key):
    os.kill(os.getpid(), signal.SIGTERM)
    time.sleep(5)  # the handler fires before the sleep finishes
    return {"key": key}


# ---------------------------------------------------------------------------

class TestRunCellReclaims:
    def test_a_raising_cell_is_collected_too(self):
        with pytest.raises(RuntimeError, match="after wiring") as excinfo:
            run_cell(wire_and_raise, ("boom",))
        assert SEEN.pop("boom")() is None
        # The traceback still says where the cell failed.
        assert excinfo.traceback[-1].name == "wire_and_raise"

    def test_a_finished_cell_is_collected(self):
        def cell(key):
            system = make_system()
            SEEN[key] = weakref.ref(system.kernel)
            return {"key": key}

        assert run_cell(cell, ("fine",)) == {"key": "fine"}
        assert SEEN.pop("fine")() is None


class TestSharedDatasetIsolation:
    def test_a_cell_that_writes_an_input_file_does_not_reach_the_next(self):
        cfg = ExperimentConfig(app="agrep", workload_scale=SCALE)
        outcome = run_cells([
            ("scribble", scribbling_cell, ("scribble",)),
            ("agrep", run_config_payload, (cfg,)),
        ])
        assert outcome.results["scribble"]["written"] == SCRIBBLE.hex()

        # The next file system built from the warm slot holds what a fresh
        # process generates, and so did the cell that ran in between.
        fresh = json.loads(fresh_interpreter(
            "import json\n"
            "from repro.harness.config import ExperimentConfig\n"
            "from repro.harness.experiments import run_config_payload\n"
            "from tests.test_harness_warm_process import SCALE, _agrep_fs\n"
            "cfg = ExperimentConfig(app='agrep', workload_scale=SCALE)\n"
            "print(json.dumps({'payload': run_config_payload(cfg),\n"
            "    'head': _agrep_fs().inode(0).read_at(0, 64).hex()}))\n"
        ))
        assert _agrep_fs().inode(0).read_at(0, 64).hex() == fresh["head"]
        assert canonical(outcome.results["agrep"]) \
            == canonical(fresh["payload"])


class TestWarmProcess:
    def test_warm_run_equals_cold_run_equals_fresh_interpreter(self):
        """Six cells of two apps: the first pass generates each dataset
        once for three cells, the second pass starts on a warm slot."""
        def cells():
            return sweep_parallel_cells(
                "cache", workload_scale=SCALE, points=(12,),
                apps=("agrep", "gnuld"))

        assert len(cells()) == 6
        first = canonical(run_cells(cells()).results)
        second = canonical(run_cells(cells()).results)
        fresh = fresh_interpreter(
            "import json\n"
            "from repro.harness.experiments import sweep_parallel_cells\n"
            "from repro.harness.parallel import run_cells\n"
            f"cells = sweep_parallel_cells('cache', workload_scale={SCALE},\n"
            "    points=(12,), apps=('agrep', 'gnuld'))\n"
            "print(json.dumps(run_cells(cells).results, sort_keys=True))\n"
        ).strip()
        assert first == second == fresh

    def test_a_sweep_generates_each_dataset_once_per_app(self, monkeypatch):
        """Two apps x two points x two variants: two generations, one per
        app, because a sweep runs one app's cells together."""
        generated = []
        real_get = datasets._LastDataset.get

        def counting_get(slot, generate, *args):
            if (generate, *args) != slot._key:
                generated.append(generate.__name__)
            return real_get(slot, generate, *args)

        monkeypatch.setattr(datasets.LAST_DATASET, "_key", ())
        monkeypatch.setattr(datasets._LastDataset, "get", counting_get)
        run_sweep("cache", points=(6.0, 12.0), apps=("agrep", "gnuld"),
                  variants=(Variant.ORIGINAL, Variant.MANUAL),
                  workload_scale=SCALE)
        assert generated == ["_agrep_files", "_gnuld_files"]


class TestFreezeScope:
    """``run_cells`` freezes the heap for its serial loop only."""

    def test_frozen_inside_and_restored_after_a_normal_return(self):
        entry = gc.get_freeze_count()
        outcome = run_cells([("a", freeze_count_cell, ("a",))])
        assert outcome.results["a"]["frozen"] > entry
        assert gc.get_freeze_count() == entry

    def test_restored_after_a_raising_cell(self):
        entry = gc.get_freeze_count()
        with pytest.raises(RuntimeError, match="b failed"):
            run_cells([("a", freeze_count_cell, ("a",)),
                       ("b", raising_cell, ("b",))])
        assert gc.get_freeze_count() == entry

    def test_restored_after_a_signal_unwinds_the_loop(self, tmp_path):
        entry = gc.get_freeze_count()
        with pytest.raises(SystemExit) as excinfo:
            run_cells([("a", sigterm_cell, ("a",))],
                      checkpoint_path=str(tmp_path / "ck.json"))
        assert excinfo.value.code == 128 + signal.SIGTERM
        assert gc.get_freeze_count() == entry
