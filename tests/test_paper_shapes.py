"""``repro paper DOC``: how the document is assembled, and the exit status.

CI's ``paper-shapes`` job, whose one step is ``repro paper EXPERIMENTS.md``
and a ``git diff``, runs the experiments, regenerates the file and fails on
any diff.  Here fake verdicts go through the same assembly, and
``TestGrid`` runs the real pipeline at a small workload scale on every
interpreter, its rendered bytes pinned: the tier-1 twin of that job.
"""

import re

import pytest

from repro.cli import main
from repro.errors import HarnessError
from repro.faults.plan import profile
from repro.harness import parallel, shapes
from repro.harness.config import ExperimentConfig
from tests.conftest import digest_of

KEYS = [exp.key for exp in shapes.EXPERIMENTS] + [shapes.SUMMARY]
#: The workload scale of the pinned pipeline run, and ``digest_of`` over its
#: blocks and summary line (the same on CPython 3.10, 3.11 and 3.12).
SMALL = 0.05
SMALL_PIPELINE_DIGEST = "95e0709048f1dd5c"


def fake_outcomes(*violations):
    """Every predicate holds at every seed, except that each ``(key, seed,
    message)`` breaks that experiment's first predicate."""
    outcomes = {exp.key: shapes.Outcome(f"table of {exp.key}", {
        seed: [[] for _ in exp.predicates] for seed in shapes.SEEDS})
        for exp in shapes.EXPERIMENTS}
    for key, seed, message in violations:
        outcomes[key].violations[seed][0].append(message)
    return outcomes


def document(keys=KEYS):
    """One marked block per key in prose with a CRLF and non-ASCII text."""
    return "# Experiments\r\n\nprose — kept\n\n" + "".join(
        f"## {key}\n\n<!-- repro paper: {key} -->\nstale\n<!-- /repro paper -->\n\n"
        for key in keys)


def paper(monkeypatch, tmp_path, outcomes, doc=None):
    """``repro paper`` on ``doc`` with ``outcomes`` as the measurements;
    returns the exit status and the document's bytes."""
    path = tmp_path / "EXPERIMENTS.md"
    path.write_bytes((doc or document()).encode("utf-8"))
    monkeypatch.setattr(shapes, "measure_all", lambda: outcomes)
    return main(["paper", str(path)]), path.read_bytes().decode("utf-8")


class TestAssembly:
    def test_text_outside_the_markers_is_kept_byte_for_byte(self, monkeypatch, tmp_path):
        status, text = paper(monkeypatch, tmp_path, fake_outcomes())
        assert status == 0
        blocks = r"(<!-- repro paper: \S+ -->\n).*?(<!-- /repro paper -->)"
        assert re.sub(blocks, r"\1\2", text, flags=re.S) \
            == re.sub(blocks, r"\1\2", document(), flags=re.S)
        assert "stale" not in text
        assert "```text\ntable of fig3\n```" in text
        assert "**18/18 experiments reproduce their paper shape** at model seed 1999." in text

    @pytest.mark.parametrize("keys, message", [
        (KEYS + ["fig99"], "unknown marker 'repro paper: fig99'"),
        ([key for key in KEYS if key != "fig4"], r"no 'repro paper' marker for \['fig4'\]"),
        (KEYS + ["fig3"], "'repro paper: fig3' appears twice"),
    ])
    def test_a_bad_marker_is_a_typed_error(self, keys, message):
        with pytest.raises(HarnessError, match=message):
            shapes.assemble(document(keys), dict.fromkeys(KEYS, ""))

    def test_a_bad_document_fails_before_anything_runs(self, monkeypatch, tmp_path, capsys):
        bad = document(KEYS[1:])
        status, text = paper(monkeypatch, tmp_path, None, doc=bad)
        assert status == 1
        assert "HarnessError" in capsys.readouterr().err
        assert text == bad

    @pytest.mark.parametrize("kind", ["missing", "directory", "not UTF-8"])
    def test_an_unreadable_document_is_one_error_line(self, kind, monkeypatch, tmp_path, capsys):
        path = tmp_path / "EXPERIMENTS.md"
        if kind == "directory":
            path.mkdir()
        elif kind == "not UTF-8":
            path.write_bytes("café".encode("latin-1"))
        monkeypatch.setattr(shapes, "measure_all", lambda: pytest.fail("measured"))
        assert main(["paper", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"repro: error: HarnessError: cannot read {path}: ")
        assert err.count("\n") == 1


class TestVerdicts:
    def test_a_failing_default_seed_predicate_writes_a_cross_and_exits_1(
            self, monkeypatch, tmp_path):
        status, text = paper(monkeypatch, tmp_path,
                             fake_outcomes(("table6", 1999, "gnuld 0")))
        assert status == 1
        assert "| speculating footprint > original | ✗ gnuld 0 | ✓ | ✓ |" in text
        assert "**17/18 experiments reproduce their paper shape** at model seed 1999 " \
               "(table6 fail)." in text

    def test_a_failure_at_another_seed_is_written_and_passes(self, monkeypatch, tmp_path):
        status, text = paper(monkeypatch, tmp_path,
                             fake_outcomes(("table7", 1, "gnuld 53.1 vs 46.9")))
        assert status == 0
        assert "| ✓ | ✗ gnuld 53.1 vs 46.9 | ✓ |" in text
        assert "At seed 1: 17/18 (table7 fail); at seed 2: 18/18." in text

    def test_violations_name_each_failing_case_with_its_numbers(self):
        predicate = shapes.Predicate("spec below manual", lambda cases: cases,
                                     lambda spec, manual: spec < manual)
        assert predicate.violations({"gnuld": (70.04, 65.0), "xds": (1, 2), "agrep": (3, 3)}) \
            == ["gnuld 70 vs 65", "agrep 3 vs 3"]

    def test_every_predicate_fits_a_table_cell(self):
        assert not [p.text for exp in shapes.EXPERIMENTS for p in exp.predicates
                    if "|" in p.text]


class TestGrid:
    """What :func:`shapes.measure_all` runs, pinned without simulating."""

    def test_each_seed_has_141_distinct_cells_and_all_seeds_423(self):
        plans = {seed: [exp.cells(seed) for exp in shapes.EXPERIMENTS] for seed in shapes.SEEDS}
        assert [len(shapes._grid(p)) for p in plans.values()] == [141, 141, 141]
        assert len(shapes._grid(p for seed_plans in plans.values() for p in seed_plans)) == 423

    def test_the_six_matrix_experiments_share_one_9_cell_set(self):
        matrix = [exp for exp in shapes.EXPERIMENTS
                  if exp.key in ("fig3", "table1", "table4", "table5", "table6", "section44")]
        assert len(matrix) == 6
        for seed in shapes.SEEDS:
            cells = {frozenset(shapes._grid([exp.cells(seed)])) for exp in matrix}
            assert [len(c) for c in cells] == [9]

    def test_two_configurations_with_one_run_identity_are_refused(self):
        """The identity leaves out the fault plan, which no experiment sets:
        a grid that did set one could not tell the two cells apart."""
        plain = ExperimentConfig()
        chaotic = plain.with_(fault_plan=profile("transient-errors", 1))
        with pytest.raises(HarnessError, match="two configurations share the run "
                                               "identity 1999/agrep/original/"):
            shapes._grid([(plain, chaotic)])

    def test_a_pool_of_two_measures_what_one_process_does(self, monkeypatch):
        """``repro paper``'s whole pipeline — every experiment's cells, folds,
        tables and predicates, the blocks and the summary line — with each
        grid cell at workload scale 0.05, at pools of one and two.  Its bytes
        are pinned; at that scale 8 of the 18 shapes fail, so the verdicts
        are not asserted (CI's ``paper-shapes`` job runs the full scale).
        Then the four cheap experiments at full scale must hold."""
        modes = []

        def run_cells(cells, jobs):
            """The grid at the small scale, on ``size`` workers whatever
            the process's CPUs (``jobs``) are."""
            outcome = parallel.run_cells([(key, fn, (cfg.with_(workload_scale=SMALL),))
                                          for key, fn, (cfg,) in cells], jobs=size)
            modes.append(outcome.stats.mode)
            return outcome
        monkeypatch.setattr(shapes, "run_cells", run_cells)
        outcomes = []
        for size in (1, 2):
            outcomes.append(shapes.measure_all(seeds=(1999,)))
        assert modes == ["serial", "parallel"]
        assert outcomes[0] == outcomes[1]
        blocks = {exp.key: shapes.render_block(exp, outcomes[0][exp.key])
                  for exp in shapes.EXPERIMENTS}
        blocks[shapes.SUMMARY] = shapes.summary(outcomes[0])
        assert digest_of(blocks)[:16] == SMALL_PIPELINE_DIGEST

        cheap = ("fig1", "fig4", "ablation-multiprocessor", "ablation-multiprogramming")
        monkeypatch.setattr(shapes, "EXPERIMENTS",
                            tuple(exp for exp in shapes.EXPERIMENTS if exp.key in cheap))
        monkeypatch.setattr(shapes, "run_cells", parallel.run_cells)
        full = shapes.measure_all(seeds=(1999,))
        assert all(outcome.holds(1999) for outcome in full.values())
