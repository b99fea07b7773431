"""``repro paper DOC``: how the document is assembled, and the exit status.

CI's ``paper-shapes`` job runs the experiments, regenerates EXPERIMENTS.md
and fails on any diff.  Here fake verdicts go through the same assembly,
so no simulation runs.
"""

import re

import pytest

from repro.cli import main
from repro.errors import HarnessError
from repro.harness import shapes

KEYS = [exp.key for exp in shapes.EXPERIMENTS] + [shapes.SUMMARY]


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
