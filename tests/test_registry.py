"""Tests for the persistent run registry (ledger and regressions).

Covers the full registry stack: identity fingerprints, content-addressed
records and their schema gate, the JSONL journal with its crash-safety
semantics (and the typed refusal of an old SQLite file), payload
classification, the baseline-population regression detector (including
the planted-slowdown acceptance scenario), and the ``repro runs`` CLI
surface.
"""

import json
import multiprocessing
import os
import signal
import sqlite3
import subprocess
import sys
import time

import pytest

from repro.errors import RegistryError
from repro.harness.config import ExperimentConfig, Variant
from repro.harness.results import (
    RESULT_SCHEMA_VERSION,
    RunResult,
)
from repro.harness.runner import run_experiment
from repro.registry.fingerprint import (
    chaos_key,
    code_version,
    digest_of,
    params_digest,
    plan_key,
)
from repro.registry.record import REGISTRY_SCHEMA_VERSION, RunRecord
from repro.registry.recorder import records_for_payload
from repro.registry.regression import (
    check_all,
    check_run,
    parse_match_keys,
)
from repro.registry.store import (
    JsonlStore,
    RunRegistry,
    append_line,
    atomic_write_text,
    read_journal,
)

SCALE = 0.1
SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")


def _append_many(path, writer, count, pad):
    """One journal writer process (module-level: runs in a forked child)."""
    for index in range(count):
        append_line(path, {"run_id": f"w{writer}-{index}", "pad": pad})


# ---------------------------------------------------------------------------
# Synthetic payload / record factories
# ---------------------------------------------------------------------------

def run_payload(app="agrep", variant="speculating", seed=1999,
                cycles=4_000_000, lead=900_000.0, wasted=0, disclosed=27,
                pdigest="0123456789abcdef", chaos=None, **extra):
    payload = {
        "app": app,
        "variant": variant,
        "cycles": cycles,
        "counters": {"app.workload_completed_cycle": cycles},
        "hint_lead_median": lead,
        "hint_lifecycle": {"disclosed": disclosed, "consumed": disclosed,
                           "cancelled": 0, "wasted": wasted, "open": 0},
        "stall_breakdown": {"wall": cycles, "compute": cycles // 2,
                            "checks": cycles // 10,
                            "demand_stall": cycles // 4,
                            "other": cycles // 10},
        "pct_prefetches_before_demand": 80.0,
        "params_digest": pdigest,
        "seed": seed,
        "fault_profile": chaos,
    }
    payload.update(extra)
    return payload


def make_record(**kwargs):
    payload = run_payload(**{k: v for k, v in kwargs.items()
                             if k not in ("kind", "cell_key")})
    ctx = {"kind": kwargs["kind"]} if "kind" in kwargs else None
    return records_for_payload(kwargs.get("cell_key"), payload, ctx)[0]


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------

class TestFingerprint:
    def test_params_digest_pools_seeds_but_not_scales(self):
        base = ExperimentConfig(app="agrep", workload_scale=SCALE)
        reseeded = base.with_(system=base.system.replace(seed=2003))
        other_app = base.with_(app="gnuld")
        rescaled = base.with_(workload_scale=0.2)
        assert params_digest(base) == params_digest(reseeded)
        assert params_digest(base) == params_digest(other_app)
        assert params_digest(base) != params_digest(rescaled)

    def test_chaos_keys(self):
        assert chaos_key(None) == "none"
        assert chaos_key("none") == "none"
        assert chaos_key("stuck-disk") == "stuck-disk"
        plan = {"name": "fuzz-7-0", "slow_factor": 10.0}
        key = plan_key(plan)
        assert key.startswith("fuzz-7-0:")
        assert plan_key({"name": "fuzz-7-0", "slow_factor": 20.0}) != key

    def test_code_version_env_override(self, monkeypatch):
        assert code_version() == "repro-fp1"
        monkeypatch.setenv("REPRO_CODE_VERSION", "deadbeef")
        assert code_version() == "deadbeef"

    def test_digest_is_order_insensitive(self):
        assert digest_of({"a": 1, "b": 2}) == digest_of({"b": 2, "a": 1})


# ---------------------------------------------------------------------------
# Records: content addressing + schema versioning
# ---------------------------------------------------------------------------

class TestRunRecord:
    def test_run_id_is_content_addressed(self):
        a = make_record(seed=1999)
        b = make_record(seed=1999)
        c = make_record(seed=2000)
        assert a.run_id == b.run_id
        assert a.run_id != c.run_id
        assert len(a.run_id) == 24

    def test_round_trip(self):
        record = make_record(kind="sweep-cell", cell_key="disks=4/agrep")
        data = record.to_jsonable()
        assert data["schema_version"] == REGISTRY_SCHEMA_VERSION
        again = RunRecord.from_jsonable(data)
        assert again == record
        assert again.run_id == record.run_id

    def test_unknown_schema_version_rejected(self):
        data = make_record().to_jsonable()
        data["schema_version"] = 99
        with pytest.raises(RegistryError, match="schema_version"):
            RunRecord.from_jsonable(data)

    def test_version_1_line_is_refused_by_schema_not_as_tampered(self):
        """A line written under an older field set (version 1 still had
        ``tuning``; version 2 had ``parent_id``, ``trace_summary`` and
        ``meta``) hashes those fields into its id: the version gate
        refuses it as an old schema, and does not report an honest ledger
        as hand-edited."""
        for old in ({"schema_version": 1, "tuning": None},
                    {"schema_version": 2, "parent_id": "ab" * 12,
                     "trace_summary": None, "meta": {}}):
            data = make_record().to_jsonable()
            data.update(old)
            with pytest.raises(RegistryError, match="schema_version") as excinfo:
                RunRecord.from_jsonable(data)
            assert "hand-edited" not in str(excinfo.value)

    def test_record_with_spec_count_fields_still_loads(self):
        """``RunResult`` payloads once stored speculation's four counts as
        fields besides their counters.  Such a line still checks against
        its run id, and its result decodes with the four keys ignored and
        the same values read from the counters."""
        old = {"spec_restarts": 3, "spec_signals": 1, "spec_cancel_calls": 3,
               "spec_hints_issued": 40}
        counters = {"app.workload_completed_cycle": 4_000_000,
                    "spec.restarts": 3, "spec.signals": 1,
                    "spec.cancel_calls": 3, "spec.hints_issued": 40}
        data = make_record(counters=counters, cpu_hz=500_000_000, output_b64="",
                           schema_version=RESULT_SCHEMA_VERSION, **old).to_jsonable()
        record = RunRecord.from_jsonable(json.loads(json.dumps(data)))
        assert record.run_id == data["run_id"]
        result = RunResult.from_jsonable(record.result)
        assert {name: getattr(result, name) for name in old} == old
        assert not set(old) & set(result.to_jsonable())

    def test_tampered_record_fails_content_check(self):
        data = make_record().to_jsonable()
        data["seed"] = 4242
        with pytest.raises(RegistryError, match="content check"):
            RunRecord.from_jsonable(data)

    def test_unknown_kind_rejected(self):
        with pytest.raises(RegistryError, match="kind"):
            make_record(kind="banana")

    def test_metric_values(self):
        values = make_record(cycles=1000, wasted=3, disclosed=30,
                             lead=250.0).metric_values()
        assert values == {"elapsed_cycles": 1000.0,
                          "hint_lead_median": 250.0,
                          "wasted_prefetch_fraction": 0.1}

    def test_metric_values_none_for_mapping_cycles(self):
        # Fuzz cells carry per-variant cycle mappings, not one scalar.
        record = make_record()
        record.result["cycles"] = {"original": 1, "speculating": 2}
        assert record.metric_values() is None



# ---------------------------------------------------------------------------
# Stores
# ---------------------------------------------------------------------------

class TestStores:
    def test_a_failed_atomic_write_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "taken"
        target.mkdir()  # os.replace cannot put a file over a directory
        with pytest.raises(OSError):
            atomic_write_text(str(target), "text")
        assert sorted(os.listdir(tmp_path)) == ["taken"]

    def test_blank_journal_lines_are_skipped(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text('{"a": 1}\n\n   \n{"a": 2}\n')
        assert read_journal(str(path)) == [{"a": 1}, {"a": 2}]

    @pytest.mark.parametrize("name", ["ledger.jsonl"])
    def test_put_get_dedup_reload(self, tmp_path, name):
        path = str(tmp_path / name)
        record = make_record()
        store = JsonlStore(path)
        assert store.put(record.to_jsonable()) is True
        assert store.put(record.to_jsonable()) is False  # content dedup
        store = JsonlStore(path)
        assert store.ids() == [record.run_id]
        assert store.get(record.run_id) == record.to_jsonable()

    def test_jsonl_tolerates_torn_final_line(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        store = JsonlStore(path)
        store.put(make_record(seed=1).to_jsonable())
        store.put(make_record(seed=2).to_jsonable())
        with open(path, "a") as handle:
            handle.write('{"schema_version": 1, "app": "agr')  # torn write
        reloaded = JsonlStore(path)
        assert len(reloaded.ids()) == 2

    def test_put_after_torn_tail_lands_on_its_own_line(self, tmp_path):
        """An append after a torn final line heals the tail first: the
        acknowledged record is there at the next load, and the ledger
        still loads one append later."""
        path = str(tmp_path / "ledger.jsonl")
        a, b, c = (make_record(seed=seed).to_jsonable() for seed in (1, 2, 3))
        JsonlStore(path).put(a)
        with open(path, "a") as handle:
            handle.write('{"run_id": "torn", "v"')  # writer died mid-line
        store = JsonlStore(path)
        assert store.ids() == [a["run_id"]]
        assert store.put(b) is True
        assert sorted(JsonlStore(path).ids()) == sorted(
            [a["run_id"], b["run_id"]])
        JsonlStore(path).put(c)
        assert len(JsonlStore(path).ids()) == 3
        with open(path) as handle:
            assert [json.loads(line)["run_id"] for line in handle] == [
                a["run_id"], b["run_id"], c["run_id"]]

    def test_torn_tail_longer_than_one_read_is_healed(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        for body in ("", '{"run_id":"a"}\n'):
            with open(path, "w") as handle:
                handle.write(body + '{"run_id": "torn", "pad": "' + "x" * 200_000)
            append_line(path, {"run_id": "b"})
            with open(path) as handle:
                assert handle.read() == body + '{"run_id":"b"}\n'

    def test_concurrent_appends_never_interleave(self, tmp_path):
        """4 processes x 50 appends of > 64 KB lines to one journal: every
        line parses and every key is present."""
        path = str(tmp_path / "shared.jsonl")
        pad = "x" * 70_000
        ctx = multiprocessing.get_context("fork")
        writers = [ctx.Process(target=_append_many, args=(path, w, 50, pad))
                   for w in range(4)]
        for process in writers:
            process.start()
        for process in writers:
            process.join(timeout=120)
            assert process.exitcode == 0
        records = read_journal(path)  # raises on any damaged line
        assert all(record["pad"] == pad for record in records)
        assert sorted(r["run_id"] for r in records) == sorted(
            f"w{w}-{i}" for w in range(4) for i in range(50))
        with open(path, "rb") as handle:
            assert handle.read().endswith(b"\n")

    def test_sigkill_mid_append_loses_only_the_torn_line(self, tmp_path):
        """SIGKILL a writer while it appends; reopening loads every record
        acknowledged before the kill, the dead writer holds no lock, and
        the next append lands on a line of its own."""
        path = str(tmp_path / "killed.jsonl")
        acked = str(tmp_path / "acked.txt")
        script = (
            "import sys\n"
            f"sys.path.insert(0, {SRC_DIR!r})\n"
            "from repro.registry.store import append_line\n"
            "i = 0\n"
            "while True:\n"
            f"    append_line({path!r}, {{'run_id': 'r%d' % i, 'pad': 'x' * 300_000}})\n"
            f"    with open({acked!r}, 'a') as handle:\n"
            "        handle.write('r%d\\n' % i)\n"
            "    i += 1\n"
        )
        for attempt in range(4):
            process = subprocess.Popen([sys.executable, "-c", script])
            try:
                deadline = time.monotonic() + 60.0
                while not os.path.exists(acked):
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                time.sleep(0.02 + 0.013 * attempt)  # vary the kill point
            finally:
                process.send_signal(signal.SIGKILL)
                process.wait(timeout=30)
            with open(acked) as handle:
                acknowledged = handle.read().split()
            loaded = {r["run_id"] for r in read_journal(path)}
            assert set(acknowledged) <= loaded
            append_line(path, {"run_id": f"after-{attempt}"})
            records = read_journal(path)
            assert records[-1] == {"run_id": f"after-{attempt}"}
            with open(path, "rb") as handle:
                assert handle.read().endswith(b'{"run_id":"after-%d"}\n' % attempt)
            os.unlink(acked)
            os.unlink(path)

    def test_record_without_its_key_is_typed_error(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text('{"not_run_id": 1}\n')
        with pytest.raises(RegistryError, match="run_id"):
            JsonlStore(str(path))

    def test_jsonl_rejects_mid_file_corruption(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        store = JsonlStore(path)
        store.put(make_record(seed=1).to_jsonable())
        with open(path) as handle:
            good = handle.read()
        with open(path, "w") as handle:
            handle.write("garbage not json\n" + good)
        with pytest.raises(RegistryError):
            JsonlStore(path)

    def test_jsonl_rejects_sqlite_file(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        conn = sqlite3.connect(path)
        conn.execute("CREATE TABLE t (x)")
        conn.commit()
        conn.close()
        with pytest.raises(RegistryError, match="SQLite"):
            JsonlStore(path)

    def test_compact_is_canonical_sorted_form(self, tmp_path):
        a, b = make_record(seed=1), make_record(seed=2)
        first, second = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        for path, order in ((first, (a, b)), (second, (b, a))):
            store = JsonlStore(path)
            for record in order:
                store.put(record.to_jsonable())
            store.compact()
        with open(first, "rb") as handle:
            left = handle.read()
        with open(second, "rb") as handle:
            right = handle.read()
        assert left == right  # insertion order compacted away

# ---------------------------------------------------------------------------
# Recorder: payload classification
# ---------------------------------------------------------------------------

class TestRecorder:
    def test_unknown_payload_shape_rejected(self):
        with pytest.raises(RegistryError, match="no known shape"):
            records_for_payload("x", {"bogus": 1})

    def test_oracle_payload_yields_cell_and_variants(self, tmp_path):
        payload = {
            "case": {"app": "agrep", "index": 0, "spec_overrides": {},
                     "plan": {"name": "stuck-disk", "slow_factor": 40.0}},
            "violations": [{"monitor": "spec-identity",
                            "detail": "output digests diverge",
                            "witness": {}}],
            "digest": "d", "cycles": {}, "escapes": {},
            "params_digest": "0123456789abcdef", "seed": 1999,
            "results": {
                "original": run_payload(variant="original"),
                "speculating": run_payload(variant="speculating"),
            },
        }
        records = records_for_payload("oracle/agrep/stuck-disk", payload,
                                      {"kind": "oracle-cell"})
        assert [r.kind for r in records] == \
            ["oracle-cell", "oracle-variant", "oracle-variant"]
        cell, first, second = records
        assert cell.chaos_profile == "stuck-disk"
        assert cell.verdicts[0]["monitor"] == "spec-identity"
        assert "results" not in cell.result  # sub-payloads: variant records
        assert [first.variant, second.variant] == ["original", "speculating"]
        assert [first.cell_key, second.cell_key] == [
            "oracle/agrep/stuck-disk/original",
            "oracle/agrep/stuck-disk/speculating"]

    def test_fuzz_payload_is_the_same_mapping_without_children(self):
        payload = {
            "case": {"app": "agrep", "index": 3, "spec_overrides": {},
                     "plan": {"name": "fuzz-7-3", "slow_factor": 40.0}},
            "violations": [], "digest": "d", "cycles": {}, "escapes": {},
            "params_digest": "0123456789abcdef", "seed": 1999,
        }
        (record,) = records_for_payload("fuzz/0003/agrep", payload)
        assert record.kind == "fuzz-case"
        assert record.chaos_profile == plan_key(payload["case"]["plan"])
        assert record.result == payload


# ---------------------------------------------------------------------------
# Regression detection (the acceptance scenario)
# ---------------------------------------------------------------------------

class TestRegressionDetector:
    def _baseline(self, registry, cycles=4_000_000, count=5):
        for seed in range(1999, 1999 + count):
            # Small seed-dependent jitter, like real layout jitter.
            registry.record(make_record(
                seed=seed, cycles=cycles + 1000 * (seed % 7),
            ))

    def test_planted_slowdown_is_flagged(self, tmp_path):
        registry = RunRegistry.open(str(tmp_path / "r.jsonl"))
        self._baseline(registry)
        slow = make_record(seed=2042, cycles=int(4_000_000 * 1.15))
        registry.record(slow)
        report = check_run(registry, slow)
        assert not report.clean
        finding = report.findings[0]
        assert finding.metric == "elapsed_cycles"
        assert finding.run_id == slow.run_id
        assert finding.drift_pct > 10.0
        assert "elapsed_cycles" in finding.describe()

    def test_identical_rerun_stays_silent(self, tmp_path):
        registry = RunRegistry.open(str(tmp_path / "r.jsonl"))
        self._baseline(registry)
        rerun = make_record(seed=1999, cycles=4_000_000 + 1000 * (1999 % 7))
        assert registry.record(rerun) in \
            {r.run_id for r in registry.records()}  # deduplicated
        report = check_all(registry)
        assert report.clean
        assert report.checked == 5

    def test_improvement_is_not_flagged(self, tmp_path):
        registry = RunRegistry.open(str(tmp_path / "r.jsonl"))
        self._baseline(registry)
        fast = make_record(seed=2042, cycles=2_000_000)
        registry.record(fast)
        assert check_run(registry, fast).clean

    def test_small_population_is_skipped(self, tmp_path):
        registry = RunRegistry.open(str(tmp_path / "r.jsonl"))
        self._baseline(registry, count=2)
        slow = make_record(seed=2042, cycles=40_000_000)
        registry.record(slow)
        report = check_run(registry, slow)
        assert report.clean
        assert report.skipped_no_baseline == 1

    def test_chaos_runs_never_pool_with_fault_free(self, tmp_path):
        registry = RunRegistry.open(str(tmp_path / "r.jsonl"))
        self._baseline(registry)
        chaotic = make_record(seed=2042, chaos="stuck-disk",
                              cycles=40_000_000)
        registry.record(chaotic)
        assert check_run(registry, chaotic).skipped_no_baseline == 1
        loose = check_run(registry, chaotic,
                          parse_match_keys("app,variant"))
        assert not loose.clean  # relaxed keys pool it in, and it's 10x

    def test_min_baseline_below_one_is_typed(self, tmp_path):
        registry = RunRegistry.open(str(tmp_path / "r.jsonl"))
        record = make_record()
        registry.record(record)
        with pytest.raises(RegistryError, match="min_baseline"):
            check_all(registry, min_baseline=0)
        with pytest.raises(RegistryError, match="min_baseline"):
            check_run(registry, record, min_baseline=0)

    def test_parse_match_keys_rejects_unknown(self):
        assert parse_match_keys(None) == \
            ("app", "variant", "kind", "chaos", "params")
        with pytest.raises(RegistryError, match="hostname"):
            parse_match_keys("app,hostname")


# ---------------------------------------------------------------------------
# Satellite: RunResult schema versioning
# ---------------------------------------------------------------------------

class TestResultSchemaVersion:
    def _payload(self):
        cfg = ExperimentConfig(app="agrep", workload_scale=SCALE,
                               variant=Variant.SPECULATING)
        return run_experiment(cfg).to_jsonable()

    def test_v2_round_trips_registry_fields(self):
        data = self._payload()
        assert data["schema_version"] == RESULT_SCHEMA_VERSION
        again = RunResult.from_jsonable(data)
        assert again.params_digest == data["params_digest"]
        assert again.seed == data["seed"]
        assert again.to_jsonable() == data

    def test_v1_payload_rejected(self):
        # Version 1 wrote no ``schema_version`` key and no registry fields.
        data = self._payload()
        del data["schema_version"]
        for name in ("params_digest", "seed"):
            data.pop(name)
        with pytest.raises(RegistryError, match="schema_version None"):
            RunResult.from_jsonable(data)

    def test_unknown_version_rejected(self):
        data = self._payload()
        data["schema_version"] = 99
        with pytest.raises(RegistryError, match="schema_version"):
            RunResult.from_jsonable(data)


# ---------------------------------------------------------------------------
# Satellite: per-disk hedge counters in the trace summary
# ---------------------------------------------------------------------------

class TestHedgeCountersInTraceSummary:
    def test_summary_per_disk_io_includes_hedges_won(self):
        from repro.sim.clock import SimClock
        from repro.trace.analyzer import TraceAnalyzer
        from repro.trace.tracer import Tracer

        cfg = ExperimentConfig(app="agrep", workload_scale=SCALE,
                               variant=Variant.SPECULATING)
        result = run_experiment(cfg)
        result.counters["disk2.hedges"] = 3
        result.counters["disk2.hedges_won"] = 2
        per_disk = result.per_disk_io_counters()
        assert per_disk[2] == {"hedges": 3, "hedges_won": 2}

        tracer = Tracer(SimClock())
        text = TraceAnalyzer(tracer, result=result).render_summary()
        (health,) = [line for line in text.splitlines()
                     if line.startswith("disk I/O health")]
        assert "disk2(hedges=3,hedges_won=2)" in health.split()


# ---------------------------------------------------------------------------
# CLI: the `repro runs` family
# ---------------------------------------------------------------------------

class TestRunsCli:
    @pytest.fixture()
    def populated(self, tmp_path):
        path = str(tmp_path / "registry.jsonl")
        registry = RunRegistry.open(path)
        for seed in range(1999, 2004):
            registry.record(make_record(
                seed=seed, cycles=4_000_000 + 1000 * (seed % 7)))
        slow = make_record(seed=2042, cycles=int(4_000_000 * 1.2))
        registry.record(slow)
        registry.compact()
        return path, slow.run_id

    def _main(self, *argv):
        from repro.cli import main
        return main(list(argv))

    def test_an_empty_ledger_lists_as_empty(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert self._main("runs", "list", "--registry", str(path)) == 0
        assert capsys.readouterr().out == "registry is empty\n"

    def test_differential_records_are_listed_but_not_judged(self, tmp_path, capsys):
        path = str(tmp_path / "fuzz.jsonl")
        assert self._main("fuzz", "--budget", "1", "--apps", "agrep", "--scale", "0.1",
                          "--registry", path) == 0
        capsys.readouterr()
        assert self._main("runs", "regressions", "--registry", path) == 0
        assert capsys.readouterr().out.startswith("checked 0 run(s)")
        assert self._main("runs", "list", "--registry", path) == 0
        (row,) = [line for line in capsys.readouterr().out.splitlines()
                  if " fuzz-case " in line]
        assert row.split()[-1] == "-"

    def test_list_names_every_record(self, populated, capsys):
        path, slow_id = populated
        assert self._main("runs", "list", "--registry", path) == 0
        out = capsys.readouterr().out
        assert "6 record(s)" in out
        assert f"{slow_id} run" in out
        assert f"{int(4_000_000 * 1.2):,}" in out

    def test_regressions_exit_code_and_filtering(self, populated, capsys):
        path, slow_id = populated
        # The planted 20% slowdown flips the exit code for CI.
        assert self._main("runs", "regressions", "--registry", path) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out and slow_id[:12] in out
        # A baseline of at least six runs is more than any population
        # here holds, so nothing is judged and the check stays green.
        assert self._main("runs", "regressions", "--registry", path,
                          "--min-baseline", "6") == 0

    def test_min_baseline_below_one_is_an_error_not_a_crash(
            self, tmp_path, capsys):
        """A zero baseline has no mean to divide by: a typed one-line
        error, never a traceback a CI gate would read as a finding."""
        path = str(tmp_path / "registry.jsonl")
        RunRegistry.open(path).record(make_record())
        for value in ("0", "-1"):
            assert self._main("runs", "regressions", "--registry", path,
                              "--min-baseline", value) == 1
            captured = capsys.readouterr()
            assert captured.err == (
                "repro: error: RegistryError: min_baseline must be at "
                f"least 1, got {value}\n")
            assert "no regressions" not in captured.out

    @pytest.mark.parametrize("command", ["list", "regressions"])
    def test_query_of_a_missing_registry_is_an_error(
            self, tmp_path, capsys, command):
        """A typo'd path is one RegistryError line, never "registry is
        empty" / "no regressions detected" with exit 0; the query does not
        create the file."""
        for path in (tmp_path / "typo.jsonl", tmp_path):
            assert self._main("runs", command, "--registry", str(path)) == 1
            captured = capsys.readouterr()
            assert captured.err == (
                "repro: error: RegistryError: no run registry file at "
                f"{str(path)!r}; record runs into it with --registry first\n")
            assert captured.out == ""
        assert not (tmp_path / "typo.jsonl").exists()

    def test_regression_check_over_real_cells(self, tmp_path, capsys):
        """Two cache sweeps record the same bytes and five agrep seeds a
        baseline: the check stays silent, also once a stuck-disk run is
        recorded (chaos runs have a population of their own), and flags
        that run when relaxed keys pool it in."""
        path = str(tmp_path / "runs.jsonl")
        sweep = ("sweep", "cache", "--scale", "0.2", "--registry", path)
        assert self._main(*sweep) == 0
        with open(path, "rb") as handle:
            first = handle.read()
        assert self._main(*sweep) == 0
        with open(path, "rb") as handle:
            assert handle.read() == first
        for seed in range(1999, 2004):
            assert self._main("run", "agrep", "--scale", "0.2", "--seed",
                              str(seed), "--registry", path) == 0
        assert self._main("runs", "list", "--registry", path) == 0
        assert self._main("runs", "regressions", "--registry", path) == 0
        assert "no regressions detected" in capsys.readouterr().out
        assert self._main("run", "agrep", "--scale", "0.2", "--chaos",
                          "stuck-disk", "--registry", path) == 0
        stuck = capsys.readouterr().out.split("registry: recorded ")[1].split()[0]
        assert self._main("runs", "regressions", "--registry", path) == 0
        assert "no regressions detected" in capsys.readouterr().out
        assert self._main("runs", "regressions", "--registry", path,
                          "--match", "app,variant", "--min-baseline", "5") == 1
        (finding,) = [line for line in capsys.readouterr().out.splitlines()
                      if "REGRESSION" in line]
        assert stuck[:12] in finding

    def test_compare_honours_seed_and_registry(self, tmp_path, capsys):
        """``compare`` runs at ``--seed`` and records its three runs; a
        matching ``run`` deduplicates onto the same content-addressed id."""
        path = str(tmp_path / "registry.jsonl")
        assert self._main("compare", "gnuld", "--scale", "0.2",
                          "--seed", "5", "--registry", path) == 0
        capsys.readouterr()
        registry = RunRegistry.open(path)
        records = registry.records()
        assert sorted(r.variant for r in records) == \
            ["manual", "original", "speculating"]
        assert {(r.kind, r.seed) for r in records} == {("run", 5)}
        assert self._main("run", "gnuld", "--scale", "0.2", "--seed", "5",
                          "--variant", "manual", "--registry", path) == 0
        recorded = capsys.readouterr().out.split("registry: recorded ")[1]
        assert recorded.split()[0] in {r.run_id for r in records}
