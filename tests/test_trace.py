"""Tests for the tracing / observability subsystem (repro.trace)."""

import json

import pytest

from repro.errors import TraceError
from repro.faults import plan as fault_plans
from repro.fs.cache import BlockCache
from repro.fs.filesystem import FileSystem
from repro.fs.readahead import SequentialReadAhead
from repro.harness.config import ExperimentConfig, Variant
from repro.harness.results import RunResult
from repro.harness.runner import run_experiment, run_experiment_with_system
from repro.params import (
    ArrayParams,
    BLOCK_SIZE,
    CpuParams,
    DiskParams,
    SystemConfig,
    TipParams,
)
from repro.sim.clock import SimClock
from repro.sim.engine import EventEngine
from repro.sim.stats import StatRegistry
from repro.storage.striping import StripedArray
from repro.tip.manager import TipManager
from repro.trace.analyzer import TraceAnalyzer
from repro.trace.export import chrome_trace, export_to_path
from repro.trace.phases import StallBreakdown, stall_breakdown
from repro.trace.tracer import (
    ALL_CATEGORIES,
    CAT_HINT,
    CAT_KERNEL,
    CAT_SPEC,
    NULL_TRACER,
    Tracer,
    parse_categories,
)
from tests.conftest import TipStandIn

SCALE = 0.3
PID = 1


class TestTracerCore:
    def test_records_instants_spans_counters(self):
        clock = SimClock()
        tracer = Tracer(clock)
        tracer.instant(CAT_KERNEL, "sys.read", tid=0, pid=1)
        clock.advance(100)
        tracer.complete(CAT_KERNEL, "read.stall", 10, 90, tid=0)
        tracer.counter(CAT_KERNEL, "depth", 3)
        events = list(tracer.events())
        assert [e.ph for e in events] == ["i", "X", "C"]
        assert events[0].ts == 0 and events[1].ts == 10
        assert events[1].dur == 90
        assert events[2].args == {"value": 3}

    def test_category_filter(self):
        tracer = Tracer(SimClock(), categories=(CAT_HINT,))
        tracer.instant(CAT_KERNEL, "sys.read")
        tracer.instant(CAT_HINT, "hint.disclosed")
        assert len(tracer) == 1
        assert next(tracer.events()).category == CAT_HINT
        assert tracer.wants(CAT_HINT) and not tracer.wants(CAT_KERNEL)

    def test_ring_buffer_drops_oldest(self):
        tracer = Tracer(SimClock(), capacity=4)
        for i in range(10):
            tracer.instant(CAT_KERNEL, f"e{i}")
        assert len(tracer) == 4
        assert tracer.dropped == 6
        assert [e.name for e in tracer.events()] == ["e6", "e7", "e8", "e9"]

    def test_unknown_category_rejected(self):
        with pytest.raises(TraceError):
            Tracer(SimClock(), categories=("bogus",))

    def test_nonpositive_capacity_rejected(self):
        with pytest.raises(TraceError):
            Tracer(SimClock(), capacity=0)

    def test_bind_clock_refused_after_first_event(self):
        tracer = Tracer(SimClock())
        tracer.instant(CAT_KERNEL, "e")
        with pytest.raises(TraceError):
            tracer.bind_clock(SimClock())

    def test_null_tracer_is_inert(self):
        assert not NULL_TRACER.enabled
        NULL_TRACER.instant(CAT_KERNEL, "e")
        NULL_TRACER.complete(CAT_KERNEL, "e", 0, 10)
        NULL_TRACER.counter(CAT_KERNEL, "e", 1)
        assert len(NULL_TRACER) == 0
        assert not NULL_TRACER.wants(CAT_KERNEL)

    def test_parse_categories(self):
        assert parse_categories("hint, storage") == ("hint", "storage")
        with pytest.raises(TraceError):
            parse_categories("hint,typo")
        for empty in ("", ",,", " , "):
            with pytest.raises(TraceError, match="empty trace category list"):
                parse_categories(empty)


class TestExport:
    def _traced(self):
        clock = SimClock()
        tracer = Tracer(clock)
        tracer.instant(CAT_KERNEL, "sys.read", tid=0, pid=1)
        tracer.complete(CAT_KERNEL, "read.stall", 0, 50, tid=0)
        tracer.counter(CAT_KERNEL, "disk0.queue_depth", 2, tid=100)
        return tracer

    def test_jsonl_one_object_per_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        export_to_path(self._traced(), str(path), "jsonl")
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        for line in lines:
            event = json.loads(line)
            assert {"name", "cat", "ph", "ts", "pid", "tid"} <= set(event)

    def test_chrome_trace_shape(self):
        data = chrome_trace(self._traced())
        events = data["traceEvents"]
        # Every non-metadata event carries the required trace_event keys.
        for event in events:
            if event["ph"] == "M":
                continue
            assert {"name", "ph", "ts", "pid", "tid"} <= set(event)
        # Track names are announced for each tid seen.
        meta = [e for e in events if e["ph"] == "M"]
        assert {e["tid"] for e in meta} == {0, 100}
        assert data["otherData"]["dropped_events"] == 0

    def test_chrome_export_is_valid_json(self, tmp_path):
        path = tmp_path / "t.json"
        export_to_path(self._traced(), str(path), "chrome")
        data = json.loads(path.read_text())
        assert len(data["traceEvents"]) == 5  # 3 events + 2 thread_name metas

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(TraceError):
            export_to_path(self._traced(), str(tmp_path / "t"), "pprof")

    def test_unwritable_path_raises_typed_error(self, tmp_path):
        with pytest.raises(TraceError):
            export_to_path(self._traced(), str(tmp_path / "no/such/dir/t"),
                           "jsonl")


class TestHintLifecycleUnit:
    def test_full_consumed_path(self):
        clock = SimClock()
        tip = TipStandIn(clock)
        cycle = tip.ledger
        (hint,) = tip.disclose(1, [(5, 0)], PID)
        clock.advance(10)
        cycle.prefetch_issued((5, 0))
        clock.advance(10)
        cycle.filled((5, 0))
        clock.advance(10)
        tip.end(hint, "consumed")
        (record,) = cycle.records()
        assert record.issued_ts == 10 and record.filled_ts == 20
        assert record.terminal == "consumed" and record.lead_cycles == 30
        assert record.ready_before_demand
        assert cycle.summary_counts() == {
            "disclosed": 1, "consumed": 1, "cancelled": 0, "wasted": 0,
            "open": 0,
        }
        assert cycle.pct_ready_before_demand == 100.0

    def test_double_terminal_asserts(self):
        tip = TipStandIn(SimClock())
        (hint,) = tip.disclose(1, [(5, 0)], PID)
        tip.end(hint, "consumed")
        with pytest.raises(AssertionError):
            tip.ledger.cancelled(hint)

    def test_dropped_prefetch_resets_issue_stamp(self):
        clock = SimClock()
        tip = TipStandIn(clock)
        cycle = tip.ledger
        tip.disclose(1, [(5, 0)], PID)
        cycle.prefetch_issued((5, 0))
        cycle.prefetch_dropped((5, 0))
        (record,) = cycle.records()
        assert record.issued_ts is None and record.drops == 1
        assert cycle.open_total == 1  # still open: TIP may re-issue

    def test_aggregates_exact_past_detail_capacity(self):
        clock = SimClock()
        tip = TipStandIn(clock, capacity=2)
        cycle = tip.ledger
        hints = [tip.disclose(seq, [(1, seq)], PID)[0] for seq in range(5)]
        assert len(cycle.records()) == 2  # detail capped...
        assert cycle.disclosed_total == 5  # ...aggregates exact
        assert cycle.open_total == 5
        for hint in hints:
            tip.end(hint, "consumed")
        assert cycle.open_total == 0 and tip.open_for(PID) == 0

    def test_lead_times_exact_past_detail_capacity(self):
        """A hint past ``capacity`` still has its disclosure and fill
        stamps: it counts in the lead times and the readiness tally."""
        clock = SimClock()
        tip = TipStandIn(clock, capacity=2)
        cycle = tip.ledger
        hints = []
        for seq in range(3):
            hints += tip.disclose(seq, [(1, seq)], PID)
            cycle.filled((1, seq))
        clock.advance(7)
        for hint in hints:
            tip.end(hint, "consumed")
        assert cycle.lead_times.count == 3
        assert cycle.ready_before_demand == 3
        assert [record.seq for record in cycle.records()] == [0, 1]
        assert cycle.disclosed_keys() == [(1, 0), (1, 1)]

    def test_consumed_hint_counts_in_the_ledger_aggregates(self):
        """The ledger is the one source of its lead times and readiness
        tally (nothing mirrors them into the stat registry)."""
        clock = SimClock()
        tip = TipStandIn(clock)
        cycle = tip.ledger
        (hint,) = tip.disclose(1, [(5, 0)], PID)
        cycle.filled((5, 0))
        clock.advance(4)
        tip.end(hint, "consumed")
        assert cycle.ready_before_demand == 1
        assert cycle.lead_times.values == [4]


class TestStallBreakdown:
    def test_jsonable_round_trip(self):
        breakdown = StallBreakdown(wall=100, compute=40, checks=10,
                                   demand_stall=45, speculation=30, other=5)
        again = StallBreakdown.from_jsonable(breakdown.to_jsonable())
        assert again == breakdown
        assert again.pct(45) == 45.0

    def test_phases_cover_wall_time(self):
        cfg = ExperimentConfig(app="agrep", workload_scale=SCALE,
                               variant=Variant.SPECULATING)
        result, system = run_experiment_with_system(cfg)
        breakdown = stall_breakdown(system.kernel)
        assert breakdown.wall == result.cycles > 0
        assert breakdown.demand_stall > 0
        assert breakdown.compute > 0
        # The four original-thread phases partition wall time exactly.
        total = (breakdown.compute + breakdown.checks
                 + breakdown.demand_stall + breakdown.other)
        assert total == breakdown.wall
        # Speculation overlaps; it is not part of the partition.
        assert breakdown.speculation > 0


def make_tip_with_lifecycle(cache_blocks=16, file_blocks=32):
    fs = FileSystem()
    fs.create("f0", bytes(file_blocks * BLOCK_SIZE))
    clock = SimClock()
    engine = EventEngine(clock)
    stats = StatRegistry()
    array = StripedArray(
        fs.total_blocks, ArrayParams(), DiskParams(), CpuParams(), engine, stats
    )
    cache = BlockCache(cache_blocks, stats)
    manager = TipManager(
        fs, array, cache, SequentialReadAhead(), stats, TipParams()
    )
    return manager, fs, engine


class TestLifecycleReconciliation:
    """A process's open hints are its TIP queue: the ledger's open count
    tracks TipManager.outstanding_hints."""

    def test_reconciles_through_cancel_all(self):
        manager, fs, engine = make_tip_with_lifecycle()
        ino = fs.lookup("f0")
        manager.disclose(PID, ino, 0, 5 * BLOCK_SIZE)
        assert manager.outstanding_hints(PID) == 5
        assert manager.lifecycle.open_total == 5
        manager.cancel_all(PID)
        assert manager.outstanding_hints(PID) == 0
        assert manager.lifecycle.open_total == 0
        assert manager.lifecycle.summary_counts()["cancelled"] == 5

    def test_reconciles_through_consumption(self):
        manager, fs, engine = make_tip_with_lifecycle()
        ino = fs.lookup("f0")
        manager.disclose(PID, ino, 0, 3 * BLOCK_SIZE)
        while engine.advance_to_next():
            pass
        manager.consume_hints(PID, ino, 0, 2, 3 * BLOCK_SIZE)
        assert manager.outstanding_hints(PID) == manager.lifecycle.open_total == 0

    def test_finalize_closes_every_hint(self):
        manager, fs, engine = make_tip_with_lifecycle()
        ino = fs.lookup("f0")
        manager.disclose(PID, ino, 0, 4 * BLOCK_SIZE)
        while engine.advance_to_next():
            pass
        manager.finalize()
        counts = manager.lifecycle.summary_counts()
        assert counts["open"] == 0
        assert counts["wasted"] == 4


APPS = ("agrep", "gnuld", "xds", "postgres20")
LIFECYCLE_PROFILES = (None, "restart-storm", "hint-corruption")


class TestLifecycleInvariantsEndToEnd:
    """Every disclosed hint ends in exactly one terminal state — across
    every app, fault-free and under chaos."""

    @pytest.mark.parametrize("app", APPS)
    @pytest.mark.parametrize("profile", LIFECYCLE_PROFILES)
    def test_ledger_balances(self, app, profile):
        cfg = ExperimentConfig(
            app=app,
            workload_scale=SCALE,
            variant=Variant.SPECULATING,
            fault_plan=fault_plans.profile(profile) if profile else None,
        )
        result, system = run_experiment_with_system(cfg)
        counts = system.manager.lifecycle.summary_counts()
        assert counts["open"] == 0, counts
        assert (counts["consumed"] + counts["cancelled"] + counts["wasted"]
                == counts["disclosed"]), counts
        assert result.hint_lifecycle == counts


class TestZeroPerturbation:
    def test_traced_run_cycle_identical(self):
        cfg = ExperimentConfig(app="agrep", workload_scale=SCALE,
                               variant=Variant.SPECULATING)
        plain = run_experiment(cfg)
        tracer = Tracer(SimClock())
        traced = run_experiment(cfg, tracer=tracer)
        assert traced.cycles == plain.cycles
        assert traced.output == plain.output
        assert traced.counters == plain.counters
        assert len(tracer) > 0

    def test_category_filter_does_not_perturb(self):
        cfg = ExperimentConfig(app="agrep", workload_scale=SCALE,
                               variant=Variant.SPECULATING)
        plain = run_experiment(cfg)
        tracer = Tracer(SimClock(), categories=(CAT_SPEC,))
        traced = run_experiment(cfg, tracer=tracer)
        assert traced.cycles == plain.cycles
        assert all(e.category == CAT_SPEC for e in tracer.events())


class TestAnalyzer:
    def _run(self):
        cfg = ExperimentConfig(app="agrep", workload_scale=SCALE,
                               variant=Variant.SPECULATING)
        tracer = Tracer(SimClock())
        result, system = run_experiment_with_system(cfg, tracer=tracer)
        return result, system, tracer

    def test_summary_metrics(self):
        result, system, tracer = self._run()
        lifecycle = system.manager.lifecycle
        breakdown = stall_breakdown(system.kernel)
        analyzer = TraceAnalyzer(tracer, lifecycle=lifecycle, breakdown=breakdown)
        assert lifecycle.open_total == 0
        assert lifecycle.lead_times.median > 0
        assert 0.0 <= lifecycle.pct_ready_before_demand <= 100.0
        # Speculation ran strictly inside demand stalls on one CPU.
        overlap = analyzer.overlapped_speculation_cycles()
        assert 0 < overlap <= breakdown.demand_stall
        assert analyzer.disk_utilization(breakdown.wall)  # every disk saw traffic
        text = analyzer.render_summary()
        assert "stall breakdown" in text and "hint lead time" in text
        assert f"({overlap:,} inside stalls)" in text
        assert text.splitlines()[-1] == (
            f"trace                {len(tracer):,} events (0 dropped)")
        (hints,) = [line for line in text.splitlines() if line.startswith("hints ")]
        assert hints.endswith(" open=0")


class TestRunResultSerialization:
    def test_observability_fields_round_trip(self):
        cfg = ExperimentConfig(app="agrep", workload_scale=SCALE,
                               variant=Variant.SPECULATING)
        result = run_experiment(cfg)
        assert result.stall_breakdown["wall"] == result.cycles
        assert result.hint_lifecycle["open"] == 0
        assert result.hint_lead_median > 0
        again = RunResult.from_jsonable(result.to_jsonable())
        assert again.stall_breakdown == result.stall_breakdown
        assert again.hint_lifecycle == result.hint_lifecycle
        assert again.hint_lead_median == result.hint_lead_median
        assert (again.pct_prefetches_before_demand
                == result.pct_prefetches_before_demand)


class TestOracleTraceDump:
    def test_divergence_dumps_both_traces(self, tmp_path, monkeypatch):
        from repro.harness import fuzz as fuzz_mod
        from repro.harness.oracle import run_oracle_cell

        real = fuzz_mod.run_experiment_with_system

        def tamper(cfg, tracer=NULL_TRACER):
            result, system = real(cfg, tracer=tracer)
            if cfg.variant is Variant.SPECULATING:
                result.output = result.output + b"X"  # forced divergence
            return result, system

        monkeypatch.setattr(fuzz_mod, "run_experiment_with_system", tamper)
        cell = run_oracle_cell(
            "agrep", None, workload_scale=SCALE, trace_dir=str(tmp_path)
        )
        assert not cell.passed
        dumps = sorted(p.name for p in tmp_path.iterdir())
        assert dumps == ["agrep-fault-free-original.jsonl",
                        "agrep-fault-free-speculating.jsonl"]
        for path in tmp_path.iterdir():
            lines = path.read_text().splitlines()
            assert lines and all(json.loads(line) for line in lines)
        assert "traces in" in cell.detail

    def test_passing_cell_dumps_nothing(self, tmp_path):
        from repro.harness.oracle import run_oracle_cell

        cell = run_oracle_cell("agrep", None, workload_scale=SCALE,
                               trace_dir=str(tmp_path / "dumps"))
        assert cell.passed
        assert not (tmp_path / "dumps").exists()


class TestTraceCli:
    def test_trace_command_chrome_export(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "t.json"
        rc = main(["trace", "agrep", "--scale", str(SCALE),
                   "--export", "chrome", "--out", str(out),
                   "--summary"])
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["traceEvents"]
        printed = capsys.readouterr().out
        assert "stall breakdown" in printed
        assert "Perfetto" in printed

    def test_trace_command_category_filter(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "t.jsonl"
        rc = main(["trace", "agrep", "--scale", str(SCALE),
                   "--categories", "hint,tip", "--out", str(out)])
        assert rc == 0
        cats = {json.loads(line)["cat"] for line in out.read_text().splitlines()}
        assert cats <= {"hint", "tip"}

    def test_trace_command_bad_category_fails_clean(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(["trace", "agrep", "--scale", str(SCALE),
                   "--categories", "nope",
                   "--out", str(tmp_path / "t.jsonl")])
        assert rc == 1
        assert "unknown trace category" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["", ",,"])
    def test_trace_command_empty_category_list_fails_clean(
        self, tmp_path, capsys, spec
    ):
        from repro.cli import main

        out = tmp_path / "t.jsonl"
        rc = main(["trace", "agrep", "--scale", str(SCALE),
                   "--categories", spec, "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "repro: error: TraceError: empty trace category list" in err
        assert not out.exists()

    def test_trace_out_writes_jsonl(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "run.jsonl"
        rc = main(["trace", "agrep", "--scale", str(SCALE),
                   "--out", str(out)])
        assert rc == 0
        assert out.exists() and out.read_text().strip()
        assert "trace written" in capsys.readouterr().out

    def test_run_trace_out_is_oracle_only(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "dumps"
        rc = main(["run", "agrep", "--scale", str(SCALE),
                   "--trace-out", str(out)])
        assert rc == 1
        assert "requires --oracle" in capsys.readouterr().err
        assert not out.exists()

    def test_all_categories_documented(self):
        # The CLI help string and the category tuple must not drift apart.
        from repro.cli import build_parser

        parser = build_parser()
        help_text = parser.format_help()
        assert "trace" in help_text
        for name in ALL_CATEGORIES:
            assert name  # categories are non-empty strings
