"""Tests for the experiment harness: configs, results, sweep drivers."""

import pytest

from repro.apps.datasets import generate_gnuld_objects
from repro.apps.gnuld import MAX_SECTIONS, GnuldWorkload
from repro.errors import DataLossError, FileSystemError, HarnessError
from repro.faults.plan import profile
from repro.fs.filesystem import FileSystem
from repro.harness.config import ExperimentConfig, Variant
from repro.harness.experiments import run_one
from repro.harness.fuzz import observe_variant
from repro.harness.results import RunResult, median_interval
from repro.harness.runner import run_experiment_with_system
from repro.params import DiskParams, SystemConfig, scaled_cache_blocks
from repro.trace.phases import stall_breakdown


class TestExperimentConfig:
    def test_unknown_app_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(app="notepad")

    @pytest.mark.parametrize("scale", [0, -1, -0.5, float("nan"),
                                       float("inf")])
    def test_non_positive_or_non_finite_scale_rejected(self, scale):
        with pytest.raises(HarnessError, match="workload scale"):
            ExperimentConfig(workload_scale=scale)

    @pytest.mark.parametrize("mb", [0, -4, float("nan"), float("inf")])
    def test_non_positive_or_non_finite_cache_rejected(self, mb):
        with pytest.raises(HarnessError, match="cache size"):
            ExperimentConfig(cache_paper_mb=mb)

    def test_cache_resolution(self):
        cfg = ExperimentConfig(cache_paper_mb=12.0)
        system = cfg.resolved_system()
        assert system.cache.capacity_blocks == scaled_cache_blocks(12.0)

    def test_cache_none_keeps_system(self):
        cfg = ExperimentConfig(cache_paper_mb=None)
        assert cfg.resolved_system().cache.capacity_blocks == \
            SystemConfig().cache.capacity_blocks

    def test_disk_scale_resolution(self):
        cfg = ExperimentConfig(disk_time_scale=4.0)
        disk = cfg.resolved_system().disk
        assert disk.positioning_s == pytest.approx(DiskParams().positioning_s / 4)
        assert disk.transfer_bps == pytest.approx(DiskParams().transfer_bps * 4)

    def test_with_copies(self):
        cfg = ExperimentConfig(app="agrep")
        other = cfg.with_(app="gnuld")
        assert other.app == "gnuld"
        assert cfg.app == "agrep"


class TestRunResult:
    def _result(self, cycles=1000, **counters):
        return RunResult(app="a", variant="original", cycles=cycles,
                         cpu_hz=1000, counters=counters)

    def test_elapsed_seconds(self):
        assert self._result(cycles=2500).elapsed_s == pytest.approx(2.5)

    def test_improvement_over(self):
        base = self._result(cycles=1000)
        faster = self._result(cycles=400)
        assert faster.improvement_over(base) == pytest.approx(60.0)

    def test_improvement_over_zero_baseline(self):
        assert self._result().improvement_over(self._result(cycles=0)) == 0.0

    def test_pct_hinted_empty(self):
        result = self._result()
        assert result.pct_calls_hinted == 0.0
        assert result.pct_bytes_hinted == 0.0
        assert result.pct_blocks_hinted == 0.0

    def test_pct_hinted(self):
        result = self._result(**{
            "app.read_calls": 10,
            "tip.hinted_read_calls": 4,
        })
        assert result.pct_calls_hinted == pytest.approx(40.0)

    def test_inaccurate_hints_sum(self):
        result = self._result(**{
            "tip.hints_cancelled": 3,
            "tip.hints_stale_dropped": 2,
            "tip.hints_unconsumed_at_end": 1,
        })
        assert result.inaccurate_hints == 6

    def test_dilation_requires_both_intervals(self):
        result = self._result()
        assert result.dilation_factor == 0.0
        result.median_read_interval = 10
        result.median_hint_interval = 75
        assert result.dilation_factor == pytest.approx(7.5)

    def test_summary_mentions_app(self):
        assert "a/original" in self._result().summary()


class TestMedianInterval:
    def test_too_few_points(self):
        assert median_interval([]) == 0.0
        assert median_interval([5]) == 0.0

    def test_median_of_gaps(self):
        assert median_interval([0, 10, 20, 100]) == 10

    def test_unsorted_gaps(self):
        # Gaps 5, 15, 10 -> sorted 5, 10, 15 -> median 10.
        assert median_interval([0, 5, 20, 30]) == 10


class TestDrivers:
    def test_run_one_smoke(self):
        result = run_one("agrep", Variant.ORIGINAL, workload_scale=0.1)
        assert result.read_calls > 0
        assert result.cycles > 0

    def test_determinism_across_runs(self):
        a = run_one("agrep", Variant.SPECULATING, workload_scale=0.2)
        b = run_one("agrep", Variant.SPECULATING, workload_scale=0.2)
        assert a.cycles == b.cycles
        assert a.counters == b.counters
        assert a.output == b.output


class TestFinishedSystem:
    """A file system lives as long as its run: the system a run hands back
    still answers for what it counted, and its files are closed."""

    def _assert_released(self, fs):
        assert fs.nfiles > 0
        for path in fs.paths():
            with pytest.raises(FileSystemError):
                fs.lookup(path).read_at(0, 1)

    def test_a_kept_cell_does_not_change_the_next(self):
        cfg = ExperimentConfig(app="gnuld", workload_scale=0.2)
        workload = GnuldWorkload().scaled(0.2)

        def inputs():
            fs = FileSystem()
            generate_gnuld_objects(fs, workload.nfiles, workload.seed,
                                   max_sections=MAX_SECTIONS)
            return {path: fs.lookup(path).data for path in fs.paths()}

        slot = inputs()
        before = {path: bytes(data) for path, data in slot.items()}
        first, kept = run_experiment_with_system(cfg)
        second, _ = run_experiment_with_system(cfg)
        assert first.to_jsonable() == second.to_jsonable()
        # The runs wrote ``out/kernel``, not their inputs, and releasing
        # them cleared nothing: the slot still holds the same bytes.
        after = inputs()
        assert all(after[path] is data for path, data in slot.items())
        assert {path: bytes(data) for path, data in after.items()} == before
        # What a kept system is read for still answers.
        assert kept.stats.snapshot() == first.counters
        assert stall_breakdown(kept.kernel).to_jsonable() \
            == first.stall_breakdown
        self._assert_released(kept.fs)

    def test_a_raising_run_releases_its_files_too(self):
        observed = observe_variant(ExperimentConfig(
            app="agrep", workload_scale=0.3,
            fault_plan=profile("double-fault"),
        ))
        assert isinstance(observed.error, DataLossError)
        assert observed.result is None
        self._assert_released(observed.system.fs)
