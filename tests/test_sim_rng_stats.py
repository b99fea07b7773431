"""Tests for deterministic RNG and the statistics registry."""

from repro.sim.rng import DeterministicRng
from repro.sim.stats import Distribution, StatRegistry


class TestDeterministicRng:
    def test_same_seed_same_stream(self):
        a = DeterministicRng(1, "x")
        b = DeterministicRng(1, "x")
        assert [a.randint(0, 1000) for _ in range(20)] == [
            b.randint(0, 1000) for _ in range(20)
        ]

    def test_different_streams_differ(self):
        a = DeterministicRng(1, "x")
        b = DeterministicRng(1, "y")
        assert [a.randint(0, 10 ** 9) for _ in range(5)] != [
            b.randint(0, 10 ** 9) for _ in range(5)
        ]

    def test_fork_is_deterministic(self):
        a = DeterministicRng(7).fork("sub")
        b = DeterministicRng(7).fork("sub")
        assert a.bytes(16) == b.bytes(16)

    def test_fork_differs_from_parent(self):
        parent = DeterministicRng(7)
        child = parent.fork("sub")
        assert parent.bytes(16) != child.bytes(16)

    def test_pareto_int_bounds(self):
        rng = DeterministicRng(3)
        for _ in range(200):
            value = rng.pareto_int(1.3, 10, 100)
            assert 10 <= value <= 100

    def test_pareto_heavy_tail_shape(self):
        rng = DeterministicRng(3)
        values = [rng.pareto_int(1.3, 10, 10_000) for _ in range(2000)]
        small = sum(1 for v in values if v < 50)
        # Most draws should be near the minimum (heavy-tailed).
        assert small > len(values) / 2

    def test_shuffle_and_sample(self):
        rng = DeterministicRng(5)
        items = list(range(10))
        rng.shuffle(items)
        assert sorted(items) == list(range(10))
        picked = rng.sample(range(100), 5)
        assert len(set(picked)) == 5


class TestDistribution:
    def test_empty_distribution(self):
        d = Distribution("d")
        assert d.count == 0
        assert d.mean == 0.0
        assert d.median == 0.0

    def test_median_odd(self):
        d = Distribution("d")
        for v in (5, 1, 9):
            d.observe(v)
        assert d.median == 5

    def test_percentiles(self):
        d = Distribution("d")
        for v in range(101):
            d.observe(v)
        assert d.percentile(0) == 0
        assert d.percentile(100) == 100
        assert d.percentile(50) == 50

    def test_min_max_total(self):
        d = Distribution("d")
        for v in (4, 2, 6):
            d.observe(v)
        assert d.minimum == 2
        assert d.maximum == 6
        assert d.total == 12
        assert d.mean == 4

    def test_empty_percentile_is_zero(self):
        d = Distribution("d")
        assert d.percentile(0) == 0.0
        assert d.percentile(50) == 0.0
        assert d.percentile(100) == 0.0
        assert d.minimum == 0.0 and d.maximum == 0.0 and d.total == 0.0

    def test_single_observation_is_every_percentile(self):
        d = Distribution("d")
        d.observe(42)
        for pct in (0, 1, 50, 99, 100):
            assert d.percentile(pct) == 42
        assert d.median == 42

    def test_out_of_range_percentiles_clamp(self):
        d = Distribution("d")
        for v in (10, 20, 30):
            d.observe(v)
        assert d.percentile(-5) == 10
        assert d.percentile(250) == 30

    def test_sort_cache_invalidated_by_observe(self):
        d = Distribution("d")
        d.observe(5)
        assert d.median == 5  # populates the sort cache
        d.observe(1)
        d.observe(9)
        assert d.median == 5
        d.observe(100)
        d.observe(200)
        assert d.percentile(100) == 200

    def test_negative_values_tracked(self):
        d = Distribution("d")
        for v in (-3, 7, -8):
            d.observe(v)
        assert d.minimum == -8
        assert d.maximum == 7
        assert d.total == -4


class TestStatRegistry:
    def test_counter_created_on_first_use(self):
        reg = StatRegistry()
        reg.bump("a.b", 3)
        assert reg.get("a.b") == 3

    def test_bump_defaults_to_one(self):
        reg = StatRegistry()
        reg.bump("c")
        reg.bump("c")
        assert reg.get("c") == 2

    def test_get_missing_returns_default(self):
        reg = StatRegistry()
        assert reg.get("missing", default=7) == 7

    def test_snapshot_is_plain_dict(self):
        reg = StatRegistry()
        reg.bump("a", 1)
        reg.bump("b", 2)
        snap = reg.snapshot()
        assert snap == {"a": 1, "b": 2}
        reg.bump("a", 1)
        assert snap["a"] == 1  # snapshot decoupled

    def test_snapshot_in_first_bump_order(self):
        """RunResult's reason maps read counters in this order."""
        reg = StatRegistry()
        reg.bump("z")
        reg.bump("a")
        reg.bump("z")
        assert list(reg.snapshot()) == ["z", "a"]

    def test_distribution_or_none(self):
        reg = StatRegistry()
        assert reg.distribution_or_none("d") is None
        reg.distribution("d").observe(1)
        assert reg.distribution_or_none("d") is not None
