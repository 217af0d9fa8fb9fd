"""Metrics instruments: bucket edges, monotonicity, adapters, snapshot."""

import pytest

from repro.limits import PartialStats
from repro.obs.metrics import (
    Counter,
    DEFAULT_MS_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
    format_metrics_table,
    format_stats,
)
from repro.tautomata.lazy import ExplorationStats


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter()
        assert counter.value == 0
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_rejects_negative_increments(self):
        counter = Counter()
        with pytest.raises(ValueError, match=">= 0"):
            counter.inc(-1)
        assert counter.value == 0


class TestGauge:
    def test_last_set_wins(self):
        gauge = Gauge()
        gauge.set(10)
        gauge.set(3.5)
        assert gauge.value == 3.5


class TestHistogramBucketEdges:
    def test_value_equal_to_bound_lands_in_that_bucket(self):
        histogram = Histogram(bounds=(1.0, 5.0, 10.0))
        histogram.observe(1.0)  # inclusive upper bound
        histogram.observe(5.0)
        histogram.observe(10.0)
        assert histogram.bucket_counts == [1, 1, 1, 0]

    def test_value_just_above_bound_moves_up(self):
        histogram = Histogram(bounds=(1.0, 5.0))
        histogram.observe(1.0000001)
        assert histogram.bucket_counts == [0, 1, 0]

    def test_overflow_bucket_catches_everything_above_last(self):
        histogram = Histogram(bounds=(1.0, 5.0))
        histogram.observe(5.1)
        histogram.observe(1e9)
        assert histogram.bucket_counts == [0, 0, 2]

    def test_summary_stats(self):
        histogram = Histogram(bounds=(10.0,))
        for value in (2.0, 4.0, 12.0):
            histogram.observe(value)
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 3
        assert snapshot["sum"] == pytest.approx(18.0)
        assert snapshot["min"] == 2.0
        assert snapshot["max"] == 12.0
        assert snapshot["mean"] == pytest.approx(6.0)
        assert snapshot["buckets"] == {"<=10": 2, ">10": 1}

    def test_empty_histogram_snapshot(self):
        snapshot = Histogram(bounds=(1.0,)).snapshot()
        assert snapshot["count"] == 0
        assert snapshot["min"] is None
        assert snapshot["max"] is None
        assert snapshot["mean"] is None

    def test_rejects_unordered_bounds(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram(bounds=(5.0, 1.0))
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram(bounds=(1.0, 1.0))

    def test_rejects_empty_bounds(self):
        with pytest.raises(ValueError, match="at least one"):
            Histogram(bounds=())

    def test_default_bounds_are_the_ms_ladder(self):
        assert Histogram().bounds == DEFAULT_MS_BUCKETS


def _stats(states=2, rules=5, fired=None, worst=40, steps=9):
    return ExplorationStats(
        explored_states=states,
        explored_rules=rules,
        fired_rules=fired,
        worst_case_rules=worst,
        step_attempts=steps,
    )


def _partial(reason="deadline"):
    return PartialStats(
        reason=reason,
        explored_states=1,
        explored_rules=2,
        step_attempts=3,
    )


class TestRegistry:
    def test_instruments_are_cached_by_name(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.gauge("y") is registry.gauge("y")
        assert registry.histogram("z") is registry.histogram("z")

    def test_absorb_exploration(self):
        registry = MetricsRegistry().absorb(_stats(fired=4))
        snapshot = registry.snapshot()
        assert snapshot["counters"]["ic.explored_states"] == 2
        assert snapshot["counters"]["ic.explored_rules"] == 5
        assert snapshot["counters"]["ic.worst_case_rules"] == 40
        assert snapshot["counters"]["ic.step_attempts"] == 9
        assert snapshot["counters"]["ic.fired_rules"] == 4

    def test_absorb_exploration_skips_untracked_fired_rules(self):
        registry = MetricsRegistry().absorb(_stats(fired=None))
        assert "ic.fired_rules" not in registry.snapshot()["counters"]

    def test_absorb_partial_counts_reason(self):
        registry = MetricsRegistry()
        registry.absorb(_partial("deadline"), _partial("deadline"))
        snapshot = registry.snapshot()
        assert snapshot["counters"]["ic.unknown.deadline"] == 2
        assert snapshot["counters"]["ic.partial.explored_rules"] == 4

    def test_absorb_caches_mirrors_cache_stats_exactly(self):
        from repro.regex.cache import cache_metrics, cache_stats

        registry = MetricsRegistry().absorb(cache_metrics)
        gauges = registry.snapshot()["gauges"]
        for cache_name, counters in cache_stats().items():
            for key, value in counters.items():
                assert gauges[f"cache.{cache_name}.{key}"] == value

    def test_absorb_pool_mirrors_pool_stats_as_gauges(self):
        from repro.independence.pool import pool_metrics, pool_stats

        registry = MetricsRegistry().absorb(pool_metrics)
        gauges = registry.snapshot()["gauges"]
        stats = pool_stats()
        for key in (
            "pools_created",
            "pools_reused",
            "warmup_ms_total",
            "gate_parallel",
            "gate_serial",
            "serial_fallback_chunks",
        ):
            assert gauges[f"pool.{key}"] == stats[key]

    def test_absorb_pool_accepts_a_pinned_snapshot(self, monkeypatch):
        from repro.independence import pool

        monkeypatch.setattr(pool, "_stats", {"gate_serial": 3})
        registry = MetricsRegistry().absorb(pool.pool_metrics)
        # re-absorbing reflects (gauge), never double-counts
        registry.absorb(pool.pool_metrics)
        assert registry.snapshot()["gauges"]["pool.gate_serial"] == 3

    def test_snapshot_is_plain_json_data(self):
        import json

        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.gauge("g").set(1.5)
        registry.histogram("h").observe(3.0)
        json.dumps(registry.snapshot())  # raises if not JSON-ready


class TestStatsSnapshot:
    """Explored-work accounting surfaces through ``metrics()`` only:
    the same names for every pair, whichever stats object it carries."""

    def _cell(self, exploration=None, partial=None):
        from repro.independence.criterion import Verdict
        from repro.independence.matrix import MatrixCell

        return MatrixCell(
            row=0, column=0, verdict=Verdict.UNKNOWN if partial else
            Verdict.INDEPENDENT, elapsed_seconds=0.002,
            exploration=exploration, partial=partial,
        )

    def test_empty_run(self):
        snapshot = MetricsRegistry().absorb(self._cell()).snapshot()
        assert snapshot["counters"] == {"ic.verdict.independent": 1}
        assert snapshot["gauges"] == {}
        assert list(snapshot["histograms"]) == ["ic.cell_ms"]

    def test_exploration_fields(self):
        counters = MetricsRegistry().absorb(
            self._cell(exploration=_stats(fired=7))
        ).snapshot()["counters"]
        assert counters["ic.explored_states"] == 2
        assert counters["ic.explored_rules"] == 5
        assert counters["ic.fired_rules"] == 7
        assert counters["ic.worst_case_rules"] == 40
        assert not any(name.startswith("ic.unknown.") for name in counters)

    def test_partial_fields(self):
        counters = MetricsRegistry().absorb(
            self._cell(partial=_partial("rules"))
        ).snapshot()["counters"]
        assert counters["ic.partial.explored_states"] == 1
        assert counters["ic.partial.explored_rules"] == 2
        assert "ic.worst_case_rules" not in counters  # never learned
        assert counters["ic.unknown.rules"] == 1


class TestFormatStats:
    def test_partial_takes_priority(self):
        rendered = format_stats(_stats(), _partial(), automaton_size=9)
        assert rendered == _partial().describe()

    def test_eager_renders_size(self):
        assert format_stats(None, None, automaton_size=17) == "|A|=17"

    def test_lazy_renders_explored_vs_worst_case(self):
        rendered = format_stats(_stats(), None, automaton_size=0)
        assert rendered == (
            "explored 2 states/5 rules of <= 40 worst-case rules"
        )


class TestFormatMetricsTable:
    def test_renders_all_instrument_kinds(self):
        registry = MetricsRegistry()
        registry.counter("ic.cells").inc(3)
        registry.gauge("matrix.elapsed_ms").set(12.5)
        registry.histogram("ic.cell_ms").observe(4.0)
        table = format_metrics_table(registry.snapshot())
        assert "ic.cells" in table
        assert "matrix.elapsed_ms" in table
        assert "count=1" in table

    def test_empty_snapshot_renders_empty(self):
        assert format_metrics_table({}) == ""
