"""Unit tests for the metrics registry."""

from __future__ import annotations

import json

from repro.obs.metrics import (
    LatencyHistogram,
    MetricsRegistry,
    is_metrics_snapshot,
)


class TestInstruments:
    def test_counters_accumulate(self):
        registry = MetricsRegistry()
        registry.inc("cache.hit")
        registry.inc("cache.hit")
        registry.inc("cache.miss", 3)
        assert registry.counter("cache.hit") == 2.0
        assert registry.counter("cache.miss") == 3.0
        assert registry.counter("never.touched") == 0.0

    def test_gauges_last_write_wins(self):
        registry = MetricsRegistry()
        registry.gauge("blocking.pairs_per_sec", 10.0)
        registry.gauge("blocking.pairs_per_sec", 20.0)
        assert registry.snapshot()["gauges"]["blocking.pairs_per_sec"] == 20.0

    def test_timer_histogram_summary(self):
        registry = MetricsRegistry()
        for seconds in (0.1, 0.3, 0.2):
            registry.observe("fit", seconds)
        stat = registry.snapshot()["timers"]["fit"]
        assert stat["count"] == 3
        assert abs(stat["total"] - 0.6) < 1e-9
        assert abs(stat["mean"] - 0.2) < 1e-9
        assert abs(stat["min"] - 0.1) < 1e-9
        assert abs(stat["max"] - 0.3) < 1e-9

    def test_time_context_manager_observes(self):
        registry = MetricsRegistry()
        with registry.time("unit"):
            pass
        assert registry.snapshot()["timers"]["unit"]["count"] == 1

    def test_timer_reports_quantiles(self):
        registry = MetricsRegistry()
        for millis in range(1, 101):
            registry.observe("query", millis / 1000.0)
        stat = registry.snapshot()["timers"]["query"]
        # Log buckets are within 10% of the true quantile.
        assert abs(stat["p50"] - 0.050) <= 0.005
        assert abs(stat["p90"] - 0.090) <= 0.009
        assert abs(stat["p99"] - 0.099) <= 0.0099
        assert stat["min"] <= stat["p50"] <= stat["p90"] <= stat["p99"]
        assert stat["p99"] <= stat["max"]

    def test_empty_timer_reports_zero_min(self):
        stat = LatencyHistogram()
        assert len(stat) == 0
        assert stat.to_dict()["min"] == 0.0
        assert stat.to_dict()["p99"] == 0.0

    def test_disabled_registry_is_inert(self):
        registry = MetricsRegistry(enabled=False)
        registry.inc("a")
        registry.gauge("b", 1.0)
        registry.observe("c", 1.0)
        assert registry.snapshot() == {"counters": {}, "gauges": {}, "timers": {}}


class TestSnapshot:
    def test_snapshot_is_sorted_and_json_ready(self):
        registry = MetricsRegistry()
        registry.inc("zeta")
        registry.inc("alpha")
        registry.observe("beta", 0.5)
        snapshot = registry.snapshot()
        assert list(snapshot) == ["counters", "gauges", "timers"]
        assert list(snapshot["counters"]) == ["alpha", "zeta"]
        json.dumps(snapshot)  # must not raise

    def test_same_work_gives_identical_snapshots(self):
        def work(registry):
            registry.inc("cache.hit", 2)
            registry.gauge("g", 1.5)
            registry.observe("t", 0.25)

        first, second = MetricsRegistry(), MetricsRegistry()
        work(first)
        work(second)
        assert first.snapshot() == second.snapshot()

    def test_is_metrics_snapshot_disambiguates_figures(self):
        registry = MetricsRegistry()
        assert is_metrics_snapshot(registry.snapshot())
        figure = {"Ds1": {"NLB": 0.2, "LBM": 0.1}}  # a FigureSeries
        assert not is_metrics_snapshot(figure)
        assert not is_metrics_snapshot([])
        assert not is_metrics_snapshot("counters gauges timers")
