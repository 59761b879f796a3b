"""Metrics registry tests: counters, gauges, histogram percentiles,
parent/child scoping, Prometheus exposition and the Stats bridge."""

import math

import pytest

from repro.engines import Database
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Histogram,
    MetricsRegistry,
    percentile_of,
)


class TestCounterGauge:
    def test_counter_increments(self):
        registry = MetricsRegistry(parent=None)
        c = registry.counter("requests")
        c.inc()
        c.inc(4)
        assert c.value == 5
        # same name returns the same metric
        assert registry.counter("requests") is c

    def test_gauge_set_and_inc(self):
        registry = MetricsRegistry(parent=None)
        g = registry.gauge("depth")
        g.set(3.5)
        assert g.value == 3.5
        g.inc(0.5)
        assert g.value == 4.0


class TestHistogram:
    def test_counts_and_sum(self):
        h = Histogram("lat", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 5.0, 50.0):
            h.observe(v)
        assert h.count == 4
        assert h.sum == pytest.approx(55.55)
        assert h.counts == [1, 1, 1, 1]  # one overflow
        assert h.min == 0.05
        assert h.max == 50.0

    def test_percentiles_interpolate(self):
        h = Histogram("lat", buckets=(1.0, 2.0, 4.0))
        for _ in range(100):
            h.observe(1.5)
        p50 = h.percentile(50.0)
        assert 1.0 <= p50 <= 2.0
        assert h.p95 <= 2.0
        assert h.p99 <= 2.0

    def test_empty_is_nan(self):
        h = Histogram("lat")
        assert math.isnan(h.percentile(50.0))
        assert math.isnan(h.mean)

    def test_default_buckets_cover_latency_range(self):
        assert DEFAULT_BUCKETS[0] <= 1e-5
        assert DEFAULT_BUCKETS[-1] >= 10.0

    def test_rejects_bad_percentile(self):
        h = Histogram("lat")
        h.observe(1.0)
        with pytest.raises(ValueError):
            h.percentile(123.0)


class TestScoping:
    def test_child_forwards_to_parent(self):
        parent = MetricsRegistry(parent=None)
        child_a = MetricsRegistry(parent=parent)
        child_b = MetricsRegistry(parent=parent)
        child_a.counter("queries").inc(2)
        child_b.counter("queries").inc(3)
        assert child_a.counter("queries").value == 2
        assert child_b.counter("queries").value == 3
        assert parent.counter("queries").value == 5

    def test_histogram_forwards(self):
        parent = MetricsRegistry(parent=None)
        child = MetricsRegistry(parent=parent)
        child.histogram("lat").observe(0.5)
        assert parent.histogram("lat").count == 1

    def test_database_registry_chains_to_global(self):
        from repro.obs import metrics as m

        before = m.GLOBAL.counter("queries_total").value
        db = Database("greenwood")
        db.execute("CREATE TABLE t (id INTEGER)")
        db.obs.enable_tracing()
        db.execute("SELECT COUNT(*) FROM t")
        assert db.obs.metrics.counter("queries_total").value == 1
        assert m.GLOBAL.counter("queries_total").value == before + 1


class TestExposition:
    def test_prometheus_text_format(self):
        registry = MetricsRegistry(parent=None)
        registry.counter("queries_total", "statements").inc(7)
        registry.gauge("pool_size").set(3)
        registry.histogram("lat", buckets=(0.1, 1.0)).observe(0.05)
        text = registry.render()
        assert "# TYPE jackpine_queries_total counter" in text
        assert "jackpine_queries_total 7" in text
        assert "jackpine_pool_size 3" in text
        assert '# TYPE jackpine_lat histogram' in text
        assert 'jackpine_lat_bucket{le="0.1"} 1' in text
        assert 'jackpine_lat_bucket{le="+Inf"} 1' in text
        assert "jackpine_lat_count 1" in text
        assert 'quantile="0.95"' in text

    def test_stats_binding_is_live(self):
        db = Database("greenwood")
        db.execute("CREATE TABLE t (id INTEGER)")
        db.execute("INSERT INTO t VALUES (1), (2), (3)")
        db.execute("SELECT COUNT(*) FROM t")
        text = db.obs.metrics.render()
        assert 'jackpine_engine_rows_scanned{scope="greenwood"} 3' in text
        db.execute("SELECT COUNT(*) FROM t")
        assert 'rows_scanned{scope="greenwood"} 6' in db.obs.metrics.render()

    def test_snapshot_view(self):
        registry = MetricsRegistry(parent=None)
        registry.counter("a").inc()
        registry.histogram("h").observe(0.2)
        snap = registry.snapshot()
        assert snap["a"] == 1
        assert snap["h"]["count"] == 1


class TestPercentileOf:
    def test_exact_interpolation(self):
        samples = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert percentile_of(samples, 50.0) == 3.0
        assert percentile_of(samples, 0.0) == 1.0
        assert percentile_of(samples, 100.0) == 5.0
        assert percentile_of(samples, 25.0) == 2.0

    def test_single_sample(self):
        assert percentile_of([7.0], 95.0) == 7.0

    def test_empty_is_nan(self):
        assert math.isnan(percentile_of([], 50.0))

    def test_query_timing_percentiles(self):
        from repro.core.stats import QueryTiming

        timing = QueryTiming("q")
        for value in (0.1, 0.2, 0.3, 0.4, 0.5):
            timing.record(value)
        assert timing.percentile(50.0) == pytest.approx(0.3)
        assert timing.p95 == pytest.approx(0.48)
        assert timing.p99 == pytest.approx(0.496)
        assert timing.p50 == timing.median
