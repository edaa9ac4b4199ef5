"""Unit tests for the metrics registry primitives."""

import pytest

from repro.errors import MetricsError, ReproError
from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    format_series,
    merge_histogram_data,
    merge_snapshots,
)


class TestFormatSeries:
    def test_labels_sorted_canonically(self):
        assert (
            format_series("m", {"b": "2", "a": "1"})
            == format_series("m", {"a": "1", "b": "2"})
            == 'm{a="1",b="2"}'
        )

    def test_no_labels(self):
        assert format_series("up", {}) == "up"


class TestCounter:
    def test_inc_and_value(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == 3.5


class TestGauge:
    def test_set_replaces(self):
        gauge = Gauge()
        assert gauge.value() == 0.0
        gauge.set(2)
        gauge.set(1)
        assert gauge.value() == 1.0


class TestHistogram:
    def test_observations_land_in_correct_buckets(self):
        histogram = Histogram(buckets=(0.1, 1.0))
        histogram.observe(0.05)   # <= 0.1
        histogram.observe(0.1)    # boundary is inclusive
        histogram.observe(0.5)    # <= 1.0
        histogram.observe(100.0)  # overflow
        data = histogram.data()
        assert data["counts"] == [2, 1, 1]
        assert data["count"] == 4
        assert data["min"] == 0.05
        assert data["max"] == 100.0

    def test_non_increasing_buckets_rejected(self):
        with pytest.raises(MetricsError, match="strictly increasing"):
            Histogram(buckets=(1.0, 1.0))
        with pytest.raises(MetricsError):
            Histogram(buckets=())

    def test_empty_histogram_snapshot(self):
        data = Histogram(buckets=(1.0,)).data()
        assert data["count"] == 0
        assert data["min"] is None and data["max"] is None


class TestRegistry:
    def test_same_series_returns_same_metric(self):
        registry = MetricsRegistry()
        a = registry.counter("hits", svc="x")
        b = registry.counter("hits", svc="x")
        assert a is b
        assert registry.counter("hits", svc="y") is not a

    def test_histogram_bucket_conflict_is_loud(self):
        registry = MetricsRegistry()
        registry.histogram("lat", buckets=(1.0, 2.0))
        with pytest.raises(MetricsError, match="already registered"):
            registry.histogram("lat", buckets=(5.0,))
        with pytest.raises(ReproError):  # typed under the repo-wide base
            registry.histogram("lat", buckets=(5.0,))

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("hits", svc="x").inc(3)
        registry.gauge("state").set(2)
        registry.histogram("lat", buckets=(1.0,), svc="x").observe(0.5)
        snap = registry.snapshot()
        assert snap["counters"] == {'hits{svc="x"}': 3.0}
        assert snap["gauges"] == {"state": 2.0}
        assert snap["histograms"]['lat{svc="x"}']["counts"] == [1, 0]


class TestMerge:
    def test_counters_add_gauges_max(self):
        merged = merge_snapshots(
            {"counters": {"c": 1.0}, "gauges": {"g": 2.0}, "histograms": {}},
            {"counters": {"c": 4.0, "d": 1.0}, "gauges": {"g": 1.0}, "histograms": {}},
        )
        assert merged["counters"] == {"c": 5.0, "d": 1.0}
        assert merged["gauges"] == {"g": 2.0}

    def test_histogram_bucket_mismatch_rejected(self):
        left = {"buckets": [1.0], "counts": [0, 0], "count": 0, "sum": 0.0,
                "min": None, "max": None}
        right = dict(left, buckets=[2.0])
        with pytest.raises(MetricsError, match="different buckets"):
            merge_histogram_data(left, right)

    def test_empty_merge(self):
        assert merge_snapshots() == {"counters": {}, "gauges": {}, "histograms": {}}
