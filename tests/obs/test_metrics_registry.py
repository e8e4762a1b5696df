"""Tests for the MetricsRegistry core: counters, gauges, histograms."""

import threading

import pytest

from repro.obs import (
    ITERATION_BUCKETS,
    LATENCY_BUCKETS,
    MetricsRegistry,
    default_buckets,
)


class TestCounters:
    def test_increment_and_read(self):
        registry = MetricsRegistry()
        registry.inc("requests_total")
        registry.inc("requests_total", 2.0)
        assert registry.counter_value("requests_total") == 3.0

    def test_labels_separate_series(self):
        registry = MetricsRegistry()
        registry.inc("tasks_total", kind="a")
        registry.inc("tasks_total", kind="b")
        registry.inc("tasks_total", kind="a")
        assert registry.counter_value("tasks_total", kind="a") == 2.0
        assert registry.counter_value("tasks_total", kind="b") == 1.0

    def test_label_order_is_irrelevant(self):
        registry = MetricsRegistry()
        registry.inc("m", x="1", y="2")
        registry.inc("m", y="2", x="1")
        assert registry.counter_value("m", x="1", y="2") == 2.0

    def test_unset_counter_reads_zero(self):
        assert MetricsRegistry().counter_value("never") == 0.0


class TestThreadSafety:
    def test_concurrent_increments_lose_nothing(self):
        registry = MetricsRegistry()
        n_threads, n_incs = 8, 5000

        def hammer():
            for _ in range(n_incs):
                registry.inc("shared_total")
                registry.observe("shared_seconds", 0.01)

        threads = [threading.Thread(target=hammer)
                   for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert registry.counter_value("shared_total") == n_threads * n_incs
        snap = registry.snapshot()
        (histogram,) = snap["histograms"]
        assert histogram["count"] == n_threads * n_incs


class TestGauges:
    def test_set_and_add(self):
        registry = MetricsRegistry()
        registry.set_gauge("inflight", 3.0)
        registry.add_gauge("inflight", -1.0)
        assert registry.gauge_value("inflight") == 2.0


class TestHistograms:
    def test_default_buckets_by_suffix(self):
        assert default_buckets("x_seconds") == LATENCY_BUCKETS
        assert default_buckets("x_iterations") == ITERATION_BUCKETS
        assert default_buckets("plain") != LATENCY_BUCKETS

    def test_le_bucket_placement(self):
        # Prometheus semantics: value == bound lands in that bound's bucket.
        registry = MetricsRegistry()
        registry.declare_histogram("h", (1.0, 2.0, 5.0))
        for value in (0.5, 1.0, 1.5, 2.0, 10.0):
            registry.observe("h", value)
        (entry,) = registry.snapshot()["histograms"]
        # buckets are [bound, cumulative_count]
        assert entry["buckets"] == [[1.0, 2], [2.0, 4], [5.0, 4]]
        assert entry["count"] == 5  # the 10.0 sits in +Inf

    def test_percentiles_interpolate(self):
        registry = MetricsRegistry()
        registry.declare_histogram("h", (10.0, 20.0))
        for _ in range(100):
            registry.observe("h", 15.0)  # all in the (10, 20] bucket
        (entry,) = registry.snapshot()["histograms"]
        assert 10.0 < entry["p50"] <= 20.0
        assert 10.0 < entry["p99"] <= 20.0
        assert entry["p50"] <= entry["p90"] <= entry["p99"]

    def test_percentiles_spread(self):
        registry = MetricsRegistry()
        registry.declare_histogram("h", tuple(float(b) for b in
                                              range(1, 101)))
        for value in range(1, 101):
            registry.observe("h", float(value))
        (entry,) = registry.snapshot()["histograms"]
        assert entry["p50"] == pytest.approx(50.0, abs=1.0)
        assert entry["p90"] == pytest.approx(90.0, abs=1.0)
        assert entry["p99"] == pytest.approx(99.0, abs=1.0)

    def test_sum_and_empty_quantile(self):
        registry = MetricsRegistry()
        registry.observe("h_seconds", 0.25)
        registry.observe("h_seconds", 0.75)
        (entry,) = registry.snapshot()["histograms"]
        assert entry["sum"] == pytest.approx(1.0)
        fresh = MetricsRegistry()
        assert fresh.snapshot()["histograms"] == []

    def test_declare_rejects_nonincreasing(self):
        with pytest.raises(ValueError):
            MetricsRegistry().declare_histogram("h", (1.0, 1.0, 2.0))


class TestCollectors:
    def test_samples_appear_and_disappear(self):
        registry = MetricsRegistry()

        def collect():
            return [("counter", "hits_total", {}, 7.0),
                    ("gauge", "hit_rate", {}, 0.5)]

        registry.add_collector(collect)
        registry.add_collector(collect)  # idempotent
        snap = registry.snapshot()
        assert {"name": "hits_total", "labels": {}, "value": 7.0} \
            in snap["counters"]
        assert {"name": "hit_rate", "labels": {}, "value": 0.5} \
            in snap["gauges"]
        # collected samples are live, not stored
        assert registry.snapshot(include_collected=False)["counters"] == []
        registry.remove_collector(collect)
        assert registry.snapshot()["counters"] == []

    def test_reset_keeps_collectors(self):
        registry = MetricsRegistry()
        registry.add_collector(lambda: [("counter", "c_total", {}, 1.0)])
        registry.inc("stored_total")
        registry.reset()
        snap = registry.snapshot()
        assert [entry["name"] for entry in snap["counters"]] == ["c_total"]
