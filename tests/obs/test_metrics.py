"""Tests for the metrics registry and both exporters."""

from __future__ import annotations

import json

import pytest

from repro.core.concurrency import spawn_thread
from repro.core.stats import LatencyRecorder
from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    MetricsRegistry,
    parse_prometheus,
    snapshot,
    snapshot_to_json,
    to_prometheus,
    validate_snapshot,
)


class TestCounter:
    def test_accumulates(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4.5)
        assert counter.value == pytest.approx(5.5)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)

    def test_thread_safety(self):
        counter = Counter("c")

        def worker():
            for _ in range(5000):
                counter.inc()

        threads = [
            spawn_thread(f"counter-worker-{i}", worker) for i in range(4)
        ]
        for thread in threads:
            thread.join()
        assert counter.value == 20_000


class TestGauge:
    def test_set(self):
        gauge = Gauge("g")
        gauge.set(3.0)
        gauge.set(4.0)
        assert gauge.value == pytest.approx(4.0)

    def test_series_bounded(self):
        gauge = Gauge("g", series_capacity=3)
        for tick in range(10):
            gauge.set(float(tick), timestamp=float(tick))
        assert gauge.series() == [(7.0, 7.0), (8.0, 8.0), (9.0, 9.0)]

    def test_no_series_by_default(self):
        gauge = Gauge("g")
        gauge.set(1.0, timestamp=0.0)
        assert gauge.series() == []


class TestHistogram:
    """The one histogram class is the data plane's ``LatencyRecorder``."""

    def test_counts_and_sum(self):
        histogram = LatencyRecorder("h", buckets=(1.0, 2.0, 5.0))
        for value in (0.5, 1.5, 10.0):
            histogram.record(value)
        assert histogram.count == 3
        assert histogram.sum == pytest.approx(12.0)
        assert histogram.mean() == pytest.approx(4.0)

    def test_bucket_counts_cumulative_with_inf(self):
        histogram = LatencyRecorder("h", buckets=(1.0, 2.0))
        for value in (0.5, 1.5, 3.0, 4.0):
            histogram.record(value)
        counts = histogram.bucket_counts()
        assert counts[0] == (1.0, 1)
        assert counts[1] == (2.0, 2)
        assert counts[2][1] == 4  # +Inf

    def test_boundary_lands_in_its_bucket(self):
        histogram = LatencyRecorder("h", buckets=(1.0, 2.0))
        histogram.record(1.0)  # le="1.0" must include 1.0
        assert histogram.bucket_counts()[0] == (1.0, 1)

    def test_quantiles_bracket_samples(self):
        histogram = LatencyRecorder("h")
        values = [0.001 * k for k in range(1, 101)]
        for value in values:
            histogram.record(value)
        p50 = histogram.quantile(0.5)
        assert 0.04 <= p50 <= 0.06
        assert histogram.quantile(1.0) <= max(values) + 1e-9
        assert histogram.quantile(0.0) >= 0.0

    def test_quantile_empty_is_zero(self):
        assert LatencyRecorder("h").quantile(0.5) == 0.0

    def test_quantile_validation(self):
        with pytest.raises(ValueError):
            LatencyRecorder("h").quantile(1.5)

    def test_rejects_bad_buckets(self):
        with pytest.raises(ValueError):
            LatencyRecorder("h", buckets=())
        with pytest.raises(ValueError):
            LatencyRecorder("h", buckets=(2.0, 1.0))

    def test_default_buckets_ascending(self):
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)


class TestRegistry:
    def test_same_name_labels_returns_same_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("c", {"x": "1"})
        b = registry.counter("c", {"x": "1"})
        assert a is b
        assert len(registry) == 1

    def test_label_order_is_canonical(self):
        registry = MetricsRegistry()
        a = registry.gauge("g", {"a": "1", "b": "2"})
        b = registry.gauge("g", {"b": "2", "a": "1"})
        assert a is b

    def test_same_name_different_kind_rejected(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(ValueError):
            registry.gauge("m")

    def test_expose_exports_the_owners_recorder_itself(self):
        registry = MetricsRegistry()
        recorder = LatencyRecorder("learner.actual-wait")
        registry.expose("wait_seconds", {"process": "learner"}, recorder)
        recorder.record(0.25)  # recorded once, by its owner
        (metric,) = registry.collect()
        assert (metric.name, metric.kind) == ("wait_seconds", "histogram")
        assert metric.instrument is recorder
        (entry,) = snapshot(registry)["metrics"]
        assert entry["count"] == 1 and entry["sum"] == 0.25
        # A replacement owner's recorder takes the name over.
        registry.expose("wait_seconds", {"process": "learner"}, LatencyRecorder())
        assert snapshot(registry)["metrics"][0]["count"] == 0
        assert len(registry) == 1

    def test_collect_sorted(self):
        registry = MetricsRegistry()
        registry.counter("zz")
        registry.counter("aa", {"p": "2"})
        registry.counter("aa", {"p": "1"})
        names = [(m.name, m.labels) for m in registry.collect()]
        assert names == sorted(names)

    def test_concurrent_get_or_create(self):
        registry = MetricsRegistry()
        instruments = []

        def worker():
            for index in range(200):
                instruments.append(registry.counter("c", {"i": str(index % 5)}))

        threads = [
            spawn_thread(f"registry-worker-{i}", worker) for i in range(4)
        ]
        for thread in threads:
            thread.join()
        assert len(registry) == 5


class TestPrometheusExport:
    def make_registry(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("messages_total", {"process": "learner"}, help="m").inc(3)
        gauge = registry.gauge("queue_depth", {"q": 'odd"name\\x'})
        gauge.set(7)
        histogram = registry.histogram("latency_seconds", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            histogram.record(value)
        return registry

    def test_every_line_parses(self):
        text = to_prometheus(self.make_registry())
        samples = parse_prometheus(text)  # raises on any malformed line
        names = {sample["name"] for sample in samples}
        assert "xt_messages_total" in names
        assert "xt_latency_seconds_bucket" in names
        assert "xt_latency_seconds_sum" in names
        assert "xt_latency_seconds_count" in names

    def test_values_round_trip(self):
        samples = parse_prometheus(to_prometheus(self.make_registry()))
        by_name = {}
        for sample in samples:
            by_name.setdefault(sample["name"], []).append(sample)
        assert by_name["xt_messages_total"][0]["value"] == 3.0
        assert by_name["xt_messages_total"][0]["labels"] == {"process": "learner"}
        count = by_name["xt_latency_seconds_count"][0]["value"]
        assert count == 3.0
        inf_bucket = [
            sample
            for sample in by_name["xt_latency_seconds_bucket"]
            if sample["labels"]["le"] == "+Inf"
        ]
        assert inf_bucket[0]["value"] == 3.0

    def test_escaped_label_survives(self):
        text = to_prometheus(self.make_registry())
        (sample,) = [
            s for s in parse_prometheus(text) if s["name"] == "xt_queue_depth"
        ]
        assert sample["value"] == 7.0

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_prometheus("not a metric line at all!")

    def test_parse_rejects_bad_comment(self):
        with pytest.raises(ValueError):
            parse_prometheus("# SOMETHING else\n")


class TestSnapshot:
    def test_deterministic_json(self):
        def build():
            registry = MetricsRegistry()
            registry.counter("b_total").inc(2)
            registry.counter("a_total", {"k": "v"}).inc(1)
            registry.histogram("h_seconds", buckets=(1.0,)).record(0.5)
            return snapshot_to_json(registry, meta={"run": "x"})

        assert build() == build()

    def test_snapshot_validates(self):
        registry = MetricsRegistry()
        registry.counter("c_total").inc()
        gauge = registry.gauge("g", series_capacity=4)
        gauge.set(1.0, timestamp=0.5)
        registry.histogram("h_seconds").record(0.01)
        data = snapshot(registry, meta={"elapsed_s": 1.0})
        assert validate_snapshot(data) == []
        # And survives a JSON round trip.
        assert validate_snapshot(json.loads(json.dumps(data))) == []

    def test_validator_catches_problems(self):
        assert validate_snapshot({"schema": "nope", "metrics": []})
        bad_counter = {
            "schema": "repro.obs/v1",
            "meta": {},
            "metrics": [
                {"name": "c", "type": "counter", "labels": {}, "value": -1}
            ],
        }
        assert any("must be >= 0" in p for p in validate_snapshot(bad_counter))
        bad_buckets = {
            "schema": "repro.obs/v1",
            "meta": {},
            "metrics": [
                {
                    "name": "h",
                    "type": "histogram",
                    "labels": {},
                    "count": 1,
                    "sum": 1.0,
                    "mean": 1.0,
                    "p50": 1.0,
                    "p95": 1.0,
                    "p99": 1.0,
                    "buckets": [[1.0, 5], ["+Inf", 3]],  # not cumulative
                }
            ],
        }
        assert any("cumulative" in p for p in validate_snapshot(bad_buckets))

    def test_gauge_series_exported(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth", series_capacity=8)
        gauge.set(2.0, timestamp=1.0)
        gauge.set(3.0, timestamp=2.0)
        data = snapshot(registry)
        (entry,) = data["metrics"]
        assert entry["series"] == [[1.0, 2.0], [2.0, 3.0]]
