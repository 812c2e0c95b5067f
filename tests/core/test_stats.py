"""Tests for throughput meters, latency recorders, stats collection."""

import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stats import (
    LatencyRecorder,
    ProcessStats,
    StatsCollector,
    ThroughputMeter,
)


class TestThroughputMeter:
    def test_total_accumulates(self):
        meter = ThroughputMeter()
        meter.record(10)
        meter.record(5)
        assert meter.total == 15

    def test_rate_positive(self):
        meter = ThroughputMeter()
        meter.record(100)
        assert meter.rate() > 0

    def test_series_buckets(self):
        clock_value = [0.0]
        meter = ThroughputMeter(clock=lambda: clock_value[0])
        meter.record(10)  # bucket 0
        clock_value[0] = 1.5
        meter.record(20)  # bucket 1
        clock_value[0] = 1.9
        meter.record(5)  # bucket 1
        series = dict(meter.series(bucket=1.0))
        assert series[0.0] == 10.0
        assert series[1.0] == 25.0

    def test_series_rejects_nonpositive_bucket(self):
        with pytest.raises(ValueError):
            ThroughputMeter().series(bucket=0)

    def test_empty_series(self):
        assert ThroughputMeter().series() == []

    def test_thread_safety(self):
        meter = ThroughputMeter()

        def worker():
            for _ in range(1000):
                meter.record(1)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert meter.total == 4000

    @given(st.lists(st.floats(min_value=0, max_value=1e6), max_size=50))
    @settings(max_examples=30, deadline=None)
    def test_property_total_is_sum(self, amounts):
        meter = ThroughputMeter()
        for amount in amounts:
            meter.record(amount)
        assert meter.total == pytest.approx(sum(amounts))

    def test_record_many_totals_and_series(self):
        clock_value = [0.5]
        meter = ThroughputMeter(clock=lambda: clock_value[0])
        meter.record_many([10, 20, 5])
        assert meter.total == 35
        assert dict(meter.series(bucket=1.0)) == {0.0: 35.0}

    def test_record_many_empty_is_noop(self):
        meter = ThroughputMeter()
        meter.record_many([])
        assert meter.total == 0


class TestThroughputMeterCompaction:
    def make_meter(self, max_events=8):
        clock_value = [0.0]
        meter = ThroughputMeter(
            clock=lambda: clock_value[0], max_events=max_events
        )
        return meter, clock_value

    def test_event_count_stays_bounded(self):
        meter, clock_value = self.make_meter(max_events=8)
        for tick in range(10_000):
            clock_value[0] = tick * 0.01
            meter.record(1)
        assert len(meter._events) <= 8

    def test_total_and_rate_exact_after_compaction(self):
        meter, clock_value = self.make_meter(max_events=8)
        for tick in range(1000):
            clock_value[0] = tick * 0.1
            meter.record(2)
        assert meter.total == 2000
        assert meter.rate() == pytest.approx(2000 / (999 * 0.1), rel=0.05)

    def test_series_preserved_at_coarse_buckets(self):
        meter, clock_value = self.make_meter(max_events=16)
        # 100 events at 1/s: compaction merges them, but a bucket at least
        # as coarse as the reported resolution still sums exactly.
        for tick in range(100):
            clock_value[0] = float(tick)
            meter.record(1)
        assert meter.resolution is not None
        bucket = max(meter.resolution, 1.0) * 2
        series = meter.series(bucket=bucket)
        # series yields per-bucket rates; scaling back by the bucket width
        # must recover the exact recorded total.
        assert sum(rate * bucket for _, rate in series) == pytest.approx(100)

    def test_resolution_none_before_compaction(self):
        meter, clock_value = self.make_meter(max_events=100)
        for tick in range(10):
            clock_value[0] = float(tick)
            meter.record(1)
        assert meter.resolution is None

    def test_max_events_validated(self):
        with pytest.raises(ValueError):
            ThroughputMeter(max_events=1)
        with pytest.raises(ValueError):
            ThroughputMeter(compaction_resolution=0.0)

    @given(st.integers(min_value=2, max_value=200))
    @settings(max_examples=20, deadline=None)
    def test_property_compaction_preserves_total(self, count):
        meter, clock_value = self.make_meter(max_events=4)
        for tick in range(count):
            clock_value[0] = tick * 0.3
            meter.record(3)
        assert meter.total == 3 * count
        assert len(meter._events) <= 4


class TestLatencyRecorder:
    def test_mean(self):
        recorder = LatencyRecorder()
        for value in (1.0, 2.0, 3.0):
            recorder.record(value)
        assert recorder.mean() == pytest.approx(2.0)

    def test_record_many(self):
        recorder = LatencyRecorder()
        recorder.record_many([1.0, 2.0, 3.0])
        recorder.record_many([])
        assert recorder.count == 3
        assert recorder.mean() == pytest.approx(2.0)

    def test_empty_stats_are_zero(self):
        recorder = LatencyRecorder()
        assert recorder.mean() == 0.0
        assert recorder.quantile(0.5) == 0.0
        assert recorder.cdf() == []

    def test_quantiles(self):
        recorder = LatencyRecorder()
        for value in range(1, 101):
            recorder.record(float(value))
        assert recorder.quantile(0.0) == 1.0
        assert recorder.quantile(0.5) == pytest.approx(51.0)
        assert recorder.quantile(1.0) == 100.0

    def test_quantile_validation(self):
        with pytest.raises(ValueError):
            LatencyRecorder().quantile(1.5)

    def test_cdf_monotonic_and_complete(self):
        recorder = LatencyRecorder()
        for value in (5.0, 1.0, 3.0, 3.0):
            recorder.record(value)
        cdf = recorder.cdf()
        fractions = [fraction for _, fraction in cdf]
        assert fractions == sorted(fractions)
        assert cdf[-1][1] == 1.0

    def test_cdf_custom_points(self):
        recorder = LatencyRecorder()
        for value in (1.0, 2.0, 3.0, 4.0):
            recorder.record(value)
        cdf = dict(recorder.cdf(points=[2.5]))
        assert cdf[2.5] == 0.5

    def test_fraction_below(self):
        recorder = LatencyRecorder()
        for value in (0.001, 0.004, 0.050):
            recorder.record(value)
        assert recorder.fraction_below(0.005) == pytest.approx(2 / 3)
        assert LatencyRecorder().fraction_below(1.0) == 0.0

    def test_time_context_manager(self):
        recorder = LatencyRecorder()
        with recorder.time():
            time.sleep(0.02)
        assert recorder.count == 1
        assert recorder.mean() >= 0.015

    def test_memory_is_bounded_count_and_mean_stay_exact(self):
        bound = 65_536  # a training run's few thousand samples are all kept
        recorder = LatencyRecorder()
        recorder.record_many([0.0] * bound)
        assert len(recorder.samples()) == bound
        for value in (1.0, 2.0, 3.0, 4.0):
            recorder.record(value)
        assert recorder.count == bound + 4
        assert recorder.mean() == pytest.approx(10.0 / (bound + 4))
        # Distribution queries describe the retained (most recent) samples.
        retained = recorder.samples()
        assert len(retained) == bound
        assert retained[:2] == [0.0, 0.0]
        assert retained[-4:] == [1.0, 2.0, 3.0, 4.0]
        assert recorder.quantile(1.0) == 4.0
        assert recorder.fraction_below(0.5) == pytest.approx((bound - 4) / bound)
        assert len(recorder.cdf(points=[0.0, 4.0])) == 2

    @given(st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=50))
    @settings(max_examples=30, deadline=None)
    def test_property_cdf_ends_at_one(self, samples):
        recorder = LatencyRecorder()
        for sample in samples:
            recorder.record(sample)
        assert recorder.cdf()[-1][1] == pytest.approx(1.0)


class TestStatsCollector:
    def test_accumulates_steps(self):
        collector = StatsCollector()
        collector.add(ProcessStats(source="e0", steps=100))
        collector.add(ProcessStats(source="e1", steps=50))
        assert collector.total_env_steps == 150

    def test_average_return_windowed(self):
        collector = StatsCollector(return_window=2)
        collector.add(ProcessStats(source="e0", episode_returns=[1.0, 100.0, 200.0]))
        assert collector.average_return() == pytest.approx(150.0)

    def test_average_return_none_when_empty(self):
        assert StatsCollector().average_return() is None

    def test_trained_steps_from_extra(self):
        collector = StatsCollector()
        collector.add(ProcessStats(source="learner", extra={"trained_steps": 320}))
        assert collector.total_trained_steps == 320

    def test_train_iterations(self):
        collector = StatsCollector()
        collector.add(ProcessStats(source="learner", train_iterations=7))
        assert collector.total_train_iterations == 7

    def test_episode_count_and_returns(self):
        collector = StatsCollector()
        collector.add(ProcessStats(source="e0", episode_returns=[1.0, 2.0]))
        assert collector.episode_count() == 2
        assert collector.returns() == [1.0, 2.0]

    def test_report_count(self):
        collector = StatsCollector()
        for _ in range(3):
            collector.add(ProcessStats(source="x"))
        assert collector.report_count() == 3
