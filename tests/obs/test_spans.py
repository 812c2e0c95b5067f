"""Span correlation: hop-log lifecycle events -> per-stage latency histograms."""

from __future__ import annotations

import pytest

from repro.core.concurrency import spawn_thread
from repro.core.tracing import HopLog, Tracer
from repro.obs import MetricsRegistry, SpanAggregator, SpanRecord, STAGES


def event(t, kind, source, seq, **detail):
    """An event dict as a ring decode or a trace file holds it; the
    correlator keys on the trace id (here ``seq + 1``: 0 means none)."""
    return {"ts": t, "kind": kind, "source": source,
            "detail": {"seq": seq, "trace": seq + 1, **detail}}


def sent(seq, t, src="machine-0.explorer-0", msg_type="MsgType.ROLLOUT", dst="learner"):
    return event(t, "sent", src, seq, type=msg_type, dst=dst)


def routed(seq, t, broker="broker-0"):
    return event(t, "routed", broker, seq)


def delivered(seq, t, dst="learner"):
    return event(t, "delivered", dst, seq)


def consumed(seq, t, dst="learner"):
    return event(t, "consumed", dst, seq)


def lifecycle(seq, base, dst="learner", **kwargs):
    """A clean four-event lifecycle at t = base, base+1, base+3, base+7."""
    return [
        sent(seq, base, dst=dst, **kwargs),
        routed(seq, base + 1.0),
        delivered(seq, base + 3.0, dst=dst),
        consumed(seq, base + 7.0, dst=dst),
    ]


def make_aggregator(**kwargs):
    registry = MetricsRegistry()
    return registry, SpanAggregator(registry, **kwargs)


class TestStageDurations:
    def test_clean_lifecycle_matches_all_stages(self):
        registry, aggregator = make_aggregator()
        stats = aggregator.ingest(lifecycle(1, 10.0))
        assert stats.matched == {"send": 1, "route": 1, "deliver": 1, "consume": 1}
        assert stats.total_unmatched() == 0
        assert stats.negative_durations == 0

    def test_durations_land_in_histograms(self):
        registry, aggregator = make_aggregator()
        aggregator.ingest(lifecycle(1, 0.0))
        by_stage = {}
        for metric in registry.collect():
            if metric.name == "message_stage_seconds":
                by_stage[dict(metric.labels)["stage"]] = metric.instrument
        assert by_stage["send"].sum == pytest.approx(1.0)  # sent -> routed
        assert by_stage["route"].sum == pytest.approx(2.0)  # routed -> delivered
        assert by_stage["deliver"].sum == pytest.approx(3.0)  # end to end
        assert by_stage["consume"].sum == pytest.approx(4.0)  # dwell

    def test_edge_histograms_carry_roles(self):
        registry, aggregator = make_aggregator()
        aggregator.ingest(lifecycle(1, 0.0))
        edge_labels = [
            dict(metric.labels)
            for metric in registry.collect()
            if metric.name == "message_edge_stage_seconds"
        ]
        assert edge_labels  # route/deliver/consume stages know the dst
        for labels in edge_labels:
            assert labels["src_role"] == "explorer"
            assert labels["dst_role"] == "learner"
            assert labels["type"] == "MsgType.ROLLOUT"

    def test_fanout_one_sent_many_delivered(self):
        # One WEIGHTS broadcast delivered to two explorers: the sent start
        # must survive both matches (peek, not pop).
        registry, aggregator = make_aggregator()
        events = [
            sent(5, 0.0, src="learner", msg_type="MsgType.WEIGHTS", dst="explorer"),
            routed(5, 0.5),
        ]
        for dst in ("machine-0.explorer-0", "machine-0.explorer-1"):
            events.append(delivered(5, 1.0, dst=dst))
            events.append(consumed(5, 2.0, dst=dst))
        stats = aggregator.ingest(events)
        assert stats.matched["send"] == 1
        assert stats.matched["deliver"] == 2
        assert stats.matched["consume"] == 2
        assert stats.total_unmatched() == 0


class TestCorrelationHealth:
    def test_end_without_start_is_unmatched(self):
        registry, aggregator = make_aggregator()
        stats = aggregator.ingest([delivered(99, 1.0), consumed(99, 2.0)])
        # delivered with no sent: route + deliver unmatched; consumed still
        # matches the delivered start, so consume dwell is measurable.
        assert stats.unmatched_ends["route"] == 1
        assert stats.unmatched_ends["deliver"] == 1
        assert stats.matched["consume"] == 1
        assert stats.matched["send"] == 0
        assert stats.unmatched_ends["consume"] == 0

    def test_negative_duration_counted_not_recorded(self):
        registry, aggregator = make_aggregator()
        stats = aggregator.ingest([sent(1, 10.0), routed(1, 5.0)])
        assert stats.negative_durations == 1
        assert stats.matched["send"] == 0
        (counter,) = [
            m for m in registry.collect() if m.name == "message_spans_negative_total"
        ]
        assert counter.instrument.value == 1

    def test_pending_is_bounded_and_evictions_counted(self):
        registry, aggregator = make_aggregator(max_pending=8)
        aggregator.ingest(sent(seq, float(seq)) for seq in range(20))
        assert aggregator.pending() <= 8
        stats = aggregator.stats()
        # Evicted never-matched sent starts are charged to "deliver".
        assert stats.evicted_starts["deliver"] == 12

    def test_pending_bound_is_validated_where_it_is_configured(self):
        from repro.core.config import TelemetrySpec
        from repro.core.errors import ConfigError

        with pytest.raises(ConfigError):
            TelemetrySpec(max_pending_spans=0).validate()

    def test_matched_entries_evict_silently(self):
        registry, aggregator = make_aggregator(max_pending=4)
        for seq in range(4):
            aggregator.ingest([sent(seq, float(seq)), routed(seq, float(seq) + 0.1)])
        # Push the matched entries out.
        aggregator.ingest(sent(seq, float(seq)) for seq in range(4, 10))
        assert aggregator.stats().evicted_starts["route"] == 0
        assert aggregator.stats().evicted_starts["deliver"] == 2  # of 4..9
        # sent starts that matched "send" still count as matched-at-least-once.
        assert aggregator.stats().matched["send"] == 4

    def test_duplicate_start_keeps_earliest(self):
        registry, aggregator = make_aggregator()
        aggregator.ingest([sent(1, 0.0), sent(1, 5.0), routed(1, 6.0)])
        (histogram,) = [
            m for m in registry.collect() if m.name == "message_stage_seconds"
        ]
        assert histogram.instrument.sum == pytest.approx(6.0)  # not 1.0

    def test_non_lifecycle_events_ignored(self):
        registry, aggregator = make_aggregator()
        aggregator.ingest([
            event(0.0, "train_start", "learner", 1),
            event(0.0, "stage_begin", "link", 1, stage="wire_send"),
            {"ts": 0.0, "kind": "sent", "source": "x", "detail": {}},  # no trace id
        ])
        assert aggregator.stats().matched == {s: 0 for s in STAGES}
        assert len(registry) >= 5  # only the pre-registered counters


class TestRecordsAndEdges:
    def test_records_expose_conformance_shape(self):
        registry, aggregator = make_aggregator()
        aggregator.ingest(lifecycle(1, 0.0))
        (record,) = aggregator.records()
        assert isinstance(record, SpanRecord)
        assert record.seq == 1
        assert record.msg_type == "MsgType.ROLLOUT"
        assert record.src == "machine-0.explorer-0"
        assert record.dst == "learner"
        assert record.src_role == "explorer"
        assert record.dst_role == "learner"
        stages = dict(record.durations)
        assert set(stages) == {"route", "deliver", "consume"}

    def test_records_bounded(self):
        registry, aggregator = make_aggregator(max_records=5)
        for seq in range(12):
            aggregator.ingest(lifecycle(seq, float(seq) * 10))
        assert len(aggregator.records()) == 5

    def test_edges_sorted_unique(self):
        registry, aggregator = make_aggregator()
        aggregator.ingest(lifecycle(1, 0.0))
        aggregator.ingest(lifecycle(2, 100.0))
        assert aggregator.edges() == [
            ("machine-0.explorer-0", "MsgType.ROLLOUT", "learner")
        ]


class TestLiveSubscription:
    """Live = attached to a hop log and polled (the class keeps the name its
    tests are known by)."""

    def test_aggregates_past_buffer_wrap(self):
        # A tracer's buffer holds 4 events; the aggregator, reading the log
        # itself, still sees all 8.
        registry, aggregator = make_aggregator()
        clock_value = [0.0]
        log = HopLog("spans", capacity=64, clock=lambda: clock_value[0])
        tracer = Tracer(capacity=4).attach(log)
        aggregator.attach(log)
        for seq in range(2):
            for hop in lifecycle(seq, float(seq) * 10):
                clock_value[0] = hop["ts"]
                log.emit(
                    hop["kind"], hop["source"],
                    {"seq": seq, "trace": seq + 1, "type": "MsgType.ROLLOUT",
                     "dst": ["learner"]},
                )
        assert len(tracer.events()) == 4  # buffer wrapped
        stats = aggregator.stats()  # polls: everything emitted before the call
        assert stats.matched == {"send": 2, "route": 2, "deliver": 2, "consume": 2}
        assert aggregator.missed == 0
        (record, _) = aggregator.records()
        assert (record.src, record.msg_type, record.dst) == (
            "machine-0.explorer-0", "MsgType.ROLLOUT", "learner"
        )
        aggregator.detach()
        assert log.readers == (tracer._reader,)
        log.emit("sent", "x", {"seq": 99, "trace": 100, "type": "t", "dst": ["l"]})
        assert aggregator.pending() == 0  # detached: the new chain is not seen

    def test_a_record_that_names_no_type_or_destination_says_so_live_too(self):
        """Id 0 in the type and destination columns is "none", not the name
        table's overflow entry: a fan-out's shed retires the whole chain, and
        an untyped header's spans carry no type."""
        registry, aggregator = make_aggregator()
        log = HopLog("spans", capacity=64)
        aggregator.attach(log)
        fan_out = {"seq": 1, "trace": 2, "type": "weights", "dst": ["a", "b"]}
        log.emit("sent", "learner", fan_out)
        log.emit_many("shed", "q", [fan_out])  # names no one: all of it
        assert aggregator.pending() == 0
        assert aggregator.stats().terminated["shed"] == 1
        untyped = {"seq": 3, "trace": 4, "dst": ["a"]}
        log.emit("sent", "x", untyped)
        log.emit_many("delivered", "a", [untyped])
        (record,) = aggregator.records()
        assert (record.msg_type, record.src, record.dst) == ("", "x", "a")

    def test_a_lapped_aggregator_counts_exactly_what_it_missed(self):
        registry, aggregator = make_aggregator()
        log = HopLog("spans", capacity=8)
        aggregator.attach(log)
        for seq in range(20):  # nobody polls: the ring laps the cursor
            log.emit("sent", "x", {"seq": seq, "trace": seq + 1, "dst": ["l"]})
        assert aggregator.pending() == 8
        assert aggregator.missed == 12
        aggregator.detach()
        assert aggregator.missed == 12  # outlives the reader

    def test_observe_is_thread_safe(self):
        """Several threads may ingest (and any may poll or read) at once:
        the aggregator's own lock serializes them."""
        registry, aggregator = make_aggregator()

        def worker(offset):
            for index in range(200):
                seq = offset + index
                aggregator.ingest(lifecycle(seq, float(seq)))

        threads = [
            spawn_thread(f"span-worker-{offset}", worker, args=(offset,))
            for offset in (0, 10_000, 20_000)
        ]
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        stats = aggregator.stats()
        assert stats.matched["deliver"] == 600
        assert stats.negative_durations == 0
