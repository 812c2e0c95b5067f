"""Terminal span outcomes: shed/expired/rejected close pending state.

A flow-controlled queue that sheds a header used to leave its ``sent``
span pending forever (a (seq, dst) leak mislabeled as "unmatched" after
FIFO eviction).  Now every drop path emits a terminal hop-log event and the
:class:`SpanAggregator` converts it into a labeled outcome counter.
"""

from __future__ import annotations

import pytest

from repro.core.config import FlowControlSpec
from repro.core.communicator import HeaderQueue
from repro.core.message import SEQ, MsgType, make_header
from repro.core.tracing import emit
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import TERMINAL_KINDS, SpanAggregator


def _event(kind, source, ts=0.0, **detail):
    return {"ts": ts, "kind": kind, "source": source, "detail": detail}


@pytest.fixture
def aggregator():
    registry = MetricsRegistry()
    return SpanAggregator(registry, max_pending=64), registry


def _counter_value(registry, name, **labels):
    # counter() is get-or-create, so this reads the existing instrument.
    return registry.counter(name, labels).value


class TestTerminalOutcomes:
    def test_shed_closes_pending_state(self, aggregator):
        spans, _ = aggregator
        spans.ingest([_event("sent", "alice", 1.0, seq=7, dst="bob",
                             type="DATA", trace=0xA)])
        assert spans.pending() == 1
        spans.ingest([_event("shed", "q.headers", 1.1, seq=7, dst="bob",
                             trace=0xA)])
        assert spans.pending() == 0
        stats = spans.stats()
        assert stats.terminated["shed"] == 1
        assert stats.total_terminated() == 1
        assert stats.total_unmatched() == 0

    def test_each_terminal_kind_counted_separately(self, aggregator):
        spans, registry = aggregator
        for index, outcome in enumerate(TERMINAL_KINDS):
            spans.ingest([_event("sent", "alice", 1.0, seq=index, dst="bob",
                                 type="DATA", trace=index + 1)])
            spans.ingest([_event(outcome, "q", 1.1, seq=index, dst="bob",
                                 trace=index + 1)])
        stats = spans.stats()
        for outcome in TERMINAL_KINDS:
            assert stats.terminated[outcome] == 1
            assert _counter_value(
                registry, "message_spans_terminal_total", outcome=outcome
            ) == 1

    def test_duplicate_terminal_counted_once(self, aggregator):
        # The queue and the router may both report the same rejected header.
        spans, _ = aggregator
        spans.ingest([_event("sent", "alice", 1.0, seq=3, dst="bob",
                             type="DATA", trace=0xB)])
        spans.ingest([_event("rejected", "q", 1.1, seq=3, dst="bob", trace=0xB)])
        spans.ingest([_event("rejected", "router", 1.2, seq=3, dst="bob", trace=0xB)])
        assert spans.stats().terminated["rejected"] == 1

    def test_partial_fanout_reject_keeps_other_destinations(self, aggregator):
        # Fan-out to bob+carol; bob's copy is rejected, carol's delivery
        # must still match the (kept-alive) sent start.
        spans, _ = aggregator
        # (A fan-out's ``sent`` record names no destination.)
        spans.ingest([_event("sent", "alice", 1.0, seq=9, type="DATA", trace=0xC)])
        spans.ingest([_event("rejected", "router", 1.1, seq=9, dst="bob", trace=0xC)])
        # The queue and the router may both report it: still once.
        spans.ingest([_event("rejected", "q", 1.1, seq=9, dst="bob", trace=0xC)])
        spans.ingest([_event("delivered", "carol", 1.2, seq=9, trace=0xC)])
        stats = spans.stats()
        assert stats.terminated["rejected"] == 1
        assert stats.matched["deliver"] == 1
        assert stats.unmatched_ends["deliver"] == 0
        assert spans.edges() == [("alice", "DATA", "carol")]

    def test_terminal_without_state_is_ignored(self, aggregator):
        spans, _ = aggregator
        spans.ingest([_event("shed", "q", 1.0, seq=999, dst="bob", trace=0x3E7)])
        assert spans.stats().total_terminated() == 0


class TestEvictionCounters:
    def test_evictions_use_their_own_counter(self, aggregator):
        """Satellite: evicted starts are evictions, not unmatched ends."""
        spans, registry = aggregator
        for seq in range(70):  # capacity 64: the oldest six spill
            spans.ingest([_event("sent", "alice", float(seq), seq=seq,
                                 dst="bob", type="DATA", trace=seq + 1)])
        stats = spans.stats()
        assert sum(stats.evicted_starts.values()) >= 6
        assert stats.total_unmatched() >= 6  # still visible in the total
        assert sum(stats.unmatched_ends.values()) == 0
        evicted = _counter_value(
            registry, "message_spans_evicted_total", stage="deliver"
        )
        assert evicted >= 6
        assert _counter_value(
            registry, "message_spans_unmatched_total", stage="deliver"
        ) == 0


class TestQueueEmitsTerminals:
    def _spec(self, **overrides):
        base = dict(
            bulk_watermark=2,
            control_watermark=3,
            low_fraction=0.5,
            control_deadline_s=0.05,
        )
        base.update(overrides)
        return FlowControlSpec(**base)

    def test_bulk_shed_emits_terminal_event(self, tracer):
        queue = HeaderQueue("q", self._spec())
        headers = [make_header("a", ["b"], MsgType.DATA) for _ in range(4)]
        for header in headers:
            queue.put(header)
        shed = tracer.events(kind="shed", source="q")
        assert len(shed) == 2  # two oldest beyond watermark 2
        assert {e.detail["seq"] for e in shed} == {
            headers[0][SEQ], headers[1][SEQ]
        }
        for event in shed:
            assert event.detail["trace"]  # context survived to the drop

    def test_sheds_feed_span_aggregator_outcomes(self):
        registry = MetricsRegistry()
        spans = SpanAggregator(registry)
        spans.attach()
        try:
            queue = HeaderQueue("q", self._spec())
            headers = [make_header("a", ["b"], MsgType.DATA) for _ in range(4)]
            for header in headers:
                # Senders emit "sent" before the queue admits the header.
                emit("sent", "a", header)
                queue.put(header)
        finally:
            spans.detach()
        stats = spans.stats()
        assert stats.terminated["shed"] == 2
        assert spans.pending() == 2  # only the live ones
