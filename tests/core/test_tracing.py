"""Tests for the hop log's stock reader: the Tracer buffer and its queries.

The ring side (record layout, wrap, dumps) is in tests/obs/test_flightrec.py,
the cursor's own properties in tests/obs/test_hop_reader.py.
"""

import threading

import pytest

from repro.core.errors import ConfigError
from repro.core.tracing import RECORD_SIZE, HopLog, TraceEvent, Tracer


@pytest.fixture
def log():
    """A private log, so other components' emits cannot interleave."""
    return HopLog("test", capacity=64)


def _header(seq, **fields):
    return {"seq": seq, "src": "e", "dst": ["l"], "type": "data", **fields}


class TestTracer:
    def test_emit_and_query(self, log):
        tracer = Tracer().attach(log)
        log.emit("sent", "explorer-0", _header(1))
        log.emit("delivered", "learner", _header(1))
        assert tracer.count() == 2
        assert tracer.count("sent") == 1
        assert tracer.events(source="learner")[0].kind == "delivered"

    def test_events_carry_the_header_fields(self, log):
        tracer = Tracer().attach(log)
        log.emit(
            "sent", "e",
            {"seq": 7, "trace": 0xA, "span": 0xB, "src": "e",
             "dst": ["l", "m"], "type": "data", "body_size": 12},
        )
        log.emit("sent", "e", {"seq": 8, "trace": 0xC, "dst": ["l"], "type": "data"})
        log.emit("routed", "r", {"seq": 8, "trace": 0xC, "dst": ["l"], "type": "data"})
        fan_out, single, routed = tracer.events()
        assert isinstance(fan_out, TraceEvent)
        # What the record keeps: a fan-out's destinations are told by their
        # ``delivered`` records, the source by the ``sent`` record itself ...
        assert fan_out.detail == {"seq": 7, "trace": 0xA, "type": "data"}
        assert single.detail == {"seq": 8, "trace": 0xC, "type": "data", "dst": "l"}
        # ... and a hop after ``sent`` repeats neither type nor destination.
        assert routed.detail == {"seq": 8, "trace": 0xC}

    def test_extra_overrides_header_fields(self, log):
        tracer = Tracer().attach(log)
        log.emit("rejected", "router", _header(3, dst=["l", "m"]), dst="m")
        log.emit("stage_begin", "link", _header(3), stage="wire_send", nbytes=99)
        rejected, stage = tracer.events()
        assert rejected.detail["dst"] == "m"
        assert stage.detail["stage"] == "wire_send"

    def test_headerless_event(self, log):
        tracer = Tracer().attach(log)
        log.emit("train_start", "learner")
        (event,) = tracer.events()
        assert event.detail == {}

    def test_capacity_bounds_memory(self, log):
        tracer = Tracer(capacity=5).attach(log)
        for index in range(20):
            log.emit("sent", "e", _header(index))
        events = tracer.events()
        assert len(events) == 5
        assert events[0].detail["seq"] == 15

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_kinds_histogram(self, log):
        tracer = Tracer().attach(log)
        log.emit("sent", "a", _header(1))
        log.emit("sent", "b", _header(2))
        log.emit("routed", "r", _header(1))
        assert tracer.kinds() == {"sent": 2, "routed": 1}

    def test_clear(self, log):
        tracer = Tracer().attach(log)
        log.emit("sent", "e", _header(1))
        tracer.clear()
        assert tracer.count() == 0

    def test_format_renders_events(self, log):
        tracer = Tracer().attach(log)
        log.emit("sent", "explorer-0", _header(7))
        text = tracer.format()
        assert "sent" in text
        assert "seq=7" in text

    def test_format_empty(self):
        assert "no trace events" in Tracer().format()

    def test_thread_safety(self, log):
        tracer = Tracer(capacity=100_000).attach(log)

        def writer(tag):
            for index in range(1000):
                log.emit("sent", tag, _header(index))

        threads = [threading.Thread(target=writer, args=(f"t{i}",)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert tracer.count() == 4000
        assert log.total == 4000


class TestAttachDetach:
    def test_detached_subscriber_receives_nothing_further(self, log):
        tracer = Tracer().attach(log)
        log.emit("sent", "e", _header(1))
        tracer.detach()
        log.emit("sent", "e", _header(2))
        assert [e.detail["seq"] for e in tracer.events()] == [1]
        assert log.total == 2  # the ring keeps recording

    def test_unattached_tracer_sees_nothing(self, log):
        tracer = Tracer()
        log.emit("sent", "e", _header(1))
        assert tracer.count() == 0

    def test_reattach_moves_the_subscription(self, log):
        other = HopLog("other", capacity=8)
        tracer = Tracer().attach(log)
        tracer.attach(other)
        log.emit("sent", "e", _header(1))
        other.emit("sent", "e", _header(2))
        assert [e.detail["seq"] for e in tracer.events()] == [2]

    def test_subscriber_sees_every_event_past_buffer_wrap(self, log):
        """Whatever must see everything reads the log itself (the span
        aggregator does); a Tracer's buffer is only a bounded window."""
        reader = log.reader()
        tracer = Tracer(capacity=2).attach(log)
        for index in range(10):
            log.emit("sent", "e", _header(index))
        assert len(tracer.events()) == 2
        assert len(reader.read()[0]) == 10 * RECORD_SIZE
        assert reader.missed == 0

    def test_attaching_to_a_log_with_no_ring_raises(self):
        """``REPRO_FLIGHTREC=0``: a tracer would observe nothing, silently."""
        with pytest.raises(ConfigError, match="no ring"):
            Tracer().attach(HopLog("off", enabled=False))


class TestHopLogWiredIntoEndpoints:
    def test_sent_and_delivered_events_correlate(self, endpoint_pair, tracer):
        from repro.core.message import MsgType, make_message

        alice, bob = endpoint_pair
        seqs = []
        for index in range(5):
            message = make_message("alice", ["bob"], MsgType.DATA, index)
            seqs.append(message.seq)
            alice.send(message)
        for _ in range(5):
            assert bob.receive(timeout=2) is not None
        sent = {e.detail["seq"]: e.timestamp for e in tracer.events("sent", "alice")}
        delivered = {
            e.detail["seq"]: e.timestamp for e in tracer.events("delivered", "bob")
        }
        assert sorted(sent) == sorted(delivered) == seqs
        assert all(delivered[seq] >= sent[seq] for seq in seqs)

    def test_no_subscriber_no_crash(self, endpoint_pair):
        from repro.core.message import MsgType, make_message

        alice, bob = endpoint_pair
        alice.send(make_message("alice", ["bob"], MsgType.DATA, "x"))
        assert bob.receive(timeout=2) is not None
