"""Trace-context propagation: ids stamped at send survive every hop.

Every message header carries a u64 trace id and span id from
``make_header`` on; coalesced BATCH envelopes carry their sub-messages'
(seq, trace) pairs so the router and span accounting see per-sub-message
lifecycle events, never the envelope's.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.core.broker import Broker
from repro.core.config import CoalescingSpec
from repro.core.endpoint import ProcessEndpoint
from repro.core.message import (
    BATCH_SEQS,
    SPAN,
    TRACE,
    MsgType,
    ensure_trace,
    format_trace_id,
    make_header,
    make_message,
    new_trace_id,
    pack_batch,
    unpack_batch,
)
from repro.obs import Telemetry
from repro.obs.trace.events import load_trace_file


class TestTraceIds:
    def test_new_trace_ids_are_unique(self):
        ids = {new_trace_id() for _ in range(10_000)}
        assert len(ids) == 10_000

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_gets_its_own_nonce(self):
        """The nonce is cached, not re-derived per id: a fork must reset it,
        or parent and child (who share the counter state) mint equal ids."""
        parent_nonce = new_trace_id() >> 32
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:  # child: report the nonce of a fresh id and leave
            try:
                os.write(write_end, str(new_trace_id() >> 32).encode())
            finally:
                os._exit(0)
        os.close(write_end)
        try:
            child_nonce = int(os.read(read_end, 64).decode())
        finally:
            os.close(read_end)
            os.waitpid(pid, 0)
        assert child_nonce != parent_nonce
        assert new_trace_id() >> 32 == parent_nonce  # the parent keeps its own

    def test_format_is_16_hex_chars(self):
        formatted = format_trace_id(new_trace_id())
        assert len(formatted) == 16
        int(formatted, 16)

    def test_make_header_stamps_trace_and_span(self):
        header = make_header("a", ["b"], MsgType.DATA)
        assert isinstance(header[TRACE], int) and header[TRACE] > 0
        assert isinstance(header[SPAN], int) and header[SPAN] > 0
        assert header[TRACE] != header[SPAN]

    def test_ensure_trace_is_idempotent(self):
        header = make_header("a", ["b"], MsgType.DATA)
        first = ensure_trace(header)
        second = ensure_trace(header)
        assert first == second == (header[TRACE], header[SPAN])

    def test_ensure_trace_stamps_missing_context(self):
        header = {"seq": 1}
        trace, span = ensure_trace(header)
        assert header[TRACE] == trace and header[SPAN] == span


class TestBatchContext:
    def test_pack_batch_stamps_sub_message_contexts(self):
        messages = [
            make_message("a", ["b"], MsgType.DATA, {"i": i}) for i in range(4)
        ]
        envelope = pack_batch(messages)
        stamped = envelope.header[BATCH_SEQS]
        assert [seq for seq, _ in stamped] == [m.seq for m in messages]
        assert [trace for _, trace in stamped] == [
            m.header[TRACE] for m in messages
        ]

    def test_unpack_preserves_per_child_context(self):
        messages = [
            make_message("a", ["b"], MsgType.DATA, {"i": i}) for i in range(3)
        ]
        contexts = [(m.header[TRACE], m.header[SPAN]) for m in messages]
        envelope = pack_batch(messages)
        unpacked = unpack_batch(envelope)
        assert [
            (m.header[TRACE], m.header[SPAN]) for m in unpacked
        ] == contexts


@pytest.fixture
def coalescing_pair(tracer):
    broker = Broker("trace-broker", coalescing=CoalescingSpec())
    broker.start()
    alice = ProcessEndpoint("alice", broker)
    bob = ProcessEndpoint("bob", broker)
    alice.start()
    bob.start()
    yield alice, bob, broker, tracer
    alice.stop()
    bob.stop()
    broker.stop()


class TestCoalescedLifecycle:
    """Satellite regression: BATCH unpack yields per-sub-message events."""

    def test_every_sub_message_gets_full_lifecycle(self, coalescing_pair):
        alice, bob, broker, tracer = coalescing_pair
        count = 50
        seqs = []
        for index in range(count):
            message = make_message("alice", ["bob"], MsgType.DATA, {"i": index})
            seqs.append(message.seq)
            alice.send(message)
        received = []
        deadline = time.monotonic() + 5.0
        while len(received) < count and time.monotonic() < deadline:
            message = bob.receive(timeout=0.25)
            if message is not None:
                received.append(message)
        assert len(received) == count
        # Coalescing actually happened (else this tests nothing).
        assert broker.communicator.object_store.total_put < count
        for kind in ("sent", "routed", "delivered", "consumed"):
            observed = {
                e.detail.get("seq") for e in tracer.events(kind=kind)
            }
            assert observed.issuperset(seqs), f"missing {kind} events"
        # The BATCH envelope itself must be invisible: no routed event may
        # carry a seq outside the workhorse-visible set.
        data_seqs = set(seqs)
        for event in tracer.events(kind="routed", source=broker.router.name):
            assert event.detail.get("seq") in data_seqs

    def test_trace_ids_consistent_across_hops(self, coalescing_pair):
        alice, bob, _, tracer = coalescing_pair
        message = make_message("alice", ["bob"], MsgType.DATA, {"x": 1})
        trace_id = message.header[TRACE]
        alice.send(message)
        assert bob.receive(timeout=5.0) is not None
        for kind in ("sent", "routed", "delivered", "consumed"):
            events = [
                e for e in tracer.events(kind=kind)
                if e.detail.get("seq") == message.seq
            ]
            assert events, f"no {kind} event"
            assert events[0].detail.get("trace") == trace_id


class TestTelemetryExport:
    def test_export_trace_roundtrips_through_loader(self, tmp_path):
        broker = Broker("exp-broker")
        broker.start()
        telemetry = Telemetry()
        telemetry.attach_broker(broker)
        alice = ProcessEndpoint("alice", broker)
        bob = ProcessEndpoint("bob", broker)
        telemetry.attach_endpoint(alice)
        telemetry.attach_endpoint(bob)
        telemetry.start()  # attaches the tracer to the hop log
        alice.start()
        bob.start()
        try:
            alice.send(make_message("alice", ["bob"], MsgType.DATA, {"k": 1}))
            assert bob.receive(timeout=5.0) is not None
            path = str(tmp_path / "main.jsonl")
            written = telemetry.export_trace(path, process="main")
            assert written >= 4  # sent, routed, delivered, consumed
            process, events = load_trace_file(path)
            assert process == "main"
            assert {e["kind"] for e in events} >= {
                "sent", "routed", "delivered", "consumed",
            }
        finally:
            telemetry.stop()
            alice.stop()
            bob.stop()
            broker.stop()
