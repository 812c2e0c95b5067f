"""Tests for small-message coalescing (batched queue operations: test_queues.py)."""

import time

import numpy as np
import pytest

from repro.core.broker import Broker
from repro.core.config import CoalescingSpec
from repro.core.endpoint import ProcessEndpoint
from repro.core.errors import ConfigError
from repro.core.message import (
    BATCH_COUNT,
    MsgType,
    make_message,
    pack_batch,
    unpack_batch,
)


class TestPackUnpack:
    def test_roundtrip_preserves_order_and_payloads(self):
        originals = [
            make_message("alice", ["bob"], MsgType.DATA, {"i": i}, body_size=32)
            for i in range(5)
        ]
        envelope = pack_batch(originals)
        assert envelope.msg_type is MsgType.BATCH
        assert envelope.header[BATCH_COUNT] == 5
        assert envelope.dst == ["bob"]
        restored = unpack_batch(envelope)
        assert [m.body for m in restored] == [{"i": i} for i in range(5)]
        assert [m.seq for m in restored] == [m.seq for m in originals]

    def test_envelope_body_size_is_sum(self):
        messages = [
            make_message("a", ["b"], MsgType.DATA, i, body_size=10)
            for i in range(3)
        ]
        assert pack_batch(messages).body_size == 30

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            pack_batch([])

    def test_unpacked_headers_are_scrubbed_copies(self):
        message = make_message("a", ["b"], MsgType.DATA, "x")
        message.header["object_id"] = "stale"
        envelope = pack_batch([message])
        restored = unpack_batch(envelope)[0]
        assert restored.object_id is None
        assert restored.header is not message.header

    def test_numpy_bodies_survive(self):
        messages = [
            make_message("a", ["b"], MsgType.ROLLOUT, np.full(4, i))
            for i in range(3)
        ]
        restored = unpack_batch(pack_batch(messages))
        for i, message in enumerate(restored):
            assert np.array_equal(message.body, np.full(4, i))


class TestCoalescingSpec:
    def test_defaults_validate(self):
        CoalescingSpec().validate()

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            CoalescingSpec(max_message_bytes=-1).validate()
        with pytest.raises(ConfigError):
            CoalescingSpec(max_batch=0).validate()

    def test_one_message_per_envelope_is_valid(self):
        CoalescingSpec(max_batch=1).validate()

    def test_has_no_off_switch(self):
        with pytest.raises(TypeError):
            CoalescingSpec(enabled=False)


def _coalescing_broker(spec=None):
    broker = Broker(
        "co-broker",
        coalescing=spec if spec is not None else CoalescingSpec(),
    )
    broker.start()
    return broker


def _drain_endpoint(endpoint, count, timeout=5.0):
    deadline = time.monotonic() + timeout
    received = []
    while len(received) < count and time.monotonic() < deadline:
        message = endpoint.receive(timeout=0.25)
        if message is not None:
            received.append(message)
    return received


class TestEndpointCoalescing:
    def test_small_messages_coalesce_and_arrive_in_order(self):
        broker = _coalescing_broker()
        alice = ProcessEndpoint("alice", broker)
        bob = ProcessEndpoint("bob", broker)
        try:
            alice.start()
            bob.start()
            count = 200
            for index in range(count):
                alice.send(
                    make_message("alice", ["bob"], MsgType.DATA, {"i": index})
                )
            received = _drain_endpoint(bob, count)
            assert [m.body["i"] for m in received] == list(range(count))
            # Coalescing means strictly fewer store inserts than messages.
            store = broker.communicator.object_store
            assert store.total_put < count
        finally:
            alice.stop()
            bob.stop()
            broker.stop()  # refcount audit runs here (REPRO_RUNTIME_CHECKS=1)

    def test_large_messages_bypass_coalescing(self):
        spec = CoalescingSpec(max_message_bytes=64)
        broker = _coalescing_broker(spec)
        alice = ProcessEndpoint("alice", broker)
        bob = ProcessEndpoint("bob", broker)
        try:
            alice.start()
            bob.start()
            payload = np.arange(1024, dtype=np.float64)  # 8KB >> 64B
            for _ in range(5):
                alice.send(make_message("alice", ["bob"], MsgType.ROLLOUT, payload))
            received = _drain_endpoint(bob, 5)
            assert len(received) == 5
            for message in received:
                assert message.msg_type is MsgType.ROLLOUT
                assert np.array_equal(message.body, payload)
        finally:
            alice.stop()
            bob.stop()
            broker.stop()

    def test_mixed_sizes_preserve_per_destination_fifo(self):
        spec = CoalescingSpec(max_message_bytes=256)
        broker = _coalescing_broker(spec)
        alice = ProcessEndpoint("alice", broker)
        bob = ProcessEndpoint("bob", broker)
        try:
            alice.start()
            bob.start()
            bodies = []
            for index in range(60):
                if index % 7 == 0:
                    bodies.append(np.full(512, index, dtype=np.float64))  # large
                else:
                    bodies.append({"i": index})  # small
            for body in bodies:
                alice.send(make_message("alice", ["bob"], MsgType.DATA, body))
            received = _drain_endpoint(bob, len(bodies))
            assert len(received) == len(bodies)
            for expected, message in zip(bodies, received):
                if isinstance(expected, np.ndarray):
                    assert np.array_equal(message.body, expected)
                else:
                    assert message.body == expected
        finally:
            alice.stop()
            bob.stop()
            broker.stop()

    def test_bodyless_control_messages_pass_through(self):
        broker = _coalescing_broker()
        alice = ProcessEndpoint("alice", broker)
        bob = ProcessEndpoint("bob", broker)
        try:
            alice.start()
            bob.start()
            alice.send(make_message("alice", ["bob"], MsgType.COMMAND, None))
            alice.send(make_message("alice", ["bob"], MsgType.DATA, {"i": 1}))
            received = _drain_endpoint(bob, 2)
            assert received[0].msg_type is MsgType.COMMAND
            assert received[0].body is None
            assert received[1].body == {"i": 1}
        finally:
            alice.stop()
            bob.stop()
            broker.stop()

    def test_broadcast_batches_fan_out(self):
        broker = _coalescing_broker()
        learner = ProcessEndpoint("learner", broker)
        workers = [ProcessEndpoint(f"proc-{i}", broker) for i in range(3)]
        try:
            learner.start()
            for worker in workers:
                worker.start()
            names = [f"proc-{i}" for i in range(3)]
            for index in range(30):
                learner.send(
                    make_message("learner", names, MsgType.WEIGHTS, {"v": index})
                )
            for worker in workers:
                received = _drain_endpoint(worker, 30)
                assert [m.body["v"] for m in received] == list(range(30))
        finally:
            learner.stop()
            for worker in workers:
                worker.stop()
            broker.stop()

    def test_coalescing_on_by_default(self, endpoint_pair):
        alice, _ = endpoint_pair
        assert alice.coalescing == CoalescingSpec()
        assert alice.broker.coalescing == CoalescingSpec()

    def test_max_batch_one_stages_one_header_per_message(self):
        broker = _coalescing_broker(CoalescingSpec(max_batch=1))
        alice = ProcessEndpoint("alice", broker)
        bob = ProcessEndpoint("bob", broker)
        try:
            count = 50
            for index in range(count):  # queued before the sender runs:
                alice.send(  # its first wake-up drains them all
                    make_message("alice", ["bob"], MsgType.DATA, {"i": index})
                )
            alice.start()
            bob.start()
            received = _drain_endpoint(bob, count)
            assert [m.body["i"] for m in received] == list(range(count))
            assert broker.communicator.object_store.total_put == count
            assert alice.coalesce_sizes.count == 0
        finally:
            alice.stop()
            bob.stop()
            broker.stop()

    def test_a_queued_run_is_one_envelope(self):
        broker = _coalescing_broker()
        alice = ProcessEndpoint("alice", broker)
        bob = ProcessEndpoint("bob", broker)
        try:
            for index in range(50):
                alice.send(make_message("alice", ["bob"], MsgType.DATA, index))
            alice.start()
            bob.start()
            received = _drain_endpoint(bob, 50)
            assert [m.body for m in received] == list(range(50))
            assert broker.communicator.object_store.total_put == 1
            assert broker.router.routed_local == 50  # counted in messages
        finally:
            alice.stop()
            bob.stop()
            broker.stop()

    def test_headers_with_extras_and_control_traffic_travel_alone(self):
        broker = _coalescing_broker()
        alice = ProcessEndpoint("alice", broker)
        bob = ProcessEndpoint("bob", broker)
        try:
            sent = [
                make_message("alice", ["bob"], MsgType.DATA, 0),
                make_message("alice", ["bob"], MsgType.DATA, 1),
                make_message("alice", ["bob"], MsgType.STATS, 2),  # control
                make_message("alice", ["bob"], MsgType.DATA, 3, extra={"k": 1}),
                make_message("alice", ["bob"], MsgType.DATA, 4),
                make_message("alice", ["bob"], MsgType.ROLLOUT, 5),  # new type
                make_message("alice", ["bob"], MsgType.ROLLOUT, 6),
            ]
            for message in sent:
                alice.send(message)
            alice.start()
            bob.start()
            received = _drain_endpoint(bob, len(sent))
            # FIFO per lane: the control message may overtake bulk ones
            bulk = [m for m in received if m.msg_type is not MsgType.STATS]
            assert [m.body for m in bulk] == [0, 1, 3, 4, 5, 6]
            assert bulk[2].header["k"] == 1
            assert [m.body for m in received if m not in bulk] == [2]
            # [0, 1] and [5, 6] pack; 2, 3 and 4 are staged alone
            assert broker.communicator.object_store.total_put == 5
        finally:
            alice.stop()
            bob.stop()
            broker.stop()

    def test_receiver_unpacks_even_when_sender_not_coalescing(self):
        """BATCH handling is unconditional on the receive side: a manually
        packed envelope is transparently unpacked."""
        broker = Broker("plain-broker", coalescing=CoalescingSpec(max_batch=1))
        broker.start()
        alice = ProcessEndpoint("alice", broker)
        bob = ProcessEndpoint("bob", broker)
        try:
            alice.start()
            bob.start()
            envelope = pack_batch([
                make_message("alice", ["bob"], MsgType.DATA, {"i": i}, body_size=8)
                for i in range(4)
            ])
            alice.send(envelope)
            received = _drain_endpoint(bob, 4)
            assert [m.body["i"] for m in received] == [0, 1, 2, 3]
        finally:
            alice.stop()
            bob.stop()
            broker.stop()

    def test_receive_many_drains_in_bulk(self):
        broker = _coalescing_broker()
        alice = ProcessEndpoint("alice", broker)
        bob = ProcessEndpoint("bob", broker)
        try:
            alice.start()
            bob.start()
            for index in range(40):
                alice.send(make_message("alice", ["bob"], MsgType.DATA, {"i": index}))
            received = []
            deadline = time.monotonic() + 5.0
            while len(received) < 40 and time.monotonic() < deadline:
                received.extend(bob.receive_many(64, timeout=0.25))
            assert [m.body["i"] for m in received] == list(range(40))
        finally:
            alice.stop()
            bob.stop()
            broker.stop()

    def test_coalescing_over_shared_memory_store(self):
        """The full hot path: coalescing + arena-backed store.  The broker
        shutdown audits both the refcounts and the arena block accounting
        (REPRO_RUNTIME_CHECKS=1 is set suite-wide)."""
        from repro.core.object_store import SharedMemoryObjectStore

        broker = Broker(
            "shm-broker",
            store=SharedMemoryObjectStore(),
            coalescing=CoalescingSpec(),
        )
        broker.start()
        alice = ProcessEndpoint("alice", broker)
        bob = ProcessEndpoint("bob", broker)
        try:
            alice.start()
            bob.start()
            for index in range(100):
                alice.send(
                    make_message(
                        "alice", ["bob"], MsgType.DATA,
                        {"i": index, "pad": np.zeros(32)},
                    )
                )
            received = _drain_endpoint(bob, 100)
            assert [m.body["i"] for m in received] == list(range(100))
            store = broker.communicator.object_store
            assert store.total_arena_put > 0
        finally:
            alice.stop()
            bob.stop()
            broker.stop()  # refcount + arena audits must both pass

    def test_shutdown_under_load_leaks_nothing(self):
        """Stop mid-stream with coalescing on; the broker's shutdown
        refcount audit (REPRO_RUNTIME_CHECKS=1) must stay clean."""
        broker = _coalescing_broker()
        alice = ProcessEndpoint("alice", broker)
        bob = ProcessEndpoint("bob", broker)
        alice.start()
        bob.start()
        for index in range(500):
            alice.send(make_message("alice", ["bob"], MsgType.DATA, {"i": index}))
        # Stop without draining: parked headers/batches must all be released.
        alice.stop()
        bob.stop()
        broker.stop()  # raises RefcountLeakError on any imbalance


class TestOverSockets:
    def test_small_messages_cross_as_envelopes_exactly_once_in_order(self):
        """Two brokers, each on its own socket fabric: 1 000 small messages
        from two producers arrive exactly once and in per-producer order,
        the wire counters count messages, and the writes are envelopes."""
        from repro.transport.tcp import SocketFabric, format_address

        near_fabric, far_fabric = SocketFabric("near"), SocketFabric("far")
        near = Broker("near", fabric=near_fabric)
        far = Broker("far", fabric=far_fabric)
        near_fabric.add_address("far", format_address(far_fabric.listen("far")))
        near.add_remote_route("sink", "far")
        producers = [ProcessEndpoint(f"p{pid}", near) for pid in range(2)]
        sink = ProcessEndpoint("sink", far)
        per_producer = 500
        for index in range(per_producer):  # queued before the senders run
            for pid, producer in enumerate(producers):
                producer.send(make_message(
                    producer.name, ["sink"], MsgType.ROLLOUT,
                    np.array([pid, index], dtype=np.int64), body_size=16,
                ))
        try:
            for component in (far, near, sink, *producers):
                component.start()
            received = _drain_endpoint(sink, 2 * per_producer, timeout=20.0)
            for pid in range(2):
                assert [
                    int(m.body[1]) for m in received if int(m.body[0]) == pid
                ] == list(range(per_producer))
            assert len(received) == 2 * per_producer
            assert sink.receive(timeout=0.2) is None  # nothing twice
            link = near_fabric.link_stats()["near->far"]
            assert link["items_sent"] == 2 * per_producer
            assert link["syscalls_total"] <= 2 * per_producer / 10
            listener = far_fabric.link_stats()["listen:far"]
            assert listener["items_received"] == 2 * per_producer
            assert near.router.routed_remote == 2 * per_producer
            assert far.router.routed_local == 2 * per_producer
        finally:
            for endpoint in (*producers, sink):
                endpoint.stop()
            near.stop()
            far.stop()
            near_fabric.close()
            far_fabric.close()
