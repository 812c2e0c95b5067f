"""Tests for brokers + endpoints: the asynchronous channel end to end."""

import threading
import time

import numpy as np
import pytest

from repro.core.broker import Broker
from repro.core.config import CoalescingSpec
from repro.core.endpoint import ProcessEndpoint, WorkhorseThread
from repro.core.errors import LifecycleError
from repro.core.message import MsgType, make_message
from repro.transport.fabric import Fabric


class TestBrokerLifecycle:
    def test_double_start_raises(self):
        broker = Broker("b")
        broker.start()
        with pytest.raises(LifecycleError):
            broker.start()
        broker.stop()

    def test_stop_is_idempotent(self):
        broker = Broker("b")
        broker.start()
        broker.stop()
        broker.stop()

    def test_register_process_returns_queue(self):
        broker = Broker("b")
        queue = broker.register_process("p")
        assert broker.communicator.local_queue("p") is not None
        assert queue is broker.communicator.id_queue("p")


class TestEndToEndTransfer:
    def test_point_to_point(self, endpoint_pair):
        alice, bob = endpoint_pair
        alice.send(make_message("alice", ["bob"], MsgType.DATA, {"k": 42}))
        received = bob.receive(timeout=2)
        assert received is not None
        assert received.body == {"k": 42}
        assert received.src == "alice"

    def test_ordering_preserved_per_sender(self, endpoint_pair):
        alice, bob = endpoint_pair
        for index in range(20):
            alice.send(make_message("alice", ["bob"], MsgType.DATA, index))
        received = [bob.receive(timeout=2).body for _ in range(20)]
        assert received == list(range(20))

    def test_numpy_payload(self, endpoint_pair):
        alice, bob = endpoint_pair
        payload = np.arange(1000, dtype=np.float32)
        alice.send(make_message("alice", ["bob"], MsgType.ROLLOUT, payload))
        assert np.array_equal(bob.receive(timeout=2).body, payload)

    def test_broadcast_to_multiple_endpoints(self, broker):
        learner = ProcessEndpoint("learner", broker)
        explorers = [ProcessEndpoint(f"e{i}", broker) for i in range(3)]
        learner.start()
        for explorer in explorers:
            explorer.start()
        try:
            weights = [np.ones(8)]
            learner.send(
                make_message("learner", ["e0", "e1", "e2"], MsgType.WEIGHTS, weights)
            )
            for explorer in explorers:
                received = explorer.receive(timeout=2)
                assert received is not None
                assert np.array_equal(received.body[0], np.ones(8))
        finally:
            learner.stop()
            for explorer in explorers:
                explorer.stop()

    def test_object_store_is_empty_after_delivery(self, endpoint_pair):
        alice, bob = endpoint_pair
        alice.send(make_message("alice", ["bob"], MsgType.DATA, "x"))
        assert bob.receive(timeout=2) is not None
        deadline = time.monotonic() + 2
        while len(alice.broker.communicator.object_store) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(alice.broker.communicator.object_store) == 0

    def test_sender_initiated_push_no_request_needed(self, endpoint_pair):
        """The defining property: data arrives without the receiver asking.

        Bob does not call receive until after the message has fully landed in
        his receive buffer.
        """
        alice, bob = endpoint_pair
        alice.send(make_message("alice", ["bob"], MsgType.DATA, "pushed"))
        deadline = time.monotonic() + 2
        while bob.receive_buffer.empty() and time.monotonic() < deadline:
            time.sleep(0.005)
        assert not bob.receive_buffer.empty(), "message was not pushed proactively"
        assert bob.receive(timeout=0.1).body == "pushed"

    def test_delivery_latency_recorded(self, endpoint_pair):
        alice, bob = endpoint_pair
        alice.send(make_message("alice", ["bob"], MsgType.DATA, "x"))
        bob.receive(timeout=2)
        assert bob.delivery_latency.count == 1
        assert bob.delivery_latency.mean() >= 0

    def test_double_start_raises(self, broker):
        endpoint = ProcessEndpoint("e", broker)
        endpoint.start()
        with pytest.raises(LifecycleError):
            endpoint.start()
        endpoint.stop()

    def test_send_after_stop_is_dropped(self, broker):
        endpoint = ProcessEndpoint("e", broker)
        endpoint.start()
        endpoint.stop()
        endpoint.send(make_message("e", ["e"], MsgType.DATA, "late"))  # no raise


class TestCrossBrokerTransfer:
    def test_two_brokers_over_fabric(self):
        fabric = Fabric("data")
        broker_a = Broker("brokerA", fabric=fabric)
        broker_b = Broker("brokerB", fabric=fabric)
        broker_a.add_remote_route("bob", "brokerB")
        broker_a.start()
        broker_b.start()
        alice = ProcessEndpoint("alice", broker_a)
        bob = ProcessEndpoint("bob", broker_b)
        alice.start()
        bob.start()
        try:
            alice.send(make_message("alice", ["bob"], MsgType.DATA, {"x": 1}))
            received = bob.receive(timeout=2)
            assert received is not None
            assert received.body == {"x": 1}
            assert broker_a.router.routed_remote == 1
        finally:
            alice.stop()
            bob.stop()
            broker_a.stop()
            broker_b.stop()
            fabric.close()

    def test_throttled_fabric_delivers_correctly(self):
        fabric = Fabric("data")
        broker_a = Broker("brokerA", fabric=fabric)
        broker_b = Broker("brokerB", fabric=fabric)
        fabric.connect("brokerA", "brokerB", bandwidth=10e6, latency=0.001)
        broker_a.add_remote_route("bob", "brokerB")
        broker_a.start()
        broker_b.start()
        alice = ProcessEndpoint("alice", broker_a)
        bob = ProcessEndpoint("bob", broker_b)
        alice.start()
        bob.start()
        try:
            payload = np.zeros(100_000, dtype=np.uint8)  # ~10ms at 10MB/s
            started = time.monotonic()
            alice.send(make_message("alice", ["bob"], MsgType.DATA, payload))
            received = bob.receive(timeout=5)
            elapsed = time.monotonic() - started
            assert received is not None
            assert elapsed >= 0.01
        finally:
            alice.stop()
            bob.stop()
            broker_a.stop()
            broker_b.stop()
            fabric.close()


class TestRefcountLeaks:
    """Regression tests: bodies must never be stranded in the object store."""

    def test_stop_releases_undrained_id_queue(self, broker):
        """A destination that stops before draining its ID queue must release
        the refcounts of every header still parked there (one header per
        message here; an envelope: the test below)."""
        alice = ProcessEndpoint(
            "alice", broker, coalescing=CoalescingSpec(max_batch=1)
        )
        bob = ProcessEndpoint("bob", broker)  # registered, but never started
        alice.start()
        try:
            store = broker.communicator.object_store
            for index in range(5):
                alice.send(make_message("alice", ["bob"], MsgType.DATA, index))
            # Wait until the router has parked all five in bob's ID queue.
            deadline = time.monotonic() + 2
            while len(store) < 5 and time.monotonic() < deadline:
                time.sleep(0.005)
            assert len(store) == 5
            bob.stop()  # drains the ID queue, releasing each body
            assert len(store) == 0
        finally:
            alice.stop()

    def test_stop_releases_an_undrained_envelope(self, broker):
        """A whole BATCH envelope parked in a stopped destination's ID
        queue is one store entry holding every sub-message: releasing it
        balances the store."""
        alice = ProcessEndpoint("alice", broker)
        bob = ProcessEndpoint("bob", broker)  # registered, but never started
        for index in range(5):  # queued first: one wake-up drains them all
            alice.send(make_message("alice", ["bob"], MsgType.DATA, index))
        alice.start()
        try:
            store = broker.communicator.object_store
            deadline = time.monotonic() + 2
            while broker.router.routed_local < 5 and time.monotonic() < deadline:
                time.sleep(0.005)
            assert broker.router.routed_local == 5
            assert len(store) == 1
            assert broker.communicator.id_queue("bob").qsize() == 1
            bob.stop()
            assert len(store) == 0
            assert store.leak_report() == []
        finally:
            alice.stop()

    def test_sender_releases_refcounts_when_header_queue_closed(self):
        """If the communicator closes between the store insert and the header
        put, the insert must be rolled back.  Only a header with remote
        destinations crosses the header queue, carrying just their shares:
        the local destination of the same message is served all the same."""
        fabric = Fabric()
        broker = Broker("near", fabric=fabric)
        peer = Broker("far", fabric=fabric)
        fabric.connect("near", "far")
        for name in ("r0", "r1"):
            broker.add_remote_route(name, "far")
        alice = ProcessEndpoint("alice", broker)
        bob = ProcessEndpoint("bob", broker)
        alice.start()
        bob.start()
        try:
            store = broker.communicator.object_store
            broker.communicator.header_queue.close()
            alice.send(make_message("alice", ["r0", "r1"], MsgType.DATA, "x"))
            alice.send(
                make_message("alice", ["r0", "bob", "r1"], MsgType.DATA, "y")
            )
            received = bob.receive(timeout=2)
            assert received is not None and received.body == "y"
            deadline = time.monotonic() + 2
            while len(store) and time.monotonic() < deadline:
                time.sleep(0.005)
            assert len(store) == 0
            assert alice.sent_meter.total == 0  # neither got out whole
        finally:
            alice.stop()
            bob.stop()
            broker.stop()
            peer.stop()
            fabric.close()


class TestWorkhorseThread:
    def test_runs_until_step_returns_false(self):
        counter = {"n": 0}

        def step():
            counter["n"] += 1
            return counter["n"] < 5

        workhorse = WorkhorseThread("w", step)
        workhorse.start()
        workhorse.join(timeout=2)
        assert counter["n"] == 5
        assert not workhorse.running

    def test_stop_flag_halts_loop(self):
        def step():
            time.sleep(0.01)
            return True

        workhorse = WorkhorseThread("w", step)
        workhorse.start()
        workhorse.stop()
        workhorse.join(timeout=2)
        assert not workhorse.running
        assert workhorse.stopping

    def test_exception_captured_not_raised(self):
        def step():
            raise ValueError("boom")

        workhorse = WorkhorseThread("w", step)
        workhorse.start()
        workhorse.join(timeout=2)
        assert isinstance(workhorse.error, ValueError)

    def test_double_start_raises(self):
        workhorse = WorkhorseThread("w", lambda: False)
        workhorse.start()
        workhorse.join(timeout=2)
        with pytest.raises(LifecycleError):
            workhorse.start()
