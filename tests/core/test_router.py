"""Tests for the algorithm-agnostic router."""

import threading
import time
from collections import defaultdict
from typing import Any, Dict, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.broker import Broker
from repro.core.communicator import ShareMemCommunicator
from repro.core.endpoint import ProcessEndpoint
from repro.core.errors import UnknownDestinationError
from repro.core.message import DST, OBJECT_ID, MsgType, make_header, make_message
from repro.core.router import AlgorithmAgnosticRouter
from repro.transport.link import Link


def _header(dst, body_size=0):
    return make_header("src", dst, MsgType.DATA, body_size=body_size)


class TestLocalRouting:
    def test_single_destination(self):
        comm = ShareMemCommunicator()
        queue = comm.register("learner")
        router = AlgorithmAgnosticRouter(comm)
        object_id = comm.object_store.put("body")
        header = _header(["learner"])
        header[OBJECT_ID] = object_id
        router.route(header)
        delivered = queue.get(timeout=1)
        assert delivered[OBJECT_ID] == object_id
        assert router.routed_local == 1

    def test_broadcast_fanout_to_all_destinations(self):
        comm = ShareMemCommunicator()
        queues = {name: comm.register(name) for name in ("e0", "e1", "e2")}
        router = AlgorithmAgnosticRouter(comm)
        object_id = comm.object_store.put("weights", refcount=3)
        header = _header(["e0", "e1", "e2"])
        header[OBJECT_ID] = object_id
        router.route(header)
        for queue in queues.values():
            assert queue.get(timeout=1)[OBJECT_ID] == object_id

    def test_headers_are_copied_per_destination(self):
        comm = ShareMemCommunicator()
        queue_a = comm.register("a")
        queue_b = comm.register("b")
        router = AlgorithmAgnosticRouter(comm)
        router.route(_header(["a", "b"]))
        header_a = queue_a.get(timeout=1)
        header_b = queue_b.get(timeout=1)
        assert header_a is not header_b

    def test_unknown_destination_raises(self):
        comm = ShareMemCommunicator()
        router = AlgorithmAgnosticRouter(comm)
        with pytest.raises(UnknownDestinationError):
            router.route(_header(["ghost"]))

    def test_drop_mode_counts_dropped(self):
        comm = ShareMemCommunicator()
        router = AlgorithmAgnosticRouter(comm, on_unroutable="drop")
        router.start()
        comm.header_queue.put(_header(["ghost"]))
        time.sleep(0.1)
        router.stop()
        assert router.dropped == 1

    def test_invalid_on_unroutable(self):
        with pytest.raises(ValueError):
            AlgorithmAgnosticRouter(ShareMemCommunicator(), on_unroutable="ignore")

    def test_monitor_thread_routes_from_header_queue(self):
        comm = ShareMemCommunicator()
        queue = comm.register("learner")
        router = AlgorithmAgnosticRouter(comm)
        router.start()
        comm.header_queue.put(_header(["learner"]))
        delivered = queue.get(timeout=2)
        router.stop()
        assert delivered is not None
        assert delivered[DST] == ["learner"]

    @given(st.integers(min_value=1, max_value=6))
    @settings(max_examples=20, deadline=None)
    def test_property_fanout_complete(self, n_destinations):
        comm = ShareMemCommunicator()
        names = [f"d{i}" for i in range(n_destinations)]
        queues = [comm.register(name) for name in names]
        router = AlgorithmAgnosticRouter(comm)
        object_id = comm.object_store.put("b", refcount=n_destinations)
        header = _header(names)
        header[OBJECT_ID] = object_id
        router.route(header)
        for queue in queues:
            assert queue.get(timeout=1) is not None


class TestUnroutableDestinations:
    """Every destination ends delivered, forwarded, or rejected with its
    store share released — an unknown name must not leak the body, hide a
    known destination of the same header, or strand the rest of a batch."""

    def test_drop_mode_releases_shares_and_still_serves_known_names(self, tracer):
        broker = Broker("b", on_unroutable="drop")
        alice = ProcessEndpoint("alice", broker)
        bob = ProcessEndpoint("bob", broker)
        broker.start()
        alice.start()
        bob.start()
        try:
            alice.send(make_message("alice", ["ghost"], MsgType.DATA, b"x" * 64))
            alice.send(make_message("alice", ["ghost", "bob"], MsgType.DATA, "y"))
            received = bob.receive(timeout=2)
            assert received is not None and received.body == "y"
            deadline = time.monotonic() + 2
            while broker.router.dropped < 2 and time.monotonic() < deadline:
                time.sleep(0.005)
        finally:
            alice.stop()
            bob.stop()
        assert broker.router.dropped == 2
        assert broker.communicator.object_store.leak_report() == []
        rejected = tracer.events(kind="rejected", source="b.router")
        assert [event.detail["dst"] for event in rejected] == ["ghost", "ghost"]
        broker.stop()

    def test_raise_mode_settles_the_batch_before_the_thread_dies(self, monkeypatch):
        died = []
        monkeypatch.setattr(threading, "excepthook", lambda args: died.append(args))
        comm = ShareMemCommunicator()
        learner = comm.register("learner")
        router = AlgorithmAgnosticRouter(comm)  # on_unroutable="raise"
        store = comm.object_store
        batch = []
        for dst in (["ghost"], ["learner"], ["ghost", "learner"]):
            header = _header(dst)
            header[OBJECT_ID] = store.put(",".join(dst), refcount=len(dst))
            batch.append(header)
        assert comm.header_queue.put_many(batch) == 3
        router.start()
        deadline = time.monotonic() + 2
        while not died and time.monotonic() < deadline:
            time.sleep(0.005)
        assert died and died[0].exc_type is UnknownDestinationError
        assert "ghost" in str(died[0].exc_value)
        assert router.dropped == 2 and router.routed_local == 2
        delivered = learner.get_many(10, timeout=0)
        assert [header[DST] for header in delivered] == [["learner"], ["ghost", "learner"]]
        # Only the two shares parked for the learner are left in the store.
        assert store.outstanding_refcounts == 2
        router.stop()

    def test_route_raises_only_after_releasing_the_unroutable_share(self):
        comm = ShareMemCommunicator()
        queue = comm.register("a")
        router = AlgorithmAgnosticRouter(comm)
        header = _header(["ghost", "a"])
        header[OBJECT_ID] = comm.object_store.put("body", refcount=2)
        with pytest.raises(UnknownDestinationError):
            router.route(header)
        assert queue.get(timeout=0) is not None  # the known name was served
        assert comm.object_store.outstanding_refcounts == 1


class TestRemoteRouting:
    def _setup(self) -> Tuple[ShareMemCommunicator, AlgorithmAgnosticRouter, List]:
        comm = ShareMemCommunicator()
        shipped: List[Tuple[str, Dict[str, Any], Any, int]] = []

        def remote_send(broker, shipments):
            shipped.extend(
                (broker, header, body, nbytes)
                for (header, body), nbytes in shipments
            )

        router = AlgorithmAgnosticRouter(
            comm,
            remote_table={"remote-learner": "broker-B", "remote-e1": "broker-B",
                          "far-e": "broker-C"},
            remote_send=remote_send,
        )
        return comm, router, shipped

    def test_remote_destination_ships_body_once_per_machine(self):
        comm, router, shipped = self._setup()
        object_id = comm.object_store.put("body", refcount=2)
        header = _header(["remote-learner", "remote-e1"], body_size=77)
        header[OBJECT_ID] = object_id
        router.route(header)
        assert len(shipped) == 1  # grouped by machine
        broker, remote_header, body, nbytes = shipped[0]
        assert broker == "broker-B"
        assert sorted(remote_header[DST]) == ["remote-e1", "remote-learner"]
        assert body == "body"
        assert nbytes == 77
        # Both refs released after shipping.
        assert len(comm.object_store) == 0

    def test_mixed_local_and_remote(self):
        comm, router, shipped = self._setup()
        local_queue = comm.register("local-e")
        object_id = comm.object_store.put("w", refcount=2)
        header = _header(["local-e", "remote-learner"])
        header[OBJECT_ID] = object_id
        router.route(header)
        assert local_queue.get(timeout=1) is not None
        assert len(shipped) == 1

    def test_multiple_remote_machines(self):
        comm, router, shipped = self._setup()
        object_id = comm.object_store.put("w", refcount=2)
        header = _header(["remote-learner", "far-e"])
        header[OBJECT_ID] = object_id
        router.route(header)
        assert sorted(s[0] for s in shipped) == ["broker-B", "broker-C"]

    def test_remote_without_fabric_raises(self):
        comm = ShareMemCommunicator()
        router = AlgorithmAgnosticRouter(comm, remote_table={"x": "b"})
        with pytest.raises(UnknownDestinationError, match="no fabric"):
            router.route(_header(["x"]))

    def test_on_remote_receive_reinserts_body(self):
        comm = ShareMemCommunicator()
        queue = comm.register("learner")
        router = AlgorithmAgnosticRouter(comm)
        header = _header(["learner"], body_size=5)
        router.on_remote_receive(header, "arrived")
        delivered = queue.get(timeout=1)
        body = comm.object_store.get(delivered[OBJECT_ID])
        assert body == "arrived"

    def test_on_remote_receive_no_local_dest_raises(self):
        comm = ShareMemCommunicator()
        router = AlgorithmAgnosticRouter(comm)
        with pytest.raises(UnknownDestinationError):
            router.on_remote_receive(_header(["ghost"]), "body")


class TestTransitForwarding:
    def test_remote_receive_forwards_to_onward_route(self):
        """Edge-to-edge messages transit through the center broker."""
        comm = ShareMemCommunicator()
        shipped = []
        router = AlgorithmAgnosticRouter(
            comm,
            remote_table={"edge-e": "broker-C"},
            remote_send=lambda broker, shipments: shipped.extend(
                (broker, header, body, nbytes)
                for (header, body), nbytes in shipments
            ),
        )
        header = _header(["edge-e"], body_size=9)
        router.on_remote_receive(header, "transit-body")
        assert len(shipped) == 1
        broker, fwd_header, body, nbytes = shipped[0]
        assert broker == "broker-C"
        assert fwd_header[DST] == ["edge-e"]
        assert body == "transit-body"
        assert nbytes == 9

    def test_remote_receive_mixed_local_and_transit(self):
        comm = ShareMemCommunicator()
        local_queue = comm.register("local-e")
        shipped = []
        router = AlgorithmAgnosticRouter(
            comm,
            remote_table={"edge-e": "broker-C"},
            remote_send=lambda broker, shipments: shipped.extend(shipments),
        )
        router.on_remote_receive(_header(["local-e", "edge-e"]), "body")
        assert local_queue.get(timeout=1) is not None
        assert len(shipped) == 1

    def test_remote_receive_unroutable_still_raises(self):
        comm = ShareMemCommunicator()
        router = AlgorithmAgnosticRouter(
            comm, remote_table={}, remote_send=lambda *args: None
        )
        with pytest.raises(UnknownDestinationError):
            router.on_remote_receive(_header(["nowhere"]), "body")


class TestRemoteArrivalsResolveLikeEverythingElse:
    """A header arriving from another broker goes through the shared
    dispatch: every routable destination is served before an unknown one
    is rejected (and, in "raise" mode, surfaced)."""

    def _arrive(self, on_unroutable):
        broker = Broker("b", on_unroutable=on_unroutable)
        a_queue = broker.register_process("a")
        header = _header(["a", "ghost"], body_size=4)
        return broker, a_queue, header

    def test_raise_mode_serves_the_known_destination_first(self, tracer):
        broker, a_queue, header = self._arrive("raise")
        with pytest.raises(UnknownDestinationError, match="ghost"):
            broker.router.on_remote_receive(header, "body")
        delivered = a_queue.get(timeout=0)
        assert delivered is not None and delivered[DST] == ["a"]
        store = broker.communicator.object_store
        assert store.get(delivered[OBJECT_ID]) == "body"
        assert broker.router.dropped == 1
        [rejected] = tracer.events("rejected", "b.router")
        assert rejected.detail["dst"] == "ghost"
        assert rejected.detail["seq"] == header["seq"]
        store.release(delivered[OBJECT_ID])
        store.assert_balanced(context="remote arrival, raise mode")

    def test_drop_mode_rejects_the_unknown_destination(self, tracer):
        broker, a_queue, header = self._arrive("drop")
        broker.router.on_remote_receive(header, "body")
        assert a_queue.get(timeout=0) is not None
        assert broker.router.dropped == 1
        # Without the terminal event span accounting keeps (seq, ghost)
        # pending forever.
        [rejected] = tracer.events("rejected", "b.router")
        assert (rejected.detail["dst"], rejected.detail["trace"]) == (
            "ghost", header["trace"],
        )


class TestFailedFabricSend:
    """A send that fails on the fabric is a terminal outcome for that
    group of destinations, not for the thread that was routing it."""

    def test_one_failed_send_rejects_its_group_and_routing_goes_on(self, tracer):
        comm = ShareMemCommunicator()
        attempts = []

        class FlakyLink(Link):
            def send(self, item, nbytes=0):
                attempts.append(item[0]["seq"])
                if len(attempts) == 1:
                    raise ConnectionError("link reset")

        link = FlakyLink()
        router = AlgorithmAgnosticRouter(
            comm, name="r", remote_table={"far": "B"},
            remote_send=lambda broker, shipments: link.send_many(shipments),
        )
        store = comm.object_store
        batch = []
        for index in range(3):
            header = _header(["far"])
            header[OBJECT_ID] = store.put(f"body-{index}")
            batch.append(header)
        assert comm.header_queue.put_many(batch) == 3
        router.start()
        try:
            deadline = time.monotonic() + 5
            while len(attempts) < 3 and time.monotonic() < deadline:
                time.sleep(0.005)
            assert attempts == [header["seq"] for header in batch]
            assert router._thread.is_alive()
        finally:
            router.stop()
        assert (router.routed_remote, router.dropped) == (2, 1)
        [rejected] = tracer.events("rejected", "r")
        assert (rejected.detail["seq"], rejected.detail["dst"]) == (
            batch[0]["seq"], "far",
        )
        store.assert_balanced(context="failed fabric send")

    def test_mid_message_socket_reset_leaks_nothing(self, tracer):
        from repro.testing import FaultySocketLink, SocketFaultSpec
        from repro.transport.tcp import SocketLink, SocketListener

        listener = SocketListener(lambda src, items: None, name="reset-listener")
        link = FaultySocketLink(
            SocketLink(listener.address, src="near", dst="far"),
            # 2 KiB-capped writes: the reset lands inside the first body.
            SocketFaultSpec(max_send_bytes=2048, reset_after_syscalls=2),
        )
        comm = ShareMemCommunicator()
        router = AlgorithmAgnosticRouter(
            comm, name="r", remote_table={"far": "B"},
            remote_send=lambda broker, shipments: link.send_many(shipments),
        )
        store = comm.object_store
        try:
            for _ in range(3):
                header = _header(["far"], body_size=100_000)
                header[OBJECT_ID] = store.put(b"x" * 100_000)
                router.route(header)  # must not raise
        finally:
            link.close()
            listener.close(timeout=5.0)
        # The send the reset cut short, and the two offered to the dead
        # link after it: none of them is counted as shipped.
        assert (router.routed_remote, router.dropped) == (0, 3)
        assert len(tracer.events("rejected", "r")) == 3
        store.assert_balanced(context="socket reset mid-message")


    def test_reset_mid_gather_accounts_for_every_message(self, tracer):
        """One drained batch is one gather on the link; the connection dies
        part-way through it.  What was written whole arrives, the message
        the reset cut and everything after it is rejected — on the dead
        link too — and nothing is both."""
        import numpy as np

        from repro.testing import FaultySocketLink, SocketFaultSpec
        from repro.transport.tcp import SocketFabric

        class ResettingFabric(SocketFabric):
            def _decorate_link(self, link, src, dst):
                # 4 KiB-capped writes, dead after five of them: the reset
                # lands inside the 40-message (~48 KiB) gather.
                return FaultySocketLink(
                    link, SocketFaultSpec(max_send_bytes=4096, reset_after_syscalls=5)
                )

        fabric = ResettingFabric("reset")
        near = Broker("near", fabric=fabric)
        far = Broker("far", fabric=fabric)
        fabric.listen("far")
        consumers = {name: ProcessEndpoint(name, far) for name in ("R0", "R1")}
        for name in consumers:
            near.add_remote_route(name, "far")
        store = near.communicator.object_store

        def batch(count):
            headers = []
            for index in range(count):
                dst = (["R0"], ["R1"], ["R0", "R1"])[index % 3]
                header = _header(dst, body_size=1024)
                header[OBJECT_ID] = store.put(
                    np.full(1024, index, dtype=np.uint8), refcount=len(dst)
                )
                headers.append(header)
            return headers

        first, later = batch(40), batch(5)
        sent = defaultdict(set)
        for header in first + later:
            for name in header[DST]:
                sent[name].add(header["seq"])
        assert near.communicator.header_queue.put_many(first) == 40
        far.start()
        for endpoint in consumers.values():
            endpoint.start()
        near.start()  # its router thread drains all 40 in one wake-up
        delivered = defaultdict(set)
        try:
            def rejected():
                found = defaultdict(set)
                for event in tracer.events("rejected", near.router.name):
                    found[event.detail["dst"]].add(event.detail["seq"])
                return found

            def settled():
                for name, endpoint in consumers.items():
                    message = endpoint.receive(timeout=0.02)
                    while message is not None:
                        assert message.seq not in delivered[name]
                        delivered[name].add(message.seq)
                        message = endpoint.receive(timeout=0)
                gone = rejected()
                return all(
                    len(delivered[name]) + len(gone[name]) == len(sent[name])
                    for name in consumers
                )

            deadline = time.monotonic() + 20
            while time.monotonic() < deadline:
                if near.router.dropped and later:
                    # The link is dead: these must end rejected, not vanish.
                    assert near.communicator.header_queue.put_many(later) == 5
                    later = []
                if not later and settled():
                    break
            gone = rejected()
            for name in consumers:
                assert delivered[name] | gone[name] == sent[name], name
                assert not delivered[name] & gone[name], name
                assert delivered[name] and gone[name], name
            assert near.router._thread.is_alive()
            assert near.router.routed_remote == sum(map(len, delivered.values()))
            assert near.router.dropped == sum(map(len, gone.values()))
            link = fabric.link("near", "far").inner
            assert link.stats()["items_sent"] == len(
                set().union(*delivered.values())
            )
            store.assert_balanced(context="reset mid-gather, sending side")
        finally:
            for endpoint in consumers.values():
                endpoint.stop()
            near.stop()
            far.stop()  # audits the receiving store
            fabric.close()
        # The cut message is the one protocol error the far side saw.
        assert fabric.link_stats()["listen:far"]["protocol_errors"] == 1


class TestCounterConcurrency:
    """Regression: routing counters are mutated from the router thread AND
    from fabric delivery threads (on_remote_receive); they must be guarded."""

    def test_counts_exact_under_concurrent_routing(self):
        import threading

        comm = ShareMemCommunicator()
        for name in ("a", "b", "dead"):
            comm.register(name)
        comm.id_queue("dead").close()  # deliveries to it count as drops
        router = AlgorithmAgnosticRouter(comm)
        per_thread, threads = 200, 8

        def hammer():
            for index in range(per_thread):
                router.route(_header(["a", "b"]))
                router.route(_header(["dead"]))

        workers = [threading.Thread(target=hammer) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert router.routed_local == threads * per_thread * 2
        assert router.dropped == threads * per_thread

    def test_counters_are_read_only_properties(self):
        comm = ShareMemCommunicator()
        router = AlgorithmAgnosticRouter(comm)
        with pytest.raises(AttributeError):
            router.routed_local = 5
        with pytest.raises(AttributeError):
            router.dropped = 5
