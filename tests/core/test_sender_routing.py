"""Sender-side routing: local destinations are dispatched on the sender's
thread, only what is left of a header crosses the header queue.

What must hold whichever thread routed a message: per-(sender,
destination, lane) FIFO, exactly one ``routed`` event per message, and a
store that balances however the destinations come and go.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core.broker import Broker
from repro.core.communicator import ShareMemCommunicator
from repro.core.concurrency import spawn_thread
from repro.core.endpoint import ProcessEndpoint
from repro.core.flowcontrol import CONTROL_TYPES, release_header_shares
from repro.core.message import (
    DST, OBJECT_ID, ROUTED, SEQ, MsgType, make_header, make_message,
)
from repro.core.router import AlgorithmAgnosticRouter
from repro.core.tracing import Tracer
from repro.transport.fabric import Fabric


def _receive_all(endpoint, count, timeout=10.0):
    received = []
    deadline = time.monotonic() + timeout
    while len(received) < count and time.monotonic() < deadline:
        message = endpoint.receive(timeout=0.1)
        if message is not None:
            received.append(message)
    return received


class TestMixedDestinationFifo:
    """Destination lists that mix local and remote names, two lanes, two
    senders, over a DirectLink fabric."""

    #: destination lists a sender cycles through (L* live on its own broker,
    #: R* behind the other one)
    ROUTES = (
        ["L0"], ["R0"], ["L0", "R0"], ["R1", "L1", "R0", "L0"], ["L1"],
        ["R1", "L0"], ["L0", "L1"], ["R0", "R1"],
    )
    PER_SENDER = 160

    def test_fifo_per_sender_destination_lane_and_one_routed_event(self, tracer):
        fabric = Fabric()
        near = Broker("near", fabric=fabric)
        far = Broker("far", fabric=fabric)
        fabric.connect_bidirectional("near", "far")
        for name in ("R0", "R1"):
            near.add_remote_route(name, "far")
        senders = [ProcessEndpoint(f"s{i}", near) for i in range(2)]
        consumers = {
            name: ProcessEndpoint(name, near if name.startswith("L") else far)
            for name in ("L0", "L1", "R0", "R1")
        }
        near.start()
        far.start()
        for endpoint in [*consumers.values(), *senders]:
            endpoint.start()
        expected = defaultdict(list)  # (consumer, sender, lane) -> indices
        seqs = []
        try:
            def produce(sender):
                for index in range(self.PER_SENDER):
                    dst = self.ROUTES[index % len(self.ROUTES)]
                    msg_type = MsgType.COMMAND if index % 5 == 0 else MsgType.DATA
                    message = make_message(sender.name, dst, msg_type, index)
                    seqs.append(message.seq)
                    for name in dst:
                        expected[name, sender.name, msg_type in CONTROL_TYPES].append(index)
                    sender.send(message)

            threads = [
                spawn_thread(f"produce-{sender.name}", produce, args=(sender,))
                for sender in senders
            ]
            for thread in threads:
                thread.join(timeout=10)
            assert not any(thread.is_alive() for thread in threads)
            got = defaultdict(list)
            for name, endpoint in consumers.items():
                due = sum(
                    len(indices) for key, indices in expected.items() if key[0] == name
                )
                for message in _receive_all(endpoint, due):
                    lane = message.msg_type in CONTROL_TYPES
                    got[name, message.src, lane].append(message.body)
            assert got == expected  # nothing lost, nothing twice, FIFO per key
        finally:
            for endpoint in [*senders, *consumers.values()]:
                endpoint.stop()
            near.stop()  # audits the store: every share was released
            far.stop()
            fabric.close()
        routed = defaultdict(int)
        for event in tracer.events(kind="routed"):
            if event.source in (near.router.name, far.router.name):
                routed[event.detail["seq"]] += 1
        assert set(routed) == set(seqs)
        assert set(routed.values()) == {1}, "a message was traced routed twice"
        assert near.router.dropped == far.router.dropped == 0

    def test_routed_is_recorded_on_the_sender_thread_for_local_destinations(self, tracer):
        """The router thread never saw the header: it went from the sender
        thread straight to the destination's ID queue, ``routed`` on record."""
        broker = Broker("b")
        alice = ProcessEndpoint("alice", broker)
        bob = ProcessEndpoint("bob", broker)
        broker.start()
        alice.start()
        bob.start()
        try:
            alice.send(make_message("alice", ["bob"], MsgType.DATA, 1))
            assert bob.receive(timeout=2) is not None
        finally:
            alice.stop()
            bob.stop()
            broker.stop()
        assert tracer.count("routed") == 1
        assert broker.communicator.header_queue.flow_stats()["bulk_put"] == 0


class TestDestinationGoesAway:
    def test_id_queue_closed_mid_put_many_ends_balanced(self, tracer):
        """A sender thread is mid-batch when its destination's ID queue
        closes: the queue reclaims what it refuses, the router counts and
        traces it, and the store balances."""
        broker = Broker("b")
        alice = ProcessEndpoint("alice", broker)
        bob = ProcessEndpoint("bob", broker)
        broker.start()
        alice.start()
        bob.start()
        sent = 0
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            deadline = time.monotonic() + 5
            closed = False
            while time.monotonic() < deadline:
                for _ in range(50):
                    alice.send(make_message("alice", ["bob"], MsgType.DATA, sent))
                    sent += 1
                if closed and broker.router.dropped >= 50:
                    break
                if not closed and broker.router.routed_local >= 100:
                    broker.communicator.id_queue("bob").close()
                    closed = True
            assert closed and broker.router.dropped >= 50
            while not alice.send_buffer.empty():
                time.sleep(0.005)
        finally:
            sys.setswitchinterval(interval)
            alice.stop()
            bob.stop()
        router = broker.router
        assert router.routed_local + router.dropped == sent
        assert len(tracer.events("rejected", router.name)) == router.dropped
        store = broker.communicator.object_store
        assert store.leak_report() == []
        broker.stop()


class TestRegistrationChangesInFlight:
    def test_late_registration_is_served_without_the_routed_marker(self, tracer):
        """A name with no route on the sender thread registers before the
        router thread sees the remainder: it is delivered there, traced
        ``routed`` once, and the router's marker stays off the delivery."""
        comm = ShareMemCommunicator("m")
        router = AlgorithmAgnosticRouter(comm, on_unroutable="drop")
        a_queue = comm.register("a")
        header = make_header("s", ["a", "late"], MsgType.DATA)
        header[OBJECT_ID] = comm.object_store.put("body", refcount=2)
        [(index, rest)] = router.route_local([header])
        assert index == 0 and rest[DST] == ["late"] and rest[ROUTED]
        late_queue = comm.register("late")
        router.route(rest)
        for queue in (a_queue, late_queue):
            [delivered] = queue.get_many(4, timeout=0)
            assert ROUTED not in delivered
            release_header_shares(comm.object_store, delivered, shares=1)
        assert len(tracer.events("routed", router.name)) == 1
        assert router.routed_local == 2 and router.dropped == 0
        comm.object_store.assert_balanced(context="late registration")


NAMES = ("a", "b", "c")
ROUTABLE = st.lists(
    st.sampled_from([*NAMES, "remote-x", "remote-y", "ghost"]),
    min_size=1, max_size=4, unique=True,
)
TYPES = st.sampled_from([MsgType.DATA, MsgType.COMMAND])


class SenderRoutingMachine(RuleBasedStateMachine):
    """A sender thread's wake-up (stage, ``route_local``, remainders to the
    header queue), the router thread's, and consumers — while destinations
    are unregistered, re-registered and closed, and the header queue closes.

    Every (message, destination) pair has exactly one fate: delivered,
    rejected, shipped over the fabric, or still parked in a queue.  FIFO
    holds for a destination as long as no message of its was in flight to
    the router thread while it (re-)registered.
    """

    def __init__(self):
        super().__init__()
        self.comm = ShareMemCommunicator("m")
        self.store = self.comm.object_store
        self.shipped = 0

        def remote_send(broker, shipments):
            self.shipped += sum(len(header[DST]) for (header, _), _ in shipments)

        self.router = AlgorithmAgnosticRouter(
            self.comm, on_unroutable="drop",
            remote_table={"remote-x": "X", "remote-y": "Y"},
            remote_send=remote_send,
        )
        self.tracer = Tracer(capacity=100_000).attach()
        self.queues = {name: self.comm.register(name) for name in NAMES}
        self.retired = []  # ID queues of unregistered destinations
        self.sent = 0  # (message, destination) pairs handed to the channel
        self.delivered = defaultdict(list)  # (destination, lane) -> seqs
        self.refused_at_header_queue = 0
        self.on_header_queue = 0  # destinations of the remainders queued there
        #: names that registered while a remainder naming them was queued:
        #: the router thread delivers it behind later sender-routed ones
        self.overtaken = set()

    @rule(batch=st.lists(st.tuples(ROUTABLE, TYPES), min_size=1, max_size=5))
    def sender_wakeup(self, batch):
        headers = []
        for dst, msg_type in batch:
            header = make_header("s", dst, msg_type)
            header[OBJECT_ID] = self.store.put(header[SEQ], refcount=len(dst))
            headers.append(header)
            self.sent += len(dst)
        remainders = self.router.route_local(headers)
        accepted = self.comm.header_queue.put_many(
            [rest for _, rest in remainders]
        )
        for _, rest in remainders[:accepted]:
            self.on_header_queue += len(rest[DST])
        for _, rest in remainders[accepted:]:
            self.refused_at_header_queue += len(rest[DST])

    @rule(max_items=st.integers(min_value=1, max_value=4))
    def router_wakeup(self, max_items):
        for header in self.comm.header_queue.get_many(max_items, timeout=0):
            self.on_header_queue -= len(header[DST])
            self.overtaken.update(filter(self.comm.local_queue, header[DST]))
            self.router.route(header)

    @rule(name=st.sampled_from(NAMES), max_items=st.integers(min_value=1, max_value=4))
    def consume(self, name, max_items):
        for header in self.queues[name].get_many(max_items, timeout=0):
            assert ROUTED not in header
            lane = header["type"] in CONTROL_TYPES
            self.delivered[name, lane].append(header[SEQ])
            release_header_shares(self.store, header, shares=1)

    @rule(name=st.sampled_from(NAMES))
    def unregister(self, name):
        if self.comm.local_queue(name) is not None:
            self.retired.append(self.queues[name])
            self.comm.unregister(name)

    @rule(name=st.sampled_from(NAMES))
    def register(self, name):
        if self.comm.local_queue(name) is None:
            self.queues[name] = self.comm.register(name)

    @rule(name=st.sampled_from(NAMES))
    def close_id_queue(self, name):
        self.queues[name].close()

    @precondition(lambda self: not self.comm.header_queue.closed)
    @rule()
    def close_header_queue(self):
        self.comm.header_queue.close()

    def _parked(self):
        queues = {id(queue): queue for queue in [*self.queues.values(), *self.retired]}
        return self.on_header_queue + sum(
            queue.qsize() for queue in queues.values()
        )

    @invariant()
    def every_destination_has_exactly_one_fate(self):
        delivered = sum(len(seqs) for seqs in self.delivered.values())
        rejected = self.router.dropped + self.refused_at_header_queue
        assert (
            delivered + rejected + self.shipped + self._parked() == self.sent
        )
        assert (
            len(self.tracer.events("rejected", self.router.name))
            == self.router.dropped
        )
        for key, seqs in self.delivered.items():
            assert len(seqs) == len(set(seqs)), f"{key} got a message twice"
            if key[0] not in self.overtaken:
                assert seqs == sorted(seqs), f"{key} is not FIFO"

    def teardown(self):
        try:
            self.router_wakeup(10_000)
            assert self.on_header_queue == 0
            self.every_destination_has_exactly_one_fate()
            # What is still parked holds one share per destination; once
            # those are released nothing may be left in the store.
            for queue in [*self.queues.values(), *self.retired]:
                for header in queue.drain():
                    release_header_shares(self.store, header, shares=1)
            self.store.assert_balanced(context="sender-routing model")
        finally:
            self.tracer.detach()


TestSenderRoutingModel = SenderRoutingMachine.TestCase
TestSenderRoutingModel.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)


class TestBatchPathOverSockets:
    """The remote path end to end, over real sockets: what the edge's
    router thread drains together crosses each link together, what one read
    brings the center is routed in one pass, and part of it only transits.

    ``L0`` is local to the senders' broker (edge), ``C0`` lives on the
    center and ``S0`` on the side broker, both one link away, and ``T0``,
    also on the side broker, is reached *through* the center.
    """

    ROUTES = (
        ["L0"], ["C0"], ["S0"], ["T0"], ["L0", "C0"], ["T0", "C0", "L0", "S0"],
        ["C0", "T0"], ["S0", "L0"], ["C0"], ["T0"],
    )
    PER_SENDER = 300

    def test_fifo_exactly_once_and_one_hop_record_each(self, tracer):
        from repro.transport.tcp import SocketFabric

        fabric = SocketFabric("batch")
        edge, center, side = (
            Broker(name, fabric=fabric) for name in ("edge", "center", "side")
        )
        fabric.listen("center")
        fabric.listen("side")
        edge.add_remote_route("C0", "center")
        edge.add_remote_route("S0", "side")
        edge.add_remote_route("T0", "center")
        center.add_remote_route("T0", "side")
        senders = [ProcessEndpoint(f"s{i}", edge) for i in range(2)]
        homes = {"L0": edge, "C0": center, "S0": side, "T0": side}
        consumers = {name: ProcessEndpoint(name, home) for name, home in homes.items()}
        for broker in (edge, center, side):
            broker.start()
        for endpoint in [*consumers.values(), *senders]:
            endpoint.start()
        expected = defaultdict(list)  # (consumer, sender, lane) -> indices
        sent_to = {}  # seq -> its destination list
        try:
            def produce(sender):
                for index in range(self.PER_SENDER):
                    dst = self.ROUTES[index % len(self.ROUTES)]
                    msg_type = MsgType.COMMAND if index % 7 == 0 else MsgType.DATA
                    message = make_message(sender.name, dst, msg_type, index)
                    sent_to[message.seq] = dst
                    for name in dst:
                        expected[name, sender.name, msg_type in CONTROL_TYPES].append(index)
                    sender.send(message)

            threads = [
                spawn_thread(f"produce-{sender.name}", produce, args=(sender,))
                for sender in senders
            ]
            for thread in threads:
                thread.join(timeout=20)
            assert not any(thread.is_alive() for thread in threads)
            got = defaultdict(list)
            for name, endpoint in consumers.items():
                due = sum(
                    len(indices) for key, indices in expected.items() if key[0] == name
                )
                for message in _receive_all(endpoint, due, timeout=30.0):
                    lane = message.msg_type in CONTROL_TYPES
                    got[name, message.src, lane].append(message.body)
            assert got == expected  # nothing lost, nothing twice, FIFO per key
            links = fabric.link_stats()
            assert links["edge->center"]["items_sent"] == sum(
                1 for dst in sent_to.values() if {"C0", "T0"} & set(dst)
            )
            # The batch path was taken: groups, not single messages, crossed.
            assert links["edge->center"]["syscalls_per_message"] < 1.0
            assert links["listen:center"]["reads_per_message"] < 1.0
        finally:
            for endpoint in [*senders, *consumers.values()]:
                endpoint.stop()
            for broker in (edge, center, side):
                broker.stop()  # audits its store: every share was released
            fabric.close()
        fabric.raise_errors()
        assert edge.router.dropped == center.router.dropped == side.router.dropped == 0
        # One record per hop per message, however many travelled together.
        hops = defaultdict(lambda: defaultdict(int))
        for event in tracer.events():
            stage = event.detail.get("stage")
            if event.kind in ("routed", "delivered") or stage in (
                "wire_send", "wire_deliver"
            ):
                hops[event.detail.get("seq")][event.kind, stage] += 1
        for seq, dst in sent_to.items():
            wire_hops = {("C0",): 1, ("T0",): 2}.get(tuple(dst))
            if wire_hops is None:
                continue
            assert dict(hops[seq]) == {
                ("routed", None): 1, ("delivered", None): 1,
                ("stage_begin", "wire_send"): wire_hops,
                ("stage_end", "wire_send"): wire_hops,
                ("stage_begin", "wire_deliver"): wire_hops,
                ("stage_end", "wire_deliver"): wire_hops,
            }, (seq, dst)
