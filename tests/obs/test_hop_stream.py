"""One stream: what a reader is handed is what the ring holds.

Every hop is recorded by one ``emit``/``emit_many`` call, and a Tracer is
a cursor on the same ring a dump writes out — so whatever it saw while a
run was live a post-mortem finds too, including the terminal and
wire-stage events that say *why* a run stalled.  (Attaching and detaching
are in tests/core/test_tracing.py, the cursor in test_hop_reader.py.)
"""

from __future__ import annotations

import threading
import time
from collections import Counter

import pytest

from repro.core.broker import Broker
from repro.core.communicator import HeaderQueue, ShareMemCommunicator
from repro.core.config import CoalescingSpec, FlowControlSpec
from repro.core.endpoint import ProcessEndpoint
from repro.core.errors import BackpressureError
from repro.core.message import OBJECT_ID, SEQ, TRACE, MsgType, make_header, make_message
from repro.core.router import AlgorithmAgnosticRouter
from repro.core.tracing import HOP_LOG, configure, dump_all, load_dump
from repro.transport.fabric import Fabric
from repro.transport.tcp import SocketFabric


@pytest.fixture(autouse=True)
def fresh_ring(tracer):
    """Both views start empty and together (readers survive a ring
    restart); the ring is large enough that nothing here wraps it."""
    configure(enabled=True, capacity=1 << 15)
    tracer.clear()
    yield
    configure(enabled=True)


def _receive(endpoint, count, timeout=10.0):
    received = []
    deadline = time.monotonic() + timeout
    while len(received) < count and time.monotonic() < deadline:
        message = endpoint.receive(timeout=0.1)
        if message is not None:
            received.append(message)
    assert len(received) == count
    return received


def _tracer_view(tracer, sources):
    """(kind, source, seq, trace) multiset of what ``sources`` emitted —
    the log is process-wide, so a thread some earlier test left running
    may be emitting too."""
    return Counter(
        (event.kind, event.source, event.detail.get("seq"), event.detail.get("trace"))
        for event in tracer.events()
        if event.source in sources
    )


def _ring_view(sources):
    return Counter(
        (event["kind"], event["source"], event["detail"].get("seq"),
         event["detail"].get("trace"))
        for event in HOP_LOG.events()
        if event["source"] in sources
    )


def test_subscriber_and_ring_agree_over_two_brokers(tracer):
    fabric = Fabric("data")  # DirectLink: the brokers share this process
    near = Broker("near", fabric=fabric)
    far = Broker("far", fabric=fabric)
    fabric.connect_bidirectional("near", "far")
    near.add_remote_route("remote", "far")
    sender = ProcessEndpoint("sender", near)
    local = ProcessEndpoint("local", near)
    remote = ProcessEndpoint("remote", far)
    near.start()
    far.start()
    for endpoint in (sender, local, remote):
        endpoint.start()
    try:
        for index in range(40):
            dst = (["local"], ["remote"], ["local", "remote"])[index % 3]
            sender.send(make_message("sender", dst, MsgType.DATA, {"i": index}))
        _receive(local, 27)
        _receive(remote, 26)
    finally:
        for endpoint in (sender, local, remote):
            endpoint.stop()
        near.stop()
        far.stop()
        fabric.close()
    sources = {"sender", "local", "remote", "near.router", "far.router"}
    ring = _ring_view(sources)
    assert HOP_LOG.total == HOP_LOG.count, "the run must fit in the ring"
    assert ring == _tracer_view(tracer, sources)
    kinds = Counter(kind for kind, *_ in ring.elements())
    assert kinds["sent"] == kinds["routed"] == 40  # one routed per message
    assert kinds["delivered"] == kinds["consumed"] == 53


def test_coalesced_batch_is_one_routed_and_delivered_per_sub_message(tracer):
    broker = Broker("b", coalescing=CoalescingSpec())
    alice = ProcessEndpoint("alice", broker)
    bob = ProcessEndpoint("bob", broker)
    broker.start()
    alice.start()
    bob.start()
    try:
        seqs = []
        for index in range(60):
            message = make_message("alice", ["bob"], MsgType.DATA, {"i": index})
            seqs.append(message.seq)
            alice.send(message)
        _receive(bob, 60)
        # Coalescing actually happened (else this tests nothing).
        assert broker.communicator.object_store.total_put < 60
    finally:
        alice.stop()
        bob.stop()
        broker.stop()
    sources = {"b.router", "bob"}
    for view in (_tracer_view(tracer, sources), _ring_view(sources)):
        for kind, source in (("routed", "b.router"), ("delivered", "bob")):
            seen = Counter(
                seq for (k, s, seq, _), n in view.items()
                for _ in range(n) if (k, s) == (kind, source)
            )
            # The envelope's own seq never shows; every sub-message does, once.
            assert seen == Counter(seqs), kind


def test_a_flight_dump_holds_terminal_and_wire_stage_events(tmp_path):
    """What a dump taken on BackpressureError or TrainingFailedError must
    contain to say why: the sheds, expiries and rejects, and the wire hops."""
    expected = {}  # kind -> the (seq, trace, destination) it must carry

    spec = FlowControlSpec(
        bulk_watermark=1, control_watermark=1, low_fraction=0.5,
        control_deadline_s=0.02,
    )
    queue = HeaderQueue("q", spec)
    bulk = [make_header("a", ["b"], MsgType.DATA) for _ in range(2)]
    for header in bulk:
        queue.put(header)  # the second sheds the first
    expected["shed"] = (bulk[0][SEQ], bulk[0][TRACE], "b")

    control = [make_header("a", ["b"], MsgType.COMMAND) for _ in range(2)]
    queue.put(control[0])
    with pytest.raises(BackpressureError):
        queue.put(control[1])  # nobody drains: the deadline expires
    expected["expired"] = (control[1][SEQ], control[1][TRACE], "b")

    comm = ShareMemCommunicator("c")
    router = AlgorithmAgnosticRouter(comm, on_unroutable="drop")
    comm.register("gone").close()
    bounced = make_header("a", ["gone"], MsgType.DATA)
    bounced[OBJECT_ID] = comm.object_store.put("body")
    router.route(bounced)  # put bounced off the closed ID queue
    assert router.dropped == 1
    expected["rejected"] = (bounced[SEQ], bounced[TRACE], "gone")

    fabric = SocketFabric("loop")
    arrived = threading.Event()
    try:
        fabric.register("node", lambda item: arrived.set())
        fabric.listen("node")
        wired = make_header("peer", ["node"], MsgType.DATA)
        fabric.send("peer", "node", (wired, None))
        assert arrived.wait(timeout=5)
    finally:
        fabric.close()

    path = dump_all("unit-test", directory=str(tmp_path))
    assert path is not None
    _, events = load_dump(path)
    for kind, (seq, trace, dst) in expected.items():
        assert any(
            e["kind"] == kind
            and {"seq": seq, "trace": trace, "dst": dst}.items() <= e["detail"].items()
            for e in events
        ), f"no {kind} record for seq {seq}"
    stages = Counter(
        (e["kind"], e["detail"]["stage"]) for e in events
        if e["kind"].startswith("stage_")
        and (e["detail"].get("seq"), e["detail"].get("trace"))
        == (wired[SEQ], wired[TRACE])
    )
    assert stages == {
        ("stage_begin", "wire_send"): 1, ("stage_end", "wire_send"): 1,
        ("stage_begin", "wire_deliver"): 1, ("stage_end", "wire_deliver"): 1,
    }
