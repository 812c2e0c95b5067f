"""The same-host lane: large bodies cross as shared-memory block handles.

Every test runs over real loopback sockets in one process, which shares
``/dev/shm`` with itself, so the handshake's probe succeeds and a body
frame of ``LEASE_MIN_BYTES`` or more takes the lane unless a test turns it
off.  The suite runs with ``REPRO_RUNTIME_CHECKS=1``: every lane arena is
sanitizing, so a credit for a block that is not out faults, and a freed
block is poisoned before anything can reuse it.
"""

import gc
import os
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.broker import Broker
from repro.core.endpoint import ProcessEndpoint
from repro.core.message import MsgType, make_message
from repro.core.object_store import (
    LEASE_MIN_BYTES,
    InMemoryObjectStore,
    SharedMemoryObjectStore,
)
from repro.core.serialization import serialization_copies_total
from repro.testing import SocketFaultSpec
from repro.testing.faults import FaultySocketLink
from repro.transport import tcp
from repro.transport.tcp import SocketFabric, SocketLink, SocketListener


class _Sink:
    def __init__(self):
        self.items = []
        self._lock = threading.Lock()

    def deliver(self, src_node, items):
        with self._lock:
            self.items.extend(items)


def _wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


def _segments():
    return set(os.listdir("/dev/shm"))


@pytest.fixture
def listener():
    sink = _Sink()
    server = SocketListener(sink.deliver, name="lane-listener")
    server.sink = sink
    yield server
    server.close(timeout=5.0)


@pytest.fixture
def link(listener):
    made = SocketLink(listener.address, src="m1", dst="m0")
    yield made
    made.close()


def _receive(listener, count, timeout=5.0):
    """The ``count`` items delivered so far, taken out of the sink."""
    sink = listener.sink
    assert _wait_for(lambda: len(sink.items) >= count, timeout)
    with sink._lock:
        taken, sink.items[:] = list(sink.items), []
    assert len(taken) == count
    return taken


def _assert_same(got, want):
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray) and got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    elif isinstance(want, (list, tuple)):
        assert type(got) is type(want) and len(got) == len(want)
        for item, expected in zip(got, want):
            _assert_same(item, expected)
    elif isinstance(want, dict):
        assert got.keys() == want.keys()
        for key in want:
            _assert_same(got[key], want[key])
    else:
        assert got == want


_DTYPES = st.sampled_from([np.uint8, np.float32, np.int64, np.float64])


@st.composite
def _arrays(draw, min_bytes):
    dtype = np.dtype(draw(_DTYPES))
    count = draw(st.integers(min_bytes // dtype.itemsize, 3 * min_bytes // dtype.itemsize))
    seed = draw(st.integers(0, 1 << 16))
    flat = np.random.default_rng(seed).integers(0, 100, count).astype(dtype)
    return flat.reshape(2, -1) if count % 2 == 0 and draw(st.booleans()) else flat


#: bodies at and above the lane threshold: an array, containers of arrays
#: (the array frame) and an object pickle-5 carries (mixed contents)
_BODIES = st.one_of(
    _arrays(LEASE_MIN_BYTES),
    st.lists(_arrays(LEASE_MIN_BYTES // 2), min_size=2, max_size=3),
    st.tuples(_arrays(LEASE_MIN_BYTES // 2), _arrays(LEASE_MIN_BYTES // 2)),
    st.dictionaries(
        st.sampled_from(["obs", "act", "rew"]), _arrays(LEASE_MIN_BYTES // 2),
        min_size=2, max_size=3,
    ),
    st.tuples(_arrays(LEASE_MIN_BYTES), st.text(max_size=8), st.integers()),
)


class TestRoundTrip:
    @settings(
        max_examples=20, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
    )
    @given(body=_BODIES)
    def test_lane_and_byte_path_decode_alike(self, listener, body):
        lane_link = SocketLink(listener.address, src="lane", dst="m0")
        byte_link = SocketLink(listener.address, src="bytes", dst="m0")
        byte_link._lane = None
        try:
            lane_link.send(({"k": 1}, body))
            (on_lane,) = _receive(listener, 1)
            byte_link.send(({"k": 2}, body))
            (as_bytes,) = _receive(listener, 1)
            _assert_same(on_lane[1], body)
            _assert_same(as_bytes[1], body)
            assert lane_link.stats()["lane_shipments"] == 1
            assert byte_link.stats()["lane_shipments"] == 0
            del on_lane, as_bytes
            gc.collect()
            assert _wait_for(lambda: lane_link.stats()["lane_outstanding"] == 0)
        finally:
            lane_link.close()
            byte_link.close()

    def test_below_the_threshold_travels_as_bytes(self, listener, link):
        body = np.zeros(LEASE_MIN_BYTES - 1024, dtype=np.uint8)
        link.send(({"k": 1}, body))
        _receive(listener, 1)
        assert link.stats()["lane_shipments"] == 0
        assert listener.stats()["lane_arrivals"] == 0

    def test_a_lane_body_is_a_read_only_zero_copy_lease(self, listener, link):
        body = np.arange(1 << 20, dtype=np.uint8)
        before = serialization_copies_total()
        for _ in range(4):
            link.send(({"k": 1}, body), nbytes=body.nbytes)
        got = _receive(listener, 4)
        assert serialization_copies_total() - before == 0
        for _, array in got:
            assert not array.flags.writeable
            np.testing.assert_array_equal(array, body)
        stats = link.stats()
        assert stats["lane_shipments"] == 4
        assert stats["bytes_sent"] < body.nbytes  # handles, not bodies
        assert listener.stats()["lane_arrivals"] == 4


class TestCredits:
    def test_blocks_come_back_and_are_reused(self, listener, link):
        bodies = [np.full(LEASE_MIN_BYTES, index, dtype=np.uint8) for index in range(6)]

        def run():
            for index, body in enumerate(bodies):
                link.send(({"i": index}, body))
            got = _receive(listener, len(bodies))
            for (_, array), body in zip(got, bodies):
                np.testing.assert_array_equal(array, body)
            # Held bodies hold their blocks.
            assert link.stats()["lane_outstanding"] == len(bodies)
            del got, array
            gc.collect()
            assert _wait_for(lambda: link.stats()["lane_outstanding"] == 0)
            return link._lane.arena.stats()

        first = run()
        segments = set(link._lane.arena._slabs)
        second = run()
        assert set(link._lane.arena._slabs) == segments
        assert second["slab_bytes"] == first["slab_bytes"]
        assert second["allocated_blocks"] == 0
        assert listener.stats()["credits_sent"] == 2 * len(bodies)
        link._lane.arena.assert_balanced("after two runs")

    def test_a_tiny_arena_falls_back_to_bytes_in_order(self, listener, monkeypatch):
        # One slab of four 512 KiB blocks: the fifth held body has no room.
        monkeypatch.setattr(tcp, "_LANE_CAPACITY", 4 * 2 * LEASE_MIN_BYTES)
        link = SocketLink(listener.address, src="m1", dst="m0")
        try:
            sent = []
            for index in range(14):
                size = LEASE_MIN_BYTES if index % 2 else 512
                sent.append(np.full(size, index % 251, dtype=np.uint8))
            link.send_many([(({"i": i}, body), body.nbytes) for i, body in enumerate(sent)])
            got = _receive(listener, len(sent))
            assert [header["i"] for header, _ in got] == list(range(len(sent)))
            for (_, array), body in zip(got, sent):
                np.testing.assert_array_equal(array, body)
            stats = link.stats()
            assert stats["lane_shipments"] == 4
            assert stats["lane_fallbacks"] == 3
            del got, array
            gc.collect()
            assert _wait_for(lambda: link.stats()["lane_outstanding"] == 0)
            # Room again: the next large body takes the lane.
            link.send(({"i": 99}, sent[1]))
            _receive(listener, 1)
            assert link.stats()["lane_shipments"] == 5
        finally:
            link.close()


class TestFallbacks:
    def test_a_refused_probe_keeps_the_byte_path(self, listener, monkeypatch):
        monkeypatch.setattr(tcp, "read_probe", lambda name: None)
        link = SocketLink(listener.address, src="m1", dst="m0")
        try:
            assert link._lane is None
            body = np.arange(2 * LEASE_MIN_BYTES, dtype=np.uint8)
            link.send(({"k": 1}, body))
            ((_, got),) = _receive(listener, 1)
            np.testing.assert_array_equal(got, body)
            assert link.stats()["lane_shipments"] == 0
            assert link.stats()["bytes_sent"] > body.nbytes
            assert listener.stats()["lane_arrivals"] == 0
        finally:
            link.close()

    def test_the_probe_segment_is_gone_after_the_handshake(self, listener):
        before = _segments()
        link = SocketLink(listener.address, src="m1", dst="m0")
        try:
            assert link._lane is not None
            assert _segments() == before
        finally:
            link.close()

    def test_a_killed_connection_abandons_its_blocks(self):
        """Blocks out when the connection dies are never recycled — a reader
        may still hold them — and fabric close unlinks their segments, while
        a body still held stays readable."""
        fabric = SocketFabric("lane-kill")
        held = []
        fabric.register("m0", held.append)
        fabric.listen("m0")
        try:
            body = np.arange(LEASE_MIN_BYTES, dtype=np.uint8)
            for index in range(3):
                fabric.send("m1", "m0", ({"i": index}, body))
            assert _wait_for(lambda: len(held) == 3)
            link = fabric.link("m1", "m0")
            arena = link._lane.arena
            segments = set(arena._slabs)
            assert segments <= _segments()
            fabric.listener("m0").close()  # the peer's end of the connection
            assert _wait_for(lambda: link.stats()["lane_outstanding"] == 0)
            assert link._lane.dead
            assert arena.stats()["allocated_blocks"] == 3  # abandoned, not freed
            held.clear()
            gc.collect()
            assert arena.stats()["allocated_blocks"] == 3
        finally:
            fabric.close()
        assert not segments & _segments()


class TestPlane:
    def _plane(self, near_store):
        fabric = SocketFabric("lane-plane")
        near = Broker("near.broker", store=near_store, fabric=fabric)
        far = Broker("far.broker", store=InMemoryObjectStore(), fabric=fabric)
        fabric.listen(near.name)
        fabric.connect_bidirectional(far.name, near.name)
        far.add_remote_route("learner", near.name)
        return fabric, near, far

    @pytest.mark.parametrize("store", [InMemoryObjectStore, SharedMemoryObjectStore])
    def test_two_brokers_carry_bulk_bodies_on_the_lane(self, store):
        fabric, near, far = self._plane(store())
        learner = ProcessEndpoint("learner", near)
        explorer = ProcessEndpoint("explorer-0", far)
        for part in (near, far, learner, explorer):
            part.start()
        try:
            bodies = [np.full(256 * 1024, index, dtype=np.uint8) for index in range(16)]
            for index, body in enumerate(bodies):
                explorer.send(make_message("explorer-0", ["learner"], MsgType.ROLLOUT, body))
                message = learner.receive(timeout=5.0)
                assert message is not None
                np.testing.assert_array_equal(message.body, bodies[index])
                del message
            link = fabric.link(far.name, near.name)
            gc.collect()
            assert _wait_for(lambda: link.stats()["lane_outstanding"] == 0)
            stats = link.stats()
            assert stats["lane_shipments"] == len(bodies)
            assert stats["lane_fallbacks"] == 0
        finally:
            explorer.stop()
            learner.stop()
            far.stop()
            near.stop()
            fabric.close()
        assert fabric.link_stats()[f"listen:{near.name}"]["protocol_errors"] == 0

    def test_an_arrival_during_stop_is_settled_before_the_audit(self):
        """A delayed link lands a rollout while the receiving broker stops:
        stop waits for the delivery under way, so the store balances at its
        audit, and the lane block comes back."""
        arriving = threading.Event()

        class _SlowStore(InMemoryObjectStore):
            def put(self, *args, **kwargs):
                object_id = super().put(*args, **kwargs)
                arriving.set()
                time.sleep(0.3)  # the delivery is still under way
                return object_id

        class _DelayedFabric(SocketFabric):
            def _decorate_link(self, link, src, dst):
                if isinstance(link, SocketLink):
                    return FaultySocketLink(link, SocketFaultSpec(delay_s=0.2))
                return link

        fabric = _DelayedFabric("lane-stop")
        store = _SlowStore()
        near = Broker("near.broker", store=store, fabric=fabric)
        far = Broker("far.broker", store=InMemoryObjectStore(), fabric=fabric)
        fabric.listen(near.name)
        fabric.connect_bidirectional(far.name, near.name)
        far.add_remote_route("learner", near.name)
        learner = ProcessEndpoint("learner", near)
        explorer = ProcessEndpoint("explorer-0", far)
        for part in (near, far, learner, explorer):
            part.start()
        try:
            body = np.ones(LEASE_MIN_BYTES, dtype=np.uint8)
            explorer.send(make_message("explorer-0", ["learner"], MsgType.ROLLOUT, body))
            learner.stop()  # the consumer is gone before the arrival
            assert arriving.wait(5.0)
            near.stop()  # audits the store: raises if the arrival races it
            assert store.leak_report() == []
            link = fabric.link(far.name, near.name).inner
            del body
            gc.collect()
            assert _wait_for(lambda: link.stats()["lane_outstanding"] == 0)
            assert link.stats()["lane_shipments"] == 1
            link._lane.arena.assert_balanced("after the stop")
        finally:
            explorer.stop()
            far.stop()
            near.stop()
            fabric.close()
