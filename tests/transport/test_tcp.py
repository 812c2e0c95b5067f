"""Loopback TCP tests: scatter-gather sends, zero-copy receives, shutdown.

Every test runs over a real socket pair on 127.0.0.1 — nothing here is
simulated.  Corruption tests write raw bytes through an established link's
socket (``link._sock.sendall``), which keeps framing mistakes byte-exact
without opening out-of-band connections.
"""

import gc
import threading
import time

import numpy as np
import pytest

from repro.core.message import MsgType, make_header
from repro.core.serialization import serialization_copies_total
from repro.transport.tcp import (
    SocketFabric,
    SocketLink,
    SocketListener,
    WireConnectionError,
    format_address,
    parse_address,
)
from repro.transport.wire import WireProtocolError, encode_wire_header


class _Sink:
    """Collects delivered items and signals arrival."""

    def __init__(self):
        self.items = []
        self._event = threading.Event()
        self._lock = threading.Lock()
        self._expected = 0

    def deliver(self, src_node, items):
        with self._lock:
            self.items.extend((src_node, item) for item in items)
            if self._expected and len(self.items) >= self._expected:
                self._event.set()

    def wait_for(self, count, timeout=5.0):
        with self._lock:
            self._expected = count
            if len(self.items) >= count:
                return True
            self._event.clear()
        return self._event.wait(timeout)


@pytest.fixture
def listener():
    sink = _Sink()
    server = SocketListener(sink.deliver, name="test-listener")
    server.sink = sink
    yield server
    server.close(timeout=5.0)


def _link(server, **kwargs):
    return SocketLink(server.address, src="m1", dst="m0", **kwargs)


class TestAddressing:
    def test_parse_roundtrip(self):
        assert parse_address("10.0.0.1:9000") == ("10.0.0.1", 9000)
        assert format_address(("10.0.0.1", 9000)) == "10.0.0.1:9000"

    def test_parse_rejects_portless(self):
        with pytest.raises(ValueError):
            parse_address("just-a-host")


class TestRoundtrip:
    def test_header_body_tuple(self, listener):
        link = _link(listener)
        try:
            body = np.arange(10_000, dtype=np.float64)
            link.send(({"src": "m1", "kind": "test"}, body), nbytes=body.nbytes)
            assert listener.sink.wait_for(1)
            src_node, (header, got) = listener.sink.items[0]
            assert src_node == "m1"  # learned from the handshake
            assert header == {"src": "m1", "kind": "test"}  # shipped as given
            np.testing.assert_array_equal(got, body)
            assert not got.flags.writeable  # zero-copy view
        finally:
            link.close()

    def test_raw_item_wrapped_and_unwrapped(self, listener):
        link = _link(listener)
        try:
            link.send("plain string item")
            assert listener.sink.wait_for(1)
            _, item = listener.sink.items[0]
            assert item == "plain string item"
        finally:
            link.close()

    def test_many_messages_in_order(self, listener):
        link = _link(listener)
        try:
            for index in range(50):
                link.send(({"seq": index}, index))
            assert listener.sink.wait_for(50)
            sequence = [header["seq"] for _, (header, _) in listener.sink.items]
            assert sequence == list(range(50))
        finally:
            link.close()

    def test_concurrent_senders_interleave_cleanly(self, listener):
        link = _link(listener)
        try:
            def blast(tag):
                for index in range(25):
                    link.send(({"tag": tag, "i": index}, None))

            threads = [
                threading.Thread(target=blast, args=(tag,)) for tag in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert listener.sink.wait_for(100)
            assert listener.stats()["protocol_errors"] == 0
        finally:
            link.close()


class TestZeroCopyAcceptance:
    def test_no_copies_and_few_syscalls_for_1mb_bodies(self, listener):
        """The ISSUE acceptance bars, measured on a live socket."""
        link = _link(listener)
        link._lane = None  # the byte path: these bars are about sendmsg
        try:
            body = np.random.default_rng(0).integers(
                0, 256, size=1 << 20, dtype=np.uint8
            )
            before = serialization_copies_total()
            for _ in range(8):
                link.send(({"k": 1}, body), nbytes=body.nbytes)
            assert listener.sink.wait_for(8)
            assert serialization_copies_total() - before == 0
            stats = link.stats()
            # 8 messages + 1 handshake write: amortized <= 2 per message.
            assert stats["syscalls_per_message"] <= 2.0
            assert stats["bytes_sent"] > 8 * (1 << 20)
        finally:
            link.close()


def _storage(array):
    """The receive buffer behind a zero-copy body."""
    owner = array
    while not isinstance(owner, bytearray):
        owner = owner.obj if isinstance(owner, memoryview) else owner.base
    return owner


class TestLargeMessageBuffers:
    def test_a_buffer_is_reused_only_once_its_body_has_died(self, listener):
        """A message too large for the read-ahead buffer lands in a buffer
        of its own; the next such message reuses it once, and only once,
        nothing of the first body is left."""
        link = _link(listener)
        rng = np.random.default_rng(0)
        bodies = [rng.integers(0, 256, 200_000, dtype=np.uint8) for _ in range(3)]
        try:
            for count, body in enumerate(bodies[:2], start=1):
                link.send(({"k": count}, body), nbytes=body.nbytes)
                assert listener.sink.wait_for(count)
            first, second = (got for _, (_, got) in listener.sink.items)
            assert _storage(first) is not _storage(second)  # both alive
            np.testing.assert_array_equal(first, bodies[0])
            storage = _storage(first)
            del first
            listener.sink.items.clear()
            gc.collect()
            link.send(({"k": 3}, bodies[2]), nbytes=bodies[2].nbytes)
            assert listener.sink.wait_for(1)
            _, (_, third) = listener.sink.items[0]
            assert _storage(third) is storage
            np.testing.assert_array_equal(third, bodies[2])
            np.testing.assert_array_equal(second, bodies[1])
        finally:
            link.close()

    def test_messages_of_changing_sizes_decode_intact(self, listener):
        link = _link(listener)
        link._lane = None  # large bodies through the reader's own buffers
        sizes = [300_000, 300_000, 70_000, 1 << 20, 300_000, 70_000]
        try:
            for index, size in enumerate(sizes):
                link.send(({"k": index}, np.full(size, index, dtype=np.uint8)))
                assert listener.sink.wait_for(1)
                _, (_, got) = listener.sink.items.pop()
                assert got.nbytes == size
                assert (got == index).all()
                del got  # its buffer goes idle before the next message
                gc.collect()
        finally:
            link.close()


class TestPartialWrites:
    def test_capped_sendmsg_still_delivers_intact(self, listener):
        link = _link(listener)
        try:
            link._max_send_bytes = 4096  # force many partial gather writes
            body = np.arange(100_000, dtype=np.uint8)
            link.send(({"k": 1}, body), nbytes=body.nbytes)
            assert listener.sink.wait_for(1)
            _, (_, got) = listener.sink.items[0]
            np.testing.assert_array_equal(got, body)
            assert link.stats()["partial_writes"] >= 1
        finally:
            link.close()


class TestProtocolErrors:
    def _poison(self, listener, raw_bytes):
        """Open a link, then write raw bytes at a message boundary."""
        link = _link(listener)
        link._sock.sendall(raw_bytes)
        link._sock.close()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if listener.stats()["protocol_errors"] > 0:
                return
            time.sleep(0.01)
        pytest.fail("listener never recorded a protocol error")

    def test_garbage_stream_is_loud(self, listener):
        self._poison(listener, b"\x00" * 64)
        with pytest.raises(WireProtocolError, match="bad magic"):
            listener.raise_errors()

    def test_short_read_peer_death_mid_message(self, listener):
        # A valid header promising 1000 payload bytes, then EOF.
        self._poison(listener, encode_wire_header([1000]) + b"x" * 10)
        with pytest.raises(WireProtocolError, match="short read"):
            listener.raise_errors()

    def test_oversized_message_rejected(self):
        sink = _Sink()
        server = SocketListener(
            sink.deliver, name="small-listener", max_message_bytes=1024
        )
        try:
            link = SocketLink(server.address, src="a", dst="b")
            link._sock.sendall(encode_wire_header([1 << 20]))
            link._sock.close()
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if server.stats()["protocol_errors"] > 0:
                    break
                time.sleep(0.01)
            with pytest.raises(WireProtocolError, match="oversized"):
                server.raise_errors()
        finally:
            server.close()

    def test_oversized_send_rejected_locally(self, listener):
        link = _link(listener, max_message_bytes=1024)
        try:
            with pytest.raises(WireProtocolError, match="exceeds"):
                link.send(({"k": 1}, np.zeros(1 << 20, dtype=np.uint8)))
        finally:
            link.close()

    def test_send_on_dead_connection_raises_connection_error(self, listener):
        link = _link(listener)
        link._sock.close()
        with pytest.raises(WireConnectionError):
            link.send(({"k": 1}, None))
        assert link.stats()["send_errors"] == 1

    def test_a_link_that_died_keeps_raising_until_closed(self, listener):
        """Only close() makes a send a silent no-op: after an error every
        later message must fail as loudly as the first, or its sender
        counts it shipped."""
        link = _link(listener)
        link._sock.close()
        for _ in range(3):
            with pytest.raises(WireConnectionError) as caught:
                link.send_many([(({"k": 1}, None), 0), (({"k": 2}, None), 0)])
            assert caught.value.sent == 0
        stats = link.stats()
        assert (stats["send_errors"], stats["items_sent"]) == (3, 0)
        link.close()
        link.send(({"k": 3}, None))  # closed on purpose: dropped, not raised

    def test_poisoned_connection_does_not_kill_healthy_one(self, listener):
        self._poison(listener, b"\xff" * 32)
        link = _link(listener)
        try:
            link.send(({"k": 2}, None))
            assert listener.sink.wait_for(1)
        finally:
            link.close()


class TestListenerHygiene:
    def test_a_raising_deliver_is_counted_and_logged_once_per_connection(self, caplog):
        arrived = threading.Semaphore(0)

        def deliver(src_node, items):
            arrived.release()
            raise LookupError("nobody home")

        server = SocketListener(deliver, name="unlucky-listener")
        link = SocketLink(server.address, src="a", dst="b")
        try:
            with caplog.at_level("ERROR", logger="repro.transport.tcp"):
                for index in range(3):
                    link.send(({"seq": index}, None))
                    assert arrived.acquire(timeout=5)  # one delivery each
                deadline = time.monotonic() + 5
                while (
                    server.stats()["delivery_errors"] < 3
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.01)
            stats = server.stats()
            assert (stats["delivery_errors"], stats["items_received"]) == (3, 3)
            assert stats["protocol_errors"] == 0  # the stream is fine
            logged = [
                record for record in caplog.records if "nobody home" in str(
                    record.exc_info and record.exc_info[1]
                )
            ]
            assert len(logged) == 1 and logged[0].exc_info is not None
        finally:
            link.close()
            server.close()

    def test_finished_connections_are_not_kept(self, listener):
        """A peer that reconnects must not leave one dead reader behind per
        connection."""
        for index in range(4):
            link = _link(listener)
            link.send(({"seq": index}, None))
            assert listener.sink.wait_for(index + 1)
            link.close()
        deadline = time.monotonic() + 5
        while listener._connections and time.monotonic() < deadline:
            time.sleep(0.01)
        assert listener._connections == []
        stats = listener.stats()
        assert (stats["connections_total"], stats["items_received"]) == (4, 4)
        # What the finished readers read stays counted: a hello and a
        # message each (in one read or two).
        assert 4 <= stats["reads_total"] <= 8


class TestShutdown:
    def test_graceful_close_with_in_flight_messages(self):
        """close() drains messages already on the wire — never hangs."""
        sink = _Sink()
        server = SocketListener(sink.deliver, name="drain-listener")
        link = SocketLink(server.address, src="a", dst="b")
        body = np.arange(200_000, dtype=np.uint8)
        for _ in range(20):
            link.send(({"k": 1}, body), nbytes=body.nbytes)
        started = time.monotonic()
        server.close(timeout=10.0)
        assert time.monotonic() - started < 10.0
        link.close()
        # Whatever was fully received was delivered; nothing was garbled.
        assert server.stats()["protocol_errors"] == 0

    def test_close_idempotent(self, listener):
        link = _link(listener)
        link.close()
        link.close()
        link.send(({"k": 1}, None))  # dropped, not raised

    def test_clean_eof_between_messages_is_silent(self, listener):
        link = _link(listener)
        link.send(({"k": 1}, None))
        assert listener.sink.wait_for(1)
        link.close()  # EOF lands at a message boundary
        time.sleep(0.1)
        assert listener.stats()["protocol_errors"] == 0


class TestSocketFabric:
    def test_mixed_local_and_wire_links(self):
        fabric = SocketFabric("mixed")
        local_items = []
        wire_sink = _Sink()
        try:
            fabric.register("local", local_items.append)
            fabric.register("remote", lambda item: None)
            remote_listener = SocketListener(wire_sink.deliver, name="remote")
            fabric.add_address("remote", format_address(remote_listener.address))
            fabric.send("a", "local", "in-proc item")
            fabric.send("a", "remote", ({"k": 1}, "wire item"))
            assert local_items == ["in-proc item"]
            assert wire_sink.wait_for(1)
            stats = fabric.link_stats()
            assert stats["a->remote"]["items_sent"] == 1
        finally:
            fabric.close()
            remote_listener.close()

    def test_listen_registers_address_and_delivers_to_handler(self):
        fabric = SocketFabric("listen-fabric")
        received = []
        try:
            fabric.register("node", received.append)
            host, port = fabric.listen("node")
            assert port > 0
            fabric.send("peer", "node", ({"k": 7}, None))
            deadline = time.monotonic() + 5.0
            while not received and time.monotonic() < deadline:
                time.sleep(0.01)
            assert received and received[0][0]["k"] == 7
            assert "listen:node" in fabric.link_stats()
        finally:
            fabric.close()

    def test_a_read_goes_up_whole_or_item_by_item(self):
        """What one read brought goes to the node's batch handler in one
        call; a node that registered only a per-item handler gets each
        item, every one of them even when an earlier one raises."""
        fabric = SocketFabric("batches")
        batches, singles = [], []
        done = threading.Event()

        def one(item):
            singles.append(item[0]["seq"])
            if len(singles) == 6:
                done.set()
            if item[0]["seq"] == 1:
                raise LookupError("an item nobody wanted")

        def many(items):
            batches.append([header["seq"] for header, _ in items])
            if sum(map(len, batches)) == 6:
                done.set()

        items = [(({"seq": index}, None), 0) for index in range(6)]
        try:
            fabric.register("batched", lambda item: many([item]), many)
            fabric.register("itemwise", one)
            fabric.listen("batched")
            fabric.listen("itemwise")
            fabric.send_many("peer", "batched", items)
            assert done.wait(timeout=5)
            assert [seq for batch in batches for seq in batch] == list(range(6))
            assert len(batches) < 6  # one gather, fewer reads than messages
            done.clear()
            fabric.send_many("peer", "itemwise", items)
            assert done.wait(timeout=5)
            assert singles == list(range(6))
            deadline = time.monotonic() + 5
            while (
                not fabric.link_stats()["listen:itemwise"]["delivery_errors"]
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            assert fabric.link_stats()["listen:itemwise"]["delivery_errors"] >= 1
        finally:
            fabric.close()

    def test_wire_stages_reach_the_hop_log(self, tracer):
        """Links and listeners emit their stage pairs into the process's
        hop log: nothing to attach, whenever they were built."""
        fabric = SocketFabric("traced")
        arrived = threading.Event()
        try:
            fabric.register("node", lambda item: arrived.set())
            fabric.listen("node")
            link = fabric.connect("peer", "node")
            header = make_header("peer", ["node"], MsgType.DATA)
            fabric.send("peer", "node", (header, None))
            assert arrived.wait(timeout=5)
            stages = [
                (event.kind, event.source, event.detail["stage"])
                for event in tracer.events()
                if event.detail.get("seq") == header["seq"]
            ]
            assert ("stage_begin", link.name, "wire_send") in stages
            assert ("stage_end", link.name, "wire_send") in stages
            assert ("stage_begin", "traced:node", "wire_deliver") in stages
        finally:
            fabric.close()

    def test_link_stats_and_errors_survive_close(self):
        fabric = SocketFabric("closed")
        arrived = threading.Event()
        fabric.register("node", lambda item: arrived.set())
        fabric.listen("node")
        fabric.send("peer", "node", ({"k": 1}, None))
        assert arrived.wait(timeout=5)
        fabric.close()
        stats = fabric.link_stats()
        assert stats["peer->node"]["items_sent"] == 1
        assert stats["listen:node"]["items_received"] == 1
        fabric.raise_errors()  # nothing went wrong, and it can still tell
