"""The socket reader against arbitrary streams, and gathers over real sockets.

The property tests drive a connection's reader from a stub socket that
returns the byte stream in arbitrary pieces: whatever the cuts, the same
messages come out in the same order, and a damaged stream delivers its
valid prefix, records exactly one protocol error and ends — it is never
read past its end and never sizes a buffer from a field that was not
checked.  The deterministic tests send gathers over loopback TCP.
"""

import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.transport import tcp
from repro.transport.tcp import _READ_AHEAD, SocketLink, SocketListener
from repro.transport.wire import encode_message, wire_header_size

#: what the stub-fed listener accepts; the largest message sent is 4x the
#: read-ahead, so nothing valid comes near it
MAX_MESSAGE_BYTES = 8 * _READ_AHEAD


def _wire_bytes(header, body):
    buffers, _ = encode_message(header, body)
    return b"".join(bytes(memoryview(part).cast("B")) for part in buffers)


def _body_for_wire_size(target):
    """A uint8 array whose message (with :func:`_header`) is ``target``
    bytes on the wire."""
    length = target - 256
    for _ in range(8):
        size = len(_wire_bytes(_header("fit", 0), np.zeros(length, np.uint8)))
        if size == target:
            return np.arange(length, dtype=np.uint32).astype(np.uint8)
        length += target - size
    raise AssertionError(f"no body makes a {target}-byte message")


def _header(kind, index):
    return {"kind": kind.ljust(5), "i": index % 200}


#: message sizes straddling the read-ahead buffer
BODIES = {
    "none": None,
    "1k": np.arange(1024, dtype=np.uint8),
    "under": _body_for_wire_size(_READ_AHEAD - 1),
    "exact": _body_for_wire_size(_READ_AHEAD),
    "over": _body_for_wire_size(_READ_AHEAD + 1),
    "4x": _body_for_wire_size(4 * _READ_AHEAD),
}


class _StubSocket:
    """Hands out ``data`` cut at ``cuts`` (positions), then EOF, once."""

    def __init__(self, data, cuts, on_read=None):
        self.data = data
        self.cuts = sorted({cut for cut in cuts if 0 < cut < len(data)})
        self.position = 0
        self.eof_seen = False
        self.reads_after_eof = 0
        self.on_read = on_read

    def settimeout(self, timeout):
        pass

    def recv_into(self, into, nbytes=0):
        if self.eof_seen:
            self.reads_after_eof += 1
            return 0
        while self.cuts and self.cuts[0] <= self.position:
            self.cuts.pop(0)
        stop = self.cuts[0] if self.cuts else len(self.data)
        size = min(stop - self.position, len(into))
        if size == 0:
            self.eof_seen = True
            return 0
        into[:size] = self.data[self.position : self.position + size]
        self.position += size
        if self.on_read is not None:
            self.on_read()
        return size

    def close(self):
        pass


@pytest.fixture(scope="module")
def fed():
    """A listener whose connections the tests feed from stub sockets."""
    received = []
    listener = SocketListener(
        lambda node, items: received.extend(items),
        name="fed", max_message_bytes=MAX_MESSAGE_BYTES,
    )
    listener.received = received
    yield listener
    listener.close(timeout=5.0)


def _feed(listener, data, cuts):
    """Run a reader over ``data`` on this thread; returns (what it
    delivered, protocol errors it recorded, the stub, bytearray sizes it
    allocated)."""
    del listener.received[:]
    errors_before = listener.stats()["protocol_errors"]
    stub = _StubSocket(data, cuts)
    allocated = []

    def spy(*args):
        made = bytearray(*args)
        allocated.append(len(made))
        return made

    with mock.patch.object(tcp, "bytearray", spy, create=True):
        tcp._Connection(listener, stub, "stub-peer")._run()
    errors = listener.stats()["protocol_errors"] - errors_before
    return list(listener.received), errors, stub, allocated


def _assert_same(delivered, kinds):
    assert [(header["kind"].strip(), header["i"]) for header, _ in delivered] == [
        (kind, index) for index, kind in enumerate(kinds)
    ]
    for (_, body), kind in zip(delivered, kinds):
        if BODIES[kind] is None:
            assert body is None
        else:
            np.testing.assert_array_equal(body, BODIES[kind])


@st.composite
def streams(draw):
    """(kinds, their wire bytes, message end offsets, cut positions)."""
    kinds = draw(st.lists(st.sampled_from(sorted(BODIES)), min_size=1, max_size=6))
    blobs = [
        _wire_bytes(_header(kind, index), BODIES[kind])
        for index, kind in enumerate(kinds)
    ]
    ends = list(np.cumsum([len(blob) for blob in blobs]))
    total = int(ends[-1])
    near_a_boundary = st.builds(
        lambda end, offset: int(end) + offset,
        st.sampled_from([0] + ends), st.integers(-40, 40),
    )
    cuts = draw(st.lists(
        st.one_of(near_a_boundary, st.integers(0, total)), max_size=40
    ))
    return kinds, b"".join(blobs), [int(end) for end in ends], cuts


class TestReaderOnArbitraryStreams:
    @given(streams())
    @settings(max_examples=60, deadline=None)
    def test_every_cut_delivers_the_same_messages_in_order(self, fed, stream):
        kinds, data, _, cuts = stream
        delivered, errors, stub, allocated = _feed(fed, data, cuts)
        _assert_same(delivered, kinds)
        assert errors == 0
        assert stub.eof_seen and stub.reads_after_eof == 0
        assert max(allocated) <= MAX_MESSAGE_BYTES

    @given(
        streams(), st.data(),
        st.sampled_from(["flipped header byte", "truncated tail", "garbage appended"]),
    )
    @settings(max_examples=90, deadline=None)
    def test_damage_delivers_the_valid_prefix_and_one_error(
        self, fed, stream, data_source, damage
    ):
        kinds, data, ends, cuts = stream
        starts = [0] + ends[:-1]
        if damage == "flipped header byte":
            victim = data_source.draw(st.integers(0, len(kinds) - 1))
            head = wire_header_size(1 if BODIES[kinds[victim]] is None else 2)
            at = starts[victim] + data_source.draw(st.integers(0, head - 1))
            flipped = data[at] ^ data_source.draw(st.integers(1, 255))
            data = data[:at] + bytes([flipped]) + data[at + 1 :]
            intact = victim
        elif damage == "truncated tail":
            victim = data_source.draw(st.integers(0, len(kinds) - 1))
            cut_at = data_source.draw(
                st.integers(starts[victim] + 1, ends[victim] - 1)
            )
            data = data[:cut_at]
            intact = victim
        else:
            data += data_source.draw(st.binary(min_size=1, max_size=64))
            intact = len(kinds)
        delivered, errors, stub, allocated = _feed(fed, data, cuts)
        _assert_same(delivered, kinds[:intact])
        assert errors == 1
        assert stub.reads_after_eof == 0  # it ended; it did not wait for more
        assert max(allocated) <= MAX_MESSAGE_BYTES


class TestReadAheadAndShutdown:
    def test_close_delivers_complete_messages_still_in_the_read_ahead(self):
        """The listener starts closing while a read's worth of complete
        messages sits undecoded in the window: they are delivered, and the
        reader then stops at the boundary without another read."""
        received = []
        listener = SocketListener(
            lambda node, items: received.extend(items), name="closing"
        )
        kinds = ["1k", "none", "1k"]
        data = b"".join(
            _wire_bytes(_header(kind, index), BODIES[kind])
            for index, kind in enumerate(kinds)
        )
        stub = _StubSocket(data, [], on_read=listener._closing_event.set)
        tcp._Connection(listener, stub, "stub-peer")._run()
        _assert_same(received, kinds)
        assert stub.position == len(data) and not stub.eof_seen
        assert listener.stats()["protocol_errors"] == 0
        listener._closing_event.clear()
        listener.close(timeout=5.0)


class _Sink:
    def __init__(self):
        self.items = []
        self._arrived = threading.Condition()

    def deliver(self, src_node, items):
        with self._arrived:
            self.items.extend(items)
            self._arrived.notify_all()

    def wait_for(self, count, timeout=10.0):
        with self._arrived:
            return self._arrived.wait_for(lambda: len(self.items) >= count, timeout)


@pytest.fixture
def wired():
    sink = _Sink()
    listener = SocketListener(sink.deliver, name="gather-listener")
    link = SocketLink(listener.address, src="m1", dst="m0")
    # The handshake has been read (and counted) before anything is compared.
    link.send(({"warm": 1}, None))
    assert sink.wait_for(1)
    del sink.items[:]
    yield link, listener, sink
    link.close()
    listener.close(timeout=5.0)


def _gather(count=32):
    return [
        (({"seq": index}, np.full(1024, index, dtype=np.uint8)), 1024)
        for index in range(count)
    ]


def _assert_gather_arrived(sink, count=32):
    assert sink.wait_for(count)
    assert [header["seq"] for header, _ in sink.items] == list(range(count))
    for header, body in sink.items:
        np.testing.assert_array_equal(
            body, np.full(1024, header["seq"], dtype=np.uint8)
        )


class TestGatherOverSockets:
    def test_32_small_messages_cross_in_one_write_and_few_reads(self, wired):
        link, listener, sink = wired
        sent, received = link.stats(), listener.stats()
        link.send_many(_gather())
        _assert_gather_arrived(sink)
        assert link.stats()["syscalls_total"] - sent["syscalls_total"] == 1
        assert link.stats()["items_sent"] - sent["items_sent"] == 32
        after = listener.stats()
        assert after["items_received"] - received["items_received"] == 32
        assert after["reads_total"] - received["reads_total"] < 32
        assert after["reads_per_message"] < 1.0

    def test_capped_writes_still_deliver_the_gather_whole_and_in_order(self, wired):
        link, listener, sink = wired
        link._max_send_bytes = 4096  # the one gather needs many partial writes
        sent = link.stats()
        link.send_many(_gather())
        _assert_gather_arrived(sink)
        stats = link.stats()
        assert stats["syscalls_total"] - sent["syscalls_total"] >= 9
        assert stats["partial_writes"] - sent["partial_writes"] == 1  # per write
        assert listener.stats()["protocol_errors"] == 0

    def test_a_message_larger_than_the_read_ahead_travels_alone(self, wired):
        link, listener, sink = wired
        large = np.arange(3 * _READ_AHEAD, dtype=np.uint32).astype(np.uint8)
        items = _gather(4)
        items.insert(2, (({"seq": 99}, large), large.nbytes))
        sent = link.stats()
        link.send_many(items)
        assert sink.wait_for(5)
        assert [header["seq"] for header, _ in sink.items] == [0, 1, 99, 2, 3]
        np.testing.assert_array_equal(sink.items[2][1], large)
        # Two small ones, the large one, two small ones.
        assert link.stats()["syscalls_total"] - sent["syscalls_total"] == 3

    def test_one_message_is_one_write_and_one_read(self, wired):
        link, listener, sink = wired
        sent, received = link.stats(), listener.stats()
        for index in range(20):
            link.send(({"seq": index}, np.zeros(1024, dtype=np.uint8)), 1024)
            assert sink.wait_for(index + 1)
        assert link.stats()["syscalls_total"] - sent["syscalls_total"] == 20
        assert listener.stats()["reads_total"] - received["reads_total"] == 20

    def test_a_small_body_keeps_only_its_own_message_alive(self, wired):
        """Replay buffers keep bodies: one must not pin the read-ahead
        window (or its neighbours' bytes) with it."""
        link, _, sink = wired
        link.send_many(_gather(8))
        _assert_gather_arrived(sink, 8)
        _, body = sink.items[3]
        owner = body
        while True:
            parent = getattr(owner, "base", None)
            if parent is None:
                parent = getattr(owner, "obj", None)
            if parent is None:
                break
            owner = parent
        assert 1024 <= len(owner) < 2048
