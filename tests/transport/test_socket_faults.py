"""FaultySocketLink: delay, short writes, and mid-message connection reset."""

import threading
import time

import numpy as np
import pytest

from repro.core.communicator import ShareMemCommunicator
from repro.core.message import OBJECT_ID, MsgType, make_header
from repro.core.router import AlgorithmAgnosticRouter
from repro.testing import FaultySocketLink, SocketFaultSpec
from repro.transport.tcp import (
    SocketLink,
    SocketListener,
    WireConnectionError,
)
from repro.transport.wire import encode_wire_header

from .test_wire import MALFORMED, _malformed


class _Sink:
    def __init__(self):
        self.items = []
        self._event = threading.Event()

    def deliver(self, src_node, items):
        self.items.extend(items)
        self._event.set()

    def wait(self, timeout=5.0):
        return self._event.wait(timeout)


@pytest.fixture
def listener():
    sink = _Sink()
    server = SocketListener(sink.deliver, name="fault-listener")
    server.sink = sink
    yield server
    server.close(timeout=5.0)


def _wrap(listener, spec):
    inner = SocketLink(listener.address, src="m1", dst="m0")
    return FaultySocketLink(inner, spec)


class TestSpecValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SocketFaultSpec(delay_s=-1).validate()
        with pytest.raises(ValueError):
            SocketFaultSpec(max_send_bytes=0).validate()
        with pytest.raises(ValueError):
            SocketFaultSpec(reset_after_syscalls=0).validate()


class TestDelay:
    def test_delay_slows_sends(self, listener):
        link = _wrap(listener, SocketFaultSpec(delay_s=0.05))
        try:
            started = time.monotonic()
            for _ in range(4):
                link.send(({"k": 1}, None))
            assert time.monotonic() - started >= 0.2
            assert link.delayed == 4
        finally:
            link.close()


class TestShortWrites:
    def test_short_writes_forced_and_recovered(self, listener):
        link = _wrap(listener, SocketFaultSpec(max_send_bytes=2048))
        try:
            body = np.arange(50_000, dtype=np.uint8)
            link.send(({"k": 1}, body), nbytes=body.nbytes)
            assert listener.sink.wait()
            header, got = listener.sink.items[0]
            np.testing.assert_array_equal(got, body)
            stats = link.stats()
            assert stats["partial_writes"] >= 1
            # Capped at 2KB, a 50KB body needs many syscalls.
            assert stats["syscalls_total"] > 10
        finally:
            link.close()


class TestMidMessageReset:
    def test_reset_mid_message_raises_loudly(self, listener):
        # 2KB-capped writes mean a 100KB message spans many syscalls; the
        # reset after 2 lands mid-message — never a hang, always an error.
        link = _wrap(
            listener,
            SocketFaultSpec(max_send_bytes=2048, reset_after_syscalls=2),
        )
        body = np.arange(100_000, dtype=np.uint8)
        with pytest.raises(WireConnectionError):
            link.send(({"k": 1}, body), nbytes=body.nbytes)
        assert link.stats()["send_errors"] == 1
        link.close()

    def test_receiver_sees_short_read_after_reset(self, listener):
        link = _wrap(
            listener,
            SocketFaultSpec(max_send_bytes=2048, reset_after_syscalls=2),
        )
        with pytest.raises(WireConnectionError):
            link.send(({"k": 1}, np.zeros(100_000, dtype=np.uint8)))
        link.close()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if listener.stats()["protocol_errors"] > 0:
                break
            time.sleep(0.01)
        assert listener.stats()["protocol_errors"] == 1


class TestResetMidGather:
    def test_the_error_says_how_many_messages_went_out_whole(self, listener):
        """A gather of 1 KiB messages under 2 KiB-capped writes, dead after
        four of them: the messages inside the first 8 KiB were written
        whole and arrive; the error carries their number."""
        link = _wrap(
            listener,
            SocketFaultSpec(max_send_bytes=2048, reset_after_syscalls=4),
        )
        items = [
            (({"seq": index}, np.full(1024, index, dtype=np.uint8)), 1024)
            for index in range(20)
        ]
        with pytest.raises(WireConnectionError) as caught:
            link.send_many(items)
        whole = caught.value.sent
        assert 0 < whole < 20
        stats = link.stats()
        assert (stats["items_sent"], stats["send_errors"]) == (whole, 1)
        link.close()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if listener.stats()["protocol_errors"] > 0:
                break
            time.sleep(0.01)
        # Exactly the whole ones were delivered, in order, before the cut.
        assert [header["seq"] for header, _ in listener.sink.items] == list(
            range(whole)
        )
        assert listener.stats()["protocol_errors"] == 1


def _wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.01)
    return predicate()


class TestMalformedHeaderRecord:
    @pytest.mark.parametrize("case", MALFORMED)
    def test_poisons_only_its_own_connection(self, listener, case):
        """A malformed frame 0 from one peer is that connection's protocol
        error; a well-formed peer on the same listener is not disturbed."""
        good = SocketLink(listener.address, src="good", dst="m0")
        bad = SocketLink(listener.address, src="bad", dst="m0")
        try:
            good.send(({"seq": 0}, None))
            record = _malformed(case)
            # After its handshake, at a message boundary: raw bytes.
            bad._sock.sendall(encode_wire_header([len(record)]) + record)
            assert _wait_for(lambda: listener.stats()["protocol_errors"] == 1)
            assert case in str(listener.last_error)
            good.send(({"seq": 1}, np.arange(4)))
            assert _wait_for(lambda: len(listener.sink.items) == 2)
            assert [header["seq"] for header, _ in listener.sink.items] == [0, 1]
            assert listener.stats()["protocol_errors"] == 1
        finally:
            bad.close()
            good.close()


class TestUnencodableExtra:
    def test_is_one_rejected_message_and_the_rest_ship(self, listener, tracer):
        """A header whose extra has no wire encoding ends as one
        ``rejected`` terminal event; what the router shipped beside it, in
        the same gather, arrives."""
        link = SocketLink(listener.address, src="near", dst="far")
        comm = ShareMemCommunicator()
        router = AlgorithmAgnosticRouter(
            comm, name="r", remote_table={"far": "B"},
            remote_send=lambda broker, shipments: link.send_many(shipments),
        )
        store = comm.object_store
        headers = []
        for index in range(3):
            header = make_header("src", ["far"], MsgType.DATA, body_size=8)
            header[OBJECT_ID] = store.put(np.full(8, index, dtype=np.uint8))
            if index == 1:
                header["bad"] = {1, 2}  # a set: no wire encoding
            headers.append(header)
        try:
            assert comm.header_queue.put_many(headers) == 3
            router.start()
            assert _wait_for(lambda: len(listener.sink.items) == 2)
        finally:
            router.stop()
            link.close()
        assert [header["seq"] for header, _ in listener.sink.items] == [
            headers[0]["seq"], headers[2]["seq"],
        ]
        assert (router.routed_remote, router.dropped) == (2, 1)
        [rejected] = tracer.events("rejected", "r")
        assert (rejected.detail["seq"], rejected.detail["dst"]) == (
            headers[1]["seq"], "far",
        )
        assert listener.stats()["protocol_errors"] == 0
        store.assert_balanced(context="unencodable extra")
