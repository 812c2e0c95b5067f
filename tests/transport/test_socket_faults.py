"""FaultySocketLink: delay, short writes, and mid-message connection reset."""

import threading
import time

import numpy as np
import pytest

from repro.testing import FaultySocketLink, SocketFaultSpec
from repro.transport.tcp import (
    SocketLink,
    SocketListener,
    WireConnectionError,
)


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
