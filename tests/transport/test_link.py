"""Tests for direct and throttled links."""

import threading
import time

import pytest

from repro.transport.link import DirectLink, ThrottledLink


class TestDirectLink:
    def test_delivers_synchronously(self):
        received = []
        link = DirectLink(received.append)
        link.send("a", nbytes=10)
        assert received == ["a"]
        assert link.bytes_sent == 10
        assert link.items_sent == 1

    def test_closed_link_drops(self):
        received = []
        link = DirectLink(received.append)
        link.close()
        link.send("a")
        assert received == []

    def test_send_many_is_a_loop_over_send_that_says_how_far_it_got(self):
        received = []

        def deliver(item):
            if item == "bad":
                raise ValueError(item)
            received.append(item)

        link = DirectLink(deliver)
        link.send_many([("a", 1), ("b", 2)])
        assert (received, link.items_sent, link.bytes_sent) == (["a", "b"], 2, 3)
        with pytest.raises(ValueError) as caught:
            link.send_many([("c", 0), ("d", 0), ("bad", 0), ("never tried", 0)])
        assert caught.value.sent == 2
        assert received == ["a", "b", "c", "d"]


class TestThrottledLink:
    def test_delivers_in_order(self):
        received = []
        done = threading.Event()

        def deliver(item):
            received.append(item)
            if len(received) == 5:
                done.set()

        link = ThrottledLink(deliver, bandwidth=1e9, latency=0.0)
        for index in range(5):
            link.send(index, nbytes=10)
        assert done.wait(timeout=2)
        assert received == [0, 1, 2, 3, 4]
        link.close()

    def test_bandwidth_bounds_throughput(self):
        received = []
        done = threading.Event()

        def deliver(item):
            received.append(item)
            if len(received) == 4:
                done.set()

        # 4 x 25_000 bytes at 1 MB/s -> >= 0.1s of wire occupancy.
        link = ThrottledLink(deliver, bandwidth=1e6, latency=0.0)
        started = time.monotonic()
        for index in range(4):
            link.send(index, nbytes=25_000)
        assert done.wait(timeout=5)
        assert time.monotonic() - started >= 0.09
        link.close()

    def test_send_does_not_block_sender(self):
        link = ThrottledLink(lambda item: None, bandwidth=1e3, latency=0.0)
        started = time.monotonic()
        link.send("big", nbytes=100_000)  # 100s of wire time
        assert time.monotonic() - started < 0.1  # enqueue only
        assert link.pending() >= 0
        link.close()

    def test_conservation_all_bytes_delivered(self):
        """Property: bytes in == bytes out, nothing lost or duplicated."""
        received = []
        total_items = 20
        done = threading.Event()

        def deliver(item):
            received.append(item)
            if len(received) == total_items:
                done.set()

        link = ThrottledLink(deliver, bandwidth=1e9, latency=0.0)
        sizes = [(i % 5) * 100 for i in range(total_items)]
        for index, size in enumerate(sizes):
            link.send(index, nbytes=size)
        assert done.wait(timeout=5)
        assert link.bytes_sent == sum(sizes)
        assert sorted(received) == list(range(total_items))
        link.close()

    def test_latency_applied(self):
        received = threading.Event()
        link = ThrottledLink(lambda item: received.set(), bandwidth=1e9, latency=0.1)
        started = time.monotonic()
        link.send("x", nbytes=1)
        assert received.wait(timeout=2)
        assert time.monotonic() - started >= 0.09
        link.close()

    def test_close_stops_delivery(self):
        received = []
        link = ThrottledLink(received.append, bandwidth=1e9)
        link.close()
        link.send("late", nbytes=1)
        time.sleep(0.05)
        assert received == []
        link.join(timeout=2)

    def test_close_with_a_backlog_ends_the_nic_thread_at_once(self):
        received = []
        link = ThrottledLink(
            received.append, bandwidth=1000.0, latency=0.1, name="backlog"
        )
        for index in range(10):  # 1 000 B each: ~11 s of wire time queued
            link.send(index, nbytes=1000)
        time.sleep(0.05)  # the worker is mid-way through the first item
        closed_at = time.monotonic()
        link.close()
        link.join(timeout=0.5)
        assert time.monotonic() - closed_at < 0.5
        assert "backlog-nic" not in [t.name for t in threading.enumerate()]
        assert received == []

    def test_validation(self):
        with pytest.raises(ValueError):
            ThrottledLink(lambda item: None, bandwidth=0)
        with pytest.raises(ValueError):
            ThrottledLink(lambda item: None, bandwidth=1, latency=-1)

    def test_dying_peer_does_not_kill_worker(self):
        calls = {"n": 0}

        def deliver(item):
            calls["n"] += 1
            raise RuntimeError("peer gone")

        link = ThrottledLink(deliver, bandwidth=1e9, latency=0.0)
        link.send("a", nbytes=1)
        link.send("b", nbytes=1)
        deadline = time.monotonic() + 2
        while calls["n"] < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert calls["n"] == 2
        link.close()
