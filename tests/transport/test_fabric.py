"""Tests for the broker/controller fabrics."""

import threading
import time

import pytest

from repro.transport.fabric import Fabric
from repro.transport.link import DirectLink, ThrottledLink


class TestFabric:
    def test_send_to_registered_node(self):
        fabric = Fabric()
        received = []
        fabric.register("b", received.append)
        fabric.send("a", "b", "hello")
        assert received == ["hello"]
        fabric.close()

    def test_send_many_goes_down_the_same_link_in_order(self):
        fabric = Fabric()
        received = []
        fabric.register("b", received.append)
        fabric.send_many("a", "b", [("x", 1), ("y", 2)])
        fabric.send("a", "b", "z")
        assert received == ["x", "y", "z"]
        assert fabric.link("a", "b").items_sent == 3
        with pytest.raises(KeyError, match="unknown node"):
            fabric.send_many("a", "ghost", [("x", 0)])
        fabric.close()

    def test_send_to_unknown_node_raises(self):
        fabric = Fabric()
        with pytest.raises(KeyError, match="unknown node"):
            fabric.send("a", "ghost", "x")
        fabric.close()

    def test_lazy_direct_link_created(self):
        fabric = Fabric()
        fabric.register("b", lambda item: None)
        fabric.send("a", "b", "x")
        assert isinstance(fabric.link("a", "b"), DirectLink)
        fabric.close()

    def test_connect_with_bandwidth_is_throttled(self):
        fabric = Fabric()
        fabric.register("b", lambda item: None)
        link = fabric.connect("a", "b", bandwidth=1e6, latency=0.001)
        assert isinstance(link, ThrottledLink)
        fabric.close()

    def test_connect_unknown_destination_raises(self):
        fabric = Fabric()
        with pytest.raises(KeyError):
            fabric.connect("a", "ghost")
        fabric.close()

    def test_bidirectional_creates_both_links(self):
        fabric = Fabric()
        fabric.register("a", lambda item: None)
        fabric.register("b", lambda item: None)
        fabric.connect_bidirectional("a", "b", bandwidth=1e6)
        assert fabric.link("a", "b") is not None
        assert fabric.link("b", "a") is not None
        assert fabric.link("a", "b") is not fabric.link("b", "a")
        fabric.close()

    def test_throttled_send_delivers_asynchronously(self):
        fabric = Fabric()
        received = threading.Event()
        fabric.register("b", lambda item: received.set())
        fabric.connect("a", "b", bandwidth=1e9, latency=0.0)
        fabric.send("a", "b", "payload", nbytes=100)
        assert received.wait(timeout=2)
        fabric.close()

    def test_unregister_removes_node(self):
        fabric = Fabric()
        fabric.register("b", lambda item: None)
        fabric.unregister("b")
        with pytest.raises(KeyError):
            fabric.send("a", "b", "x")
        fabric.close()

    def test_nodes_lists_handlers(self):
        fabric = Fabric()
        fabric.register("a", lambda item: None)
        fabric.register("b", lambda item: None)
        assert sorted(fabric.nodes()) == ["a", "b"]
        fabric.close()

    def test_close_clears_everything(self):
        fabric = Fabric()
        fabric.register("a", lambda item: None)
        fabric.close()
        assert fabric.nodes() == {}

    def test_distinct_links_per_pair(self):
        fabric = Fabric()
        sink_a, sink_b = [], []
        fabric.register("a", sink_a.append)
        fabric.register("b", sink_b.append)
        fabric.send("x", "a", 1)
        fabric.send("x", "b", 2)
        assert sink_a == [1]
        assert sink_b == [2]
        fabric.close()
