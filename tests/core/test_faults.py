"""Unit tests for the fault-injection harness (repro.testing.faults)."""

import threading

import pytest

from repro.core.broker import Broker
from repro.core.config import CoalescingSpec
from repro.core.endpoint import ProcessEndpoint
from repro.core.message import MsgType, make_message
from repro.testing.faults import (
    CrashingAgent,
    FaultSpec,
    FaultyFabric,
    FaultyLink,
    Fuse,
    HangingAgent,
)
from repro.transport.link import DirectLink


class Collector:
    def __init__(self):
        self.items = []

    def __call__(self, item):
        self.items.append(item)


def make_link(spec, seed=0):
    collector = Collector()
    import random

    link = FaultyLink(DirectLink(collector), spec, random.Random(seed))
    return link, collector


class TestFaultSpec:
    def test_rejects_non_probabilities(self):
        with pytest.raises(ValueError):
            FaultSpec(drop=1.5).validate()
        with pytest.raises(ValueError):
            FaultSpec(delay_s=-1).validate()


class TestFaultyLink:
    def test_no_faults_is_passthrough(self):
        link, collector = make_link(FaultSpec())
        for index in range(10):
            link.send(index)
        assert collector.items == list(range(10))
        assert link.dropped == link.duplicated == link.reordered == 0

    def test_drop_rate_is_deterministic_under_seed(self):
        counts = []
        for _ in range(2):
            link, collector = make_link(FaultSpec(drop=0.3), seed=7)
            for index in range(200):
                link.send(index)
            counts.append((link.dropped, tuple(collector.items)))
        assert counts[0] == counts[1]
        dropped = counts[0][0]
        assert 0 < dropped < 200
        assert len(counts[0][1]) == 200 - dropped

    def test_duplicate_emits_item_twice(self):
        link, collector = make_link(FaultSpec(duplicate=1.0))
        link.send("a")
        assert collector.items == ["a", "a"]
        assert link.duplicated == 1

    def test_reorder_swaps_adjacent_items(self):
        link, collector = make_link(FaultSpec(reorder=1.0))
        link.send("first")  # held back
        assert collector.items == []
        link.send("second")  # emitted, then the held item follows
        assert collector.items == ["second", "first"]

    def test_flush_releases_held_item_on_close(self):
        link, collector = make_link(FaultSpec(reorder=1.0))
        link.send("only")
        assert collector.items == []
        link.close()
        assert collector.items == ["only"]

    def test_delay_applies_sleep(self):
        import time

        link, collector = make_link(FaultSpec(delay=1.0, delay_s=0.02))
        started = time.monotonic()
        link.send("x")
        assert time.monotonic() - started >= 0.02
        assert collector.items == ["x"]
        assert link.delayed == 1


class TestFaultyFabric:
    def test_links_are_wrapped_and_counted(self):
        fabric = FaultyFabric(spec=FaultSpec(drop=0.5), seed=3)
        received = Collector()
        fabric.register("a", lambda item: None)
        fabric.register("b", received)
        for index in range(100):
            fabric.send("a", "b", index)
        counts = fabric.fault_counts()
        assert counts["sent"] == 100
        assert 0 < counts["dropped"] < 100
        assert len(received.items) == 100 - counts["dropped"]
        fabric.close()

    def test_explicit_connect_is_also_wrapped(self):
        fabric = FaultyFabric(spec=FaultSpec(drop=1.0), seed=0)
        received = Collector()
        fabric.register("b", received)
        fabric.connect("a", "b")
        fabric.send("a", "b", "item")
        assert received.items == []
        assert fabric.fault_counts()["dropped"] == 1
        fabric.close()

    def test_deterministic_across_runs(self):
        outcomes = []
        for _ in range(2):
            fabric = FaultyFabric(spec=FaultSpec(drop=0.4), seed=11)
            received = Collector()
            fabric.register("b", received)
            for index in range(50):
                fabric.send("a", "b", index)
            outcomes.append(tuple(received.items))
            fabric.close()
        assert outcomes[0] == outcomes[1]

    def test_carries_real_traffic_between_brokers(self):
        """End-to-end: a lossy fabric still delivers (some) messages and the
        brokers survive the losses.  The fabric drops wire items, so the
        sender stages one header per message for the counts to compare."""
        fabric = FaultyFabric(spec=FaultSpec(drop=0.2), seed=5)
        broker_a = Broker(
            "brokerA", fabric=fabric, on_unroutable="drop",
            coalescing=CoalescingSpec(max_batch=1),
        )
        broker_b = Broker("brokerB", fabric=fabric, on_unroutable="drop")
        broker_a.add_remote_route("bob", "brokerB")
        broker_a.start()
        broker_b.start()
        alice = ProcessEndpoint("alice", broker_a)
        bob = ProcessEndpoint("bob", broker_b)
        alice.start()
        bob.start()
        try:
            total = 50
            for index in range(total):
                alice.send(make_message("alice", ["bob"], MsgType.DATA, index))
            received = []
            while True:
                message = bob.receive(timeout=0.5)
                if message is None:
                    break
                received.append(message.body)
            dropped = fabric.fault_counts()["dropped"]
            assert dropped > 0
            assert len(received) == total - dropped
            # Survivors arrive in order (drops don't scramble the stream).
            assert received == sorted(received)
        finally:
            alice.stop()
            bob.stop()
            broker_a.stop()
            broker_b.stop()
            fabric.close()


class TestFuse:
    def test_pops_exactly_once(self):
        fuse = Fuse()
        assert fuse.pop()
        assert not fuse.pop()
        assert fuse.blown

    def test_unarmed_never_pops(self):
        fuse = Fuse(armed=False)
        assert not fuse.pop()
        assert not fuse.blown

    def test_thread_safety(self):
        fuse = Fuse()
        wins = []
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait()
            if fuse.pop():
                wins.append(1)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(wins) == 1


class FakeAgent:
    def __init__(self):
        self.fragments = 0
        self.completed_episodes = 0

    def run_fragment(self, fragment_steps):
        self.fragments += 1
        return {"reward": [0.0] * fragment_steps}, []

    def set_weights(self, weights):
        self.weights = weights


class TestAgentWrappers:
    def test_crashing_agent_crashes_on_nth_call(self):
        agent = CrashingAgent(FakeAgent(), crash_after=3)
        agent.run_fragment(4)
        agent.run_fragment(4)
        with pytest.raises(RuntimeError, match="injected"):
            agent.run_fragment(4)

    def test_fuse_shared_between_agents_crashes_only_one(self):
        fuse = Fuse()
        first = CrashingAgent(FakeAgent(), crash_after=1, fuse=fuse)
        second = CrashingAgent(FakeAgent(), crash_after=1, fuse=fuse)
        with pytest.raises(RuntimeError):
            first.run_fragment(4)
        second.run_fragment(4)  # fuse already blown: runs clean
        assert second.inner.fragments == 1

    def test_delegates_attributes_to_inner(self):
        inner = FakeAgent()
        agent = CrashingAgent(inner, crash_after=99)
        agent.set_weights([1, 2])
        assert inner.weights == [1, 2]
        assert agent.completed_episodes == 0

    def test_hanging_agent_stalls_until_released(self):
        import time

        release = threading.Event()
        agent = HangingAgent(FakeAgent(), hang_after=1, hang_s=30.0, release=release)
        done = threading.Event()

        def run():
            agent.run_fragment(4)
            done.set()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        time.sleep(0.05)
        assert agent.hung and not done.is_set()
        release.set()
        assert done.wait(timeout=2)
