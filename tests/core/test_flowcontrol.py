"""Tests for the overload-control subsystem (docs/FLOW_CONTROL.md).

The queue and buffer built on LaneChannel are covered by test_queues.py.
"""

import threading
import time

import pytest

from repro.core.broker import Broker
from repro.core.config import FlowControlSpec
from repro.core.endpoint import ProcessEndpoint
from repro.core.errors import BackpressureError
from repro.core.flowcontrol import (
    TERMINAL_EXPIRED,
    TERMINAL_REJECTED,
    TERMINAL_SHED,
    Lane,
    LaneChannel,
    lane_of,
    release_header_shares,
)
from repro.core.message import (
    DST,
    OBJECT_ID,
    SRC,
    TYPE,
    MsgType,
    make_header,
    make_message,
)
from repro.core.object_store import InMemoryObjectStore


def spec(**overrides) -> FlowControlSpec:
    base = dict(
        bulk_watermark=4,
        control_watermark=3,
        low_fraction=0.5,
        control_deadline_s=0.2,
    )
    base.update(overrides)
    return FlowControlSpec(**base)


class TestLanes:
    def test_control_types(self):
        for msg_type in (
            MsgType.WEIGHTS, MsgType.COMMAND, MsgType.HEARTBEAT, MsgType.STATS
        ):
            assert lane_of(msg_type) is Lane.CONTROL
        for msg_type in (MsgType.ROLLOUT, MsgType.DATA, MsgType.BATCH):
            assert lane_of(msg_type) is Lane.BULK

    def test_unknown_type_defaults_to_bulk(self):
        assert lane_of("no-such-type") is Lane.BULK
        assert lane_of(None) is Lane.BULK


class TestLaneChannel:
    def make(self, **kwargs):
        self.drops = []
        defaults = dict(
            bulk_watermark=4, control_watermark=3,
            on_drop=lambda outcome, entries: self.drops.append(
                (outcome, list(entries))
            ),
        )
        defaults.update(kwargs)
        return LaneChannel("test", **defaults)

    def test_raw_type_values_pick_the_lane(self):
        assert lane_of("weights") is Lane.CONTROL
        assert lane_of("rollout") is Lane.BULK
        assert lane_of(["unhashable"]) is Lane.BULK

    def test_no_watermarks_is_unbounded(self):
        channel = LaneChannel("test")
        lanes = [Lane.BULK, Lane.CONTROL] * 500
        assert channel.offer_many(list(range(1000)), lanes) == 1000
        assert channel.lane_depths() == {"control": 500, "bulk": 500}
        assert channel.flow_stats()["bulk_shed"] == 0

    def test_bulk_sheds_oldest_at_watermark(self):
        channel = self.make()
        for index in range(7):
            assert channel.offer(index, Lane.BULK)
        # Watermark 4: the three oldest were shed, the four newest remain.
        assert self.drops == [(TERMINAL_SHED, [i]) for i in (0, 1, 2)]
        assert [channel.take(timeout=0) for _ in range(4)] == [3, 4, 5, 6]

    def test_offer_many_sheds_once_per_batch(self):
        channel = self.make()
        assert channel.offer_many(list(range(7)), [Lane.BULK] * 7) == 7
        assert self.drops == [(TERMINAL_SHED, [0, 1, 2])]
        assert channel.take_many(10, timeout=0) == [3, 4, 5, 6]

    def test_control_drains_before_bulk(self):
        channel = self.make()
        channel.offer("bulk-1", Lane.BULK)
        channel.offer("ctrl", Lane.CONTROL)
        channel.offer("bulk-2", Lane.BULK)
        assert channel.take(timeout=0) == "ctrl"
        assert channel.take(timeout=0) == "bulk-1"

    def test_fifo_within_each_lane(self):
        channel = self.make(bulk_watermark=16, control_watermark=16)
        for index in range(4):
            channel.offer(("b", index), Lane.BULK)
            channel.offer(("c", index), Lane.CONTROL)
        drained = channel.take_many(8, timeout=0)
        assert drained == [("c", 0), ("c", 1), ("c", 2), ("c", 3),
                           ("b", 0), ("b", 1), ("b", 2), ("b", 3)]

    def test_take_many_splits_a_lane_at_max_items(self):
        channel = self.make(bulk_watermark=16, control_watermark=16)
        channel.offer_many(
            ["c0", "c1", "b0", "b1", "b2"],
            [Lane.CONTROL] * 2 + [Lane.BULK] * 3,
        )
        assert channel.take_many(3, timeout=0) == ["c0", "c1", "b0"]
        assert channel.take_many(0, timeout=0) == ["b1"]  # at least one
        assert channel.take_many(5, timeout=0) == ["b2"]
        assert channel.take_many(5, timeout=0) == []

    def test_control_deadline_expires(self):
        channel = self.make(control_watermark=2)
        channel.offer("c1", Lane.CONTROL)
        channel.offer("c2", Lane.CONTROL)  # at the high watermark: gated
        started = time.monotonic()
        with pytest.raises(BackpressureError):
            channel.offer("c3", Lane.CONTROL, deadline_s=0.05)
        assert time.monotonic() - started < 2.0
        stats = channel.flow_stats()
        assert stats["control_expired"] == 1
        assert stats["control_blocked"] == 1
        assert self.drops == [(TERMINAL_EXPIRED, ["c3"])]

    def test_expiry_mid_batch_hands_back_the_rest(self):
        channel = self.make(control_watermark=2)
        items = ["b0", "c1", "c2", "c3", "b4"]
        lanes = [Lane.BULK, Lane.CONTROL, Lane.CONTROL, Lane.CONTROL, Lane.BULK]
        with pytest.raises(BackpressureError) as exc_info:
            channel.offer_many(items, lanes, deadline_s=0.05)
        assert exc_info.value.accepted == 3
        assert self.drops == [
            (TERMINAL_EXPIRED, ["c3"]), (TERMINAL_REJECTED, ["b4"])
        ]
        assert channel.take_many(10, timeout=0) == ["c1", "c2", "b0"]

    def test_control_unblocks_below_low_watermark(self):
        channel = self.make(control_watermark=2, low_fraction=0.5)
        channel.offer("c1", Lane.CONTROL)
        channel.offer("c2", Lane.CONTROL)
        admitted = []

        def blocked_put():
            admitted.append(channel.offer("c3", Lane.CONTROL, deadline_s=5.0))

        thread = threading.Thread(target=blocked_put)
        thread.start()
        time.sleep(0.05)
        assert not admitted  # still gated
        # Hysteresis: draining to the low watermark (1 <= 2*0.5) releases.
        assert channel.take(timeout=0) == "c1"
        thread.join(timeout=2)
        assert admitted == [True]
        channel.close()

    def test_blocked_batch_announces_what_it_already_queued(self):
        # The consumer only drains the gate open if it hears of the entries
        # queued before the batch blocked.
        channel = self.make(control_watermark=2, low_fraction=0.5)
        got = []
        consumer = threading.Thread(
            target=lambda: got.extend(
                channel.take(timeout=5) for _ in range(3)
            )
        )
        consumer.start()
        time.sleep(0.05)  # consumer is waiting on an empty channel
        assert channel.offer_many(
            ["c1", "c2", "c3"], [Lane.CONTROL] * 3, deadline_s=5.0
        ) == 3
        consumer.join(timeout=5)
        assert got == ["c1", "c2", "c3"]

    def test_close_wakes_blocked_control_producer(self):
        channel = self.make(control_watermark=1)
        channel.offer("c1", Lane.CONTROL)
        results = []

        def blocked_put():
            results.append(channel.offer("c2", Lane.CONTROL, deadline_s=30.0))

        thread = threading.Thread(target=blocked_put)
        thread.start()
        time.sleep(0.05)
        channel.close()
        thread.join(timeout=2)
        assert not thread.is_alive(), "close() must wake blocked producers"
        assert results == [False]  # woken with a clean rejection
        assert self.drops == [(TERMINAL_REJECTED, ["c2"])]

    def test_lane_depths_and_stats(self):
        channel = self.make()
        channel.offer("b", Lane.BULK)
        channel.offer("c", Lane.CONTROL)
        assert channel.lane_depths() == {"control": 1, "bulk": 1}
        stats = channel.flow_stats()
        assert stats["bulk_put"] == 1 and stats["control_put"] == 1


class TestDegenerateSetting:
    def test_no_spec_is_the_same_classes_without_watermarks(self):
        plain = Broker("b")
        bounded = Broker("f", flow=spec())
        endpoint = ProcessEndpoint("p", plain)
        assert type(plain.communicator.header_queue) is type(
            bounded.communicator.header_queue
        )
        assert endpoint.flow is None
        queue = plain.communicator.header_queue
        assert queue.put_many(
            [make_header("a", ["p"], MsgType.COMMAND) for _ in range(1000)]
        ) == 1000  # far past any default watermark: nothing blocked
        assert plain.communicator.flow_stats()["headers"]["control_blocked"] == 0
        plain.communicator.close()
        bounded.communicator.close()

    def test_disabled_spec_means_no_watermarks(self):
        # None is the one off switch: a spec has no ``enabled`` field.
        with pytest.raises(TypeError):
            FlowControlSpec(enabled=False)
        broker = Broker("b", flow=None)
        assert broker.flow is None
        assert broker.communicator.flow is None
        broker.communicator.close()


class TestFlowEndToEnd:
    def run_broker(self, flow, n_bulk=20, n_control=1):
        broker = Broker("b", flow=flow)
        broker.start()
        alice = ProcessEndpoint("alice", broker)
        bob = ProcessEndpoint("bob", broker)
        alice.start()
        bob.start()
        try:
            for index in range(n_bulk):
                alice.send(make_message("alice", ["bob"], MsgType.DATA, index))
            for index in range(n_control):
                alice.send(
                    make_message("alice", ["bob"], MsgType.WEIGHTS, f"w{index}")
                )
            got = []
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                message = bob.receive(timeout=0.2)
                if message is None:
                    if got:
                        break
                    continue
                got.append(message)
            return got, broker
        finally:
            alice.stop()
            bob.stop()
            broker.stop()

    def test_delivery_with_flow_enabled(self):
        got, broker = self.run_broker(spec(bulk_watermark=256))
        bodies = [m.body for m in got if m.msg_type is MsgType.DATA]
        assert bodies == list(range(20))  # per-lane FIFO intact
        assert any(m.msg_type is MsgType.WEIGHTS for m in got)

    def test_overload_sheds_bulk_but_delivers_control(self):
        got, broker = self.run_broker(spec(bulk_watermark=4), n_bulk=64)
        assert any(m.msg_type is MsgType.WEIGHTS for m in got)
        # Bounded admission: far fewer than 64 bulk messages arrive, and
        # the refcount audit at broker.stop() (runtime checks are on for
        # the whole suite) proves the shed bodies were reclaimed.
        bulk = [m for m in got if m.msg_type is MsgType.DATA]
        assert len(bulk) < 64

    def test_broker_stop_wakes_blocked_sender(self):
        # Regression (PR 6 satellite): a sender blocked on control-lane
        # admission at Broker.stop() must observe a clean shutdown, not
        # hang until its deadline.
        flow = spec(control_watermark=2, control_deadline_s=60.0)
        broker = Broker("b", flow=flow)
        broker.register_process("sink")  # routable, but never drained
        # The broker is never started: its router thread never drains the
        # header queue, so control admission backs up exactly as it would
        # behind a stalled router.
        # Fill the control lane to its watermark without blocking (the
        # gate trips once depth reaches the watermark).
        for _ in range(2):
            assert broker.communicator.header_queue.put(
                make_header("x", ["sink"], MsgType.COMMAND)
            )
        alice = ProcessEndpoint("alice", broker)
        alice.start()
        alice.send(make_message("alice", ["sink"], MsgType.COMMAND, 0))
        time.sleep(0.2)  # let the sender thread block on admission
        started = time.monotonic()
        alice.stop(timeout=1.0)  # sender still blocked: join times out
        broker.stop()  # wakes the sender; audits after join_producers()
        elapsed = time.monotonic() - started
        assert elapsed < 10.0, (
            f"shutdown took {elapsed:.1f}s: blocked sender was not woken"
        )


class TestReleaseHeaderShares:
    def test_releases_full_fanout(self):
        store = InMemoryObjectStore()
        object_id = store.put("body", refcount=3)
        header = {SRC: "a", DST: ["x", "y", "z"], TYPE: MsgType.DATA,
                  OBJECT_ID: object_id}
        release_header_shares(store, header)
        assert len(store) == 0

    def test_single_share(self):
        store = InMemoryObjectStore()
        object_id = store.put("body", refcount=2)
        header = {SRC: "a", DST: ["x", "y"], TYPE: MsgType.DATA,
                  OBJECT_ID: object_id}
        release_header_shares(store, header, shares=1)
        assert store.leak_report()[0][1] == 1

    def test_tolerates_missing_object(self):
        store = InMemoryObjectStore()
        header = {SRC: "a", DST: ["x"], TYPE: MsgType.DATA,
                  OBJECT_ID: "gone-1"}
        release_header_shares(store, header)  # must not raise
