"""The one queue family: HeaderQueue and MessageBuffer on a LaneChannel.

Every behaviour that does not depend on a watermark is checked in both
settings — no ``FlowControlSpec`` (no watermarks: nothing sheds, blocks or
expires) and a bounded one — because they are the same code path.
"""

import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core.buffers import MessageBuffer
from repro.core.communicator import HeaderQueue
from repro.core.config import FlowControlSpec
from repro.core.errors import BackpressureError, BufferClosedError
from repro.core.flowcontrol import (
    CONTROL_TYPES,
    never_blocking,
    release_header_shares,
)
from repro.core.message import OBJECT_ID, SEQ, TYPE, MsgType, make_header, make_message
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


#: watermarks no test below reaches unless it builds its own spec
ROOMY = spec(bulk_watermark=512, control_watermark=512)

SETTINGS = pytest.mark.parametrize(
    "flow", [None, ROOMY], ids=["no-spec", "bounded-spec"]
)


def _msg(body=None, msg_type=MsgType.DATA):
    return make_message("explorer", ["learner"], msg_type, body)


def _headers(count, msg_type=MsgType.DATA):
    return [make_header("a", ["b"], msg_type) for _ in range(count)]


@SETTINGS
class TestHeaderQueue:
    def test_put_get(self, flow):
        queue = HeaderQueue("q", flow)
        assert queue.put({"seq": 1}) == 1
        assert queue.get(timeout=1) == {"seq": 1}

    def test_timeout_returns_none(self, flow):
        assert HeaderQueue("q", flow).get(timeout=0.01) is None

    def test_close_wakes_all_waiters(self, flow):
        queue = HeaderQueue("q", flow)
        results = []

        def waiter():
            results.append(queue.get(timeout=5))

        threads = [threading.Thread(target=waiter) for _ in range(3)]
        for thread in threads:
            thread.start()
        time.sleep(0.05)
        queue.close()
        for thread in threads:
            thread.join(timeout=2)
        assert results == [None, None, None]

    def test_put_after_close_is_dropped_and_reclaimed(self, flow):
        reclaimed = []
        queue = HeaderQueue("q", flow, reclaim=reclaimed.append)
        queue.close()
        header = {"seq": 1}
        assert queue.put(header) == 0
        assert queue.get(timeout=0.05) is None
        assert reclaimed == [header]

    def test_event_driven_wakeup_latency(self, flow):
        """The paper's design: a blocked get returns the moment data lands."""
        queue = HeaderQueue("q", flow)
        latency = {}

        def waiter():
            started = time.monotonic()
            queue.get(timeout=5)
            latency["value"] = time.monotonic() - started

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.2)
        queue.put({"seq": 1})
        thread.join(timeout=2)
        # Woke well before the 5s timeout: event-driven, not polled.
        assert latency["value"] < 1.0

    def test_put_many_get_many_roundtrip(self, flow):
        queue = HeaderQueue("q", flow)
        headers = [{"seq": i} for i in range(10)]
        assert queue.put_many(headers) == 10
        assert queue.get_many(10, timeout=1) == headers

    def test_get_many_respects_max_items(self, flow):
        queue = HeaderQueue("q", flow)
        queue.put_many([{"seq": i} for i in range(10)])
        first = queue.get_many(3, timeout=1)
        assert [h["seq"] for h in first] == [0, 1, 2]
        rest = queue.get_many(100, timeout=1)
        assert [h["seq"] for h in rest] == list(range(3, 10))

    def test_put_many_on_closed_queue_reclaims_all(self, flow):
        reclaimed = []
        queue = HeaderQueue("q", flow, reclaim=reclaimed.append)
        queue.close()
        headers = [{"seq": 0}, {"seq": 1}]
        assert queue.put_many(headers) == 0
        assert queue.get_many(10, timeout=0.05) == []
        assert reclaimed == headers

    def test_put_many_empty_is_noop(self, flow):
        queue = HeaderQueue("q", flow)
        assert queue.put_many([]) == 0
        assert queue.qsize() == 0

    def test_close_keeps_queued_headers_for_getters(self, flow):
        queue = HeaderQueue("q", flow)
        queue.put({"seq": 0})
        queue.close()
        assert queue.get_many(10, timeout=1) == [{"seq": 0}]
        assert queue.get(timeout=0.2) is None

    def test_control_overtakes_bulk_fifo_per_lane(self, flow):
        queue = HeaderQueue("q", flow)
        mixed = []
        for index in range(4):
            mixed.extend(_headers(1, MsgType.DATA) + _headers(1, MsgType.WEIGHTS))
        assert queue.put_many(mixed) == 8
        got = queue.get_many(8, timeout=0)
        control = [h for h in mixed if h[TYPE] in CONTROL_TYPES]
        bulk = [h for h in mixed if h[TYPE] not in CONTROL_TYPES]
        assert got == control + bulk

    def test_drain_returns_everything_control_first(self, flow):
        queue = HeaderQueue("q", flow)
        queue.put(make_header("a", ["b"], MsgType.DATA))
        queue.put(make_header("a", ["b"], MsgType.WEIGHTS))
        drained = queue.drain()
        assert [h[TYPE] for h in drained] == [MsgType.WEIGHTS, MsgType.DATA]
        assert queue.qsize() == 0

    def test_lane_depths_and_stats(self, flow):
        queue = HeaderQueue("q", flow)
        queue.put_many(_headers(2) + _headers(1, MsgType.COMMAND))
        assert queue.lane_depths() == {"control": 1, "bulk": 2}
        stats = queue.flow_stats()
        assert stats["bulk_put"] == 2 and stats["control_put"] == 1

    def test_concurrent_producers_lose_nothing(self, flow):
        queue = HeaderQueue("q", flow)
        per_producer = 50

        def producer(tag):
            for index in range(0, per_producer, 5):
                queue.put_many(
                    [{"seq": (tag, index + k), TYPE: MsgType.DATA} for k in range(5)]
                )

        threads = [threading.Thread(target=producer, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        received = queue.get_many(4 * per_producer, timeout=1)
        assert len(received) == 4 * per_producer
        for tag in range(4):
            indices = [h["seq"][1] for h in received if h["seq"][0] == tag]
            assert indices == list(range(per_producer))


class TestHeaderQueueWatermarks:
    def test_no_spec_never_sheds_blocks_or_expires(self):
        reclaimed = []
        queue = HeaderQueue("q", reclaim=reclaimed.append)
        assert queue.put_many(_headers(2000) + _headers(2000, MsgType.COMMAND)) == 4000
        assert queue.qsize() == 4000 and reclaimed == []
        stats = queue.flow_stats()
        assert stats["bulk_shed"] == stats["control_blocked"] == 0
        assert stats["control_expired"] == 0

    def test_shed_headers_reclaimed(self):
        store = InMemoryObjectStore()
        reclaimed = []

        def reclaim(header):
            reclaimed.append(header)
            release_header_shares(store, header)

        queue = HeaderQueue("q", spec(bulk_watermark=2), reclaim=reclaim)
        object_ids = []
        for index in range(4):
            object_id = store.put({"i": index}, refcount=1)
            header = make_header("a", ["b"], MsgType.DATA)
            header[OBJECT_ID] = object_id
            object_ids.append(object_id)
            queue.put(header)
        assert len(reclaimed) == 2  # two oldest shed at watermark 2
        # Their store entries were released; the two newest remain live.
        assert len(store) == 2
        assert store.leak_report()[0][0] in object_ids[2:]

    def test_put_many_returns_accepted_count(self):
        queue = HeaderQueue("q", spec(bulk_watermark=16))
        headers = _headers(5)
        assert queue.put_many(headers) == 5
        queue.close()
        assert queue.put_many(headers) == 0

    def test_backpressure_error_carries_accepted_prefix(self):
        reclaimed = []
        queue = HeaderQueue(
            "q", spec(control_watermark=2, control_deadline_s=0.05),
            reclaim=reclaimed.append,
        )
        headers = _headers(4, MsgType.COMMAND)
        with pytest.raises(BackpressureError) as exc_info:
            queue.put_many(headers)
        assert exc_info.value.accepted == 2  # gated at the watermark
        # The expired header and the untried one behind it: each once.
        assert reclaimed == headers[2:]

    def test_never_blocking_spec_leaves_control_unbounded(self):
        queue = HeaderQueue("q", never_blocking(spec(control_watermark=2)))
        assert queue.put_many(_headers(10, MsgType.COMMAND)) == 10
        assert queue.qsize() == 10
        assert never_blocking(None) is None

    def test_close_wakes_blocked_put_and_join_sees_its_reclaim(self):
        reclaimed = []
        release = threading.Event()

        def slow_reclaim(header):
            release.wait(2)
            reclaimed.append(header)

        queue = HeaderQueue(
            "q", spec(control_watermark=1, control_deadline_s=30.0),
            reclaim=slow_reclaim,
        )
        first, second = _headers(2, MsgType.COMMAND)
        queue.put(first)
        results = []
        thread = threading.Thread(target=lambda: results.append(queue.put(second)))
        thread.start()
        time.sleep(0.05)
        assert queue.join_producers(timeout=0.05) is False  # blocked on admission
        queue.close()
        assert queue.join_producers(timeout=0.05) is False  # still reclaiming
        release.set()
        assert queue.join_producers(timeout=2.0) is True
        thread.join(timeout=2)
        assert results == [0] and reclaimed == [second]


@SETTINGS
class TestMessageBuffer:
    def test_put_get_roundtrip(self, flow):
        buffer = MessageBuffer("b", flow)
        message = _msg(body={"x": 1})
        buffer.put(message)
        out = buffer.get(timeout=1)
        assert out is message

    def test_fifo_order(self, flow):
        buffer = MessageBuffer("b", flow)
        for index in range(10):
            buffer.put(_msg(body=index))
        bodies = [buffer.get(timeout=1).body for _ in range(10)]
        assert bodies == list(range(10))

    def test_get_timeout_returns_none(self, flow):
        buffer = MessageBuffer("b", flow)
        assert buffer.get(timeout=0.01) is None
        assert buffer.get_nowait() is None

    def test_blocking_get_wakes_on_put(self, flow):
        buffer = MessageBuffer("b", flow)
        result = {}

        def getter():
            result["message"] = buffer.get(timeout=2)

        thread = threading.Thread(target=getter)
        thread.start()
        time.sleep(0.05)
        buffer.put(_msg(body="wake"))
        thread.join(timeout=2)
        assert result["message"].body == "wake"

    def test_close_wakes_blocked_getters(self, flow):
        buffer = MessageBuffer("b", flow)
        results = []

        def getter():
            results.append(buffer.get(timeout=5))

        threads = [threading.Thread(target=getter) for _ in range(3)]
        for thread in threads:
            thread.start()
        time.sleep(0.05)
        buffer.close()
        for thread in threads:
            thread.join(timeout=2)
        assert results == [None, None, None]

    def test_put_after_close_raises(self, flow):
        buffer = MessageBuffer("b", flow)
        buffer.close()
        with pytest.raises(BufferClosedError, match="closed"):
            buffer.put(_msg())
        with pytest.raises(RuntimeError):  # what shutdown paths catch
            buffer.put_many([_msg()])

    def test_drain_yields_all_queued(self, flow):
        buffer = MessageBuffer("b", flow)
        for index in range(5):
            buffer.put(_msg(body=index))
        assert [m.body for m in buffer.drain()] == list(range(5))
        assert buffer.empty()

    def test_qsize_and_counters(self, flow):
        buffer = MessageBuffer("b", flow)
        assert buffer.qsize() == 0
        buffer.put(_msg())
        buffer.put(_msg())
        assert buffer.qsize() == 2
        buffer.get(timeout=1)
        stats = buffer.flow_stats()
        assert stats["bulk_put"] == 2
        assert stats["bulk_got"] == 1
        assert stats["bulk_shed"] == 0

    def test_none_body_allowed(self, flow):
        buffer = MessageBuffer("b", flow)
        buffer.put(_msg(body=None))
        assert buffer.get(timeout=1).body is None

    def test_put_many_get_many_roundtrip(self, flow):
        buffer = MessageBuffer("b", flow)
        messages = [_msg({"i": i}) for i in range(6)]
        buffer.put_many(messages)
        assert buffer.get_many(10, timeout=1) == messages

    def test_frame_survives_the_crossing(self, flow):
        from repro.core.serialization import make_frame

        buffer = MessageBuffer("b", flow)
        message = _msg({"k": 1})
        message.frame = make_frame(message.body)
        buffer.put(message)
        assert buffer.get(timeout=1).frame is message.frame

    def test_control_overtakes_bulk(self, flow):
        buffer = MessageBuffer("b", flow)
        buffer.put(_msg(0))
        buffer.put(_msg("w", MsgType.WEIGHTS))
        buffer.put(_msg(1))
        assert [m.body for m in buffer.get_many(10, timeout=0)] == ["w", 0, 1]

    @given(st.lists(st.integers(), min_size=1, max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_property_fifo_preserved(self, flow, bodies):
        buffer = MessageBuffer("b", flow)
        for body in bodies:
            buffer.put(_msg(body=body))
        out = [buffer.get(timeout=1).body for _ in bodies]
        assert out == bodies

    def test_concurrent_producers_lose_nothing(self, flow):
        buffer = MessageBuffer("b", flow)
        per_producer = 50

        def producer(tag):
            for index in range(per_producer):
                buffer.put(_msg(body=(tag, index)))

        threads = [threading.Thread(target=producer, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        received = [buffer.get(timeout=1) for _ in range(4 * per_producer)]
        assert all(message is not None for message in received)
        # Per-producer order is preserved even under interleaving.
        for tag in range(4):
            indices = [m.body[1] for m in received if m.body[0] == tag]
            assert indices == sorted(indices)


class TestMessageBufferWatermarks:
    def test_sheds_bulk_keeps_control(self):
        buffer = MessageBuffer("s", spec(bulk_watermark=2))
        for index in range(5):
            buffer.put(_msg(index, MsgType.ROLLOUT))
        buffer.put(_msg("w", MsgType.WEIGHTS))
        assert buffer.flow_stats()["bulk_shed"] == 3
        got = buffer.get_many(10, timeout=0)
        # Control first, then the two newest rollouts.
        assert [message.body for message in got] == ["w", 3, 4]

    def test_control_put_expires_at_the_deadline(self):
        buffer = MessageBuffer(
            "s", spec(control_watermark=1, control_deadline_s=0.05)
        )
        buffer.put(_msg(0, MsgType.WEIGHTS))
        with pytest.raises(BackpressureError):
            buffer.put(_msg(1, MsgType.WEIGHTS))
        assert buffer.qsize() == 1

    def test_close_wakes_blocked_control_send(self):
        buffer = MessageBuffer(
            "s", spec(control_watermark=1, control_deadline_s=30.0)
        )
        buffer.put(_msg(0, MsgType.WEIGHTS))
        errors = []

        def blocked_send():
            try:
                buffer.put(_msg(1, MsgType.WEIGHTS))
            except BufferClosedError as exc:
                errors.append(exc)

        thread = threading.Thread(target=blocked_send)
        thread.start()
        time.sleep(0.05)
        buffer.close()
        thread.join(timeout=2)
        assert not thread.is_alive()
        assert len(errors) == 1  # clean shutdown error, not a 30 s hang

    def test_never_blocking_spec_leaves_control_unbounded(self):
        buffer = MessageBuffer("r", never_blocking(spec(control_watermark=2)))
        for index in range(10):
            buffer.put(_msg(index, MsgType.WEIGHTS))
        assert buffer.qsize() == 10  # no blocking, no shedding

    def test_on_shed_callback(self):
        lost = []
        buffer = MessageBuffer("r", spec(bulk_watermark=1), on_shed=lost.append)
        buffer.put(_msg("old"))
        buffer.put(_msg("new"))
        assert [message.body for message in lost] == ["old"]


class _SteppingClock:
    """Each reading is a second later: a control deadline expires without
    any real waiting, so a single-threaded model can drive the gate."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


TYPES = st.sampled_from([MsgType.DATA, MsgType.ROLLOUT, MsgType.COMMAND, MsgType.WEIGHTS])


class HeaderQueueMachine(RuleBasedStateMachine):
    """put / put_many / get / get_many / drain / close in any
    order, against what the queue promises whatever its watermarks are."""

    flow = None

    def __init__(self):
        super().__init__()
        self.reclaimed = []
        self.queue = HeaderQueue(
            "q", self.flow, reclaim=self.reclaimed.append, clock=_SteppingClock()
        )
        self.handed = []  # every header given to put/put_many, in order
        self.refused = []  # those the return value / exception said were not enqueued
        self.out = []  # handed out by get/get_many/drain, in that order

    def _make(self, msg_type):
        header = make_header("a", ["b"], msg_type)
        self.handed.append(header)
        return header

    @rule(msg_type=TYPES)
    def put(self, msg_type):
        header = self._make(msg_type)
        try:
            admitted = self.queue.put(header)
        except BackpressureError as exc:
            admitted = exc.accepted
        assert admitted in (0, 1)
        if not admitted:
            self.refused.append(header)

    @rule(types=st.lists(TYPES, max_size=6))
    def put_many(self, types):
        headers = [self._make(msg_type) for msg_type in types]
        try:
            admitted = self.queue.put_many(headers)
        except BackpressureError as exc:
            admitted = exc.accepted
        assert 0 <= admitted <= len(headers)
        self.refused.extend(headers[admitted:])

    @rule()
    def get(self):
        header = self.queue.get(timeout=0)
        if header is not None:
            self.out.append(header)

    @rule(max_items=st.integers(min_value=1, max_value=5))
    def get_many(self, max_items):
        headers = self.queue.get_many(max_items, timeout=0)
        assert len(headers) <= max_items
        self.out.extend(headers)

    @rule()
    def drain(self):
        self.out.extend(self.queue.drain())

    @precondition(lambda self: not self.queue.closed)
    @rule()
    def close(self):
        self.queue.close()

    @invariant()
    def every_header_has_exactly_one_fate(self):
        seqs = lambda headers: [header[SEQ] for header in headers]  # noqa: E731
        reclaimed = seqs(self.reclaimed)
        gone = reclaimed + seqs(self.out)
        assert len(gone) == len(set(gone)), "a header was reclaimed or handed out twice"
        assert set(seqs(self.refused)) <= set(reclaimed), "a refused header was not reclaimed"
        queued = set(seqs(self.handed)) - set(gone)
        assert len(queued) == self.queue.qsize()
        # Shed headers are the only reclaimed ones the producer was told
        # nothing about; the counters must agree with what came back.
        stats = self.queue.flow_stats()
        for lane in ("control", "bulk"):
            in_lane = [
                header for header in self.handed
                if (header[TYPE] in CONTROL_TYPES) == (lane == "control")
            ]
            out = [h for h in self.out if h in in_lane]
            assert seqs(out) == sorted(seqs(out)), f"{lane} lane is not FIFO"
            left = len([h for h in in_lane if h[SEQ] in queued])
            assert stats[f"{lane}_put"] == len(out) + stats[f"{lane}_shed"] + left
        shed = len(reclaimed) - len(self.refused)
        assert stats["bulk_shed"] == shed and stats["control_shed"] == 0
        if self.flow is None:
            assert shed == 0 and stats["control_blocked"] == 0
            assert self.queue.closed or not self.refused

    def teardown(self):
        self.queue.close()
        self.drain()
        self.every_header_has_exactly_one_fate()
        assert self.queue.qsize() == 0
        assert self.queue.join_producers(timeout=0) is True


class BoundedHeaderQueueMachine(HeaderQueueMachine):
    flow = spec(bulk_watermark=3, control_watermark=2, control_deadline_s=0.5)


_MACHINE_SETTINGS = settings(max_examples=60, stateful_step_count=40, deadline=None)
TestHeaderQueueModelNoSpec = HeaderQueueMachine.TestCase
TestHeaderQueueModelNoSpec.settings = _MACHINE_SETTINGS
TestHeaderQueueModelBounded = BoundedHeaderQueueMachine.TestCase
TestHeaderQueueModelBounded.settings = _MACHINE_SETTINGS


@pytest.mark.parametrize(
    "flow",
    [None, spec(bulk_watermark=8, control_watermark=4, control_deadline_s=5.0)],
    ids=["no-spec", "bounded-spec"],
)
def test_close_mid_put_many_keeps_the_store_balanced(flow):
    """Producers racing a close: whatever prefix of a batch got in, the
    queue reclaimed the rest, so releasing what is still queued balances
    the store — with or without watermarks."""
    store = InMemoryObjectStore()
    queue = HeaderQueue(
        "q", flow, reclaim=lambda header: release_header_shares(store, header)
    )
    handed = []
    admitted = []

    def producer(tag):
        for round_ in range(100_000):  # until the close refuses a batch
            batch = []
            for index in range(6):
                msg_type = MsgType.COMMAND if index % 3 == 0 else MsgType.DATA
                header = make_header(f"p{tag}", ["x", "y"], msg_type)
                header[OBJECT_ID] = store.put((tag, round_, index), refcount=2)
                batch.append(header)
            handed.append(len(batch))
            try:
                count = queue.put_many(batch)
            except BackpressureError as exc:
                count = exc.accepted
            admitted.append(count)
            if count < len(batch):
                return

    def consumer():
        while not queue.closed:
            for header in queue.get_many(4, timeout=0.01):
                release_header_shares(store, header)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=producer, args=(t,)) for t in range(4)]
        threads.append(threading.Thread(target=consumer))
        for thread in threads:
            thread.start()
        time.sleep(0.05)
        queue.close()  # producers are mid-batch or blocked on the control gate
        for thread in threads:
            thread.join(timeout=5)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert queue.join_producers(timeout=2.0)
    assert sum(admitted) < sum(handed), "close() landed after every producer finished"
    for header in queue.drain():
        release_header_shares(store, header)
    store.assert_balanced(context="close mid put_many")
