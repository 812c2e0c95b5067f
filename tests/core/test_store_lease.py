"""The leased side of ``SharedMemoryObjectStore.get``.

A body of at least ``LEASE_MIN_BYTES`` comes back as read-only arrays over
its arena block and holds one share of the entry until its last array dies.
What must hold: a block is allocated exactly as long as a destination share
or a live leased body needs it, every audit counts a lease as a share, and
nothing on the other side of the constant — small, compressed or
overflow-segment entries — changed.  (The small-body tests in
``test_object_store.py``, ``test_sanitizer.py`` and ``test_coalescing.py``
pin that copy side.)
"""

from __future__ import annotations

import gc
import sys
import time
import weakref

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core.arena import ArenaError, SlabArena
from repro.core.broker import Broker
from repro.core.compression import CompressionPolicy
from repro.core.concurrency import spawn_thread
from repro.core.endpoint import ProcessEndpoint
from repro.core.errors import RefcountLeakError
from repro.core.message import MsgType, make_message
from repro.core.object_store import LEASE_MIN_BYTES, SharedMemoryObjectStore
from repro.nn.network import mlp

pytestmark = pytest.mark.skipif(
    sys.platform == "win32", reason="POSIX shared memory semantics assumed"
)

MIB = 1 << 20


def _sanitized_store(**arena_options) -> SharedMemoryObjectStore:
    return SharedMemoryObjectStore(
        arena=SlabArena(name="lease-test", sanitize=True, **arena_options)
    )


def _payload(nbytes: int, salt: int) -> np.ndarray:
    return (np.arange(nbytes, dtype=np.uint32) * 31 + salt).astype(np.uint8)


def _receive(store, object_id):
    """What a receiver thread does: fetch, then release its share at once."""
    try:
        return store.get(object_id)
    finally:
        store.release(object_id)


#: payload sizes whose stored size (payload + frame header) falls on either
#: side of the constant
SIZES = (1024, LEASE_MIN_BYTES - 1024, LEASE_MIN_BYTES, LEASE_MIN_BYTES + 4096)


class LeaseMachine(RuleBasedStateMachine):
    """put(refcount n) / get / release / drop-body / ``gc.collect()`` against
    a model of who still needs each entry, sanitizer on.

    Poison-on-free turns a block freed under a live body into a content
    mismatch; the count-based export turns it into an ``ArenaError``.
    """

    def __init__(self):
        super().__init__()
        # Only the collect() rule may break a cycle: the model has to know
        # whether a body dropped inside one is still alive.
        self._gc_was_enabled = gc.isenabled()
        gc.disable()
        self.store = _sanitized_store(quarantine_depth=2)
        self.arena = self.store.arena
        self.puts = 0
        self.expected = {}  # object ID -> the array that was put
        self.stored = {}  # object ID -> stored size
        #: object ID -> destination shares not yet released, in put order:
        #: rules draw from that order, never from the IDs' own, which come
        #: from a process-wide counter and so differ between replays
        self.shares = {}
        #: object ID -> weak references to the leased bodies handed out
        self.leases = {}
        self.bodies = []  # (object ID, body) still held by a consumer

    # -- actions --------------------------------------------------------------
    @precondition(lambda self: len(self.shares) < 6)
    @rule(nbytes=st.sampled_from(SIZES), refcount=st.integers(1, 3))
    def put(self, nbytes, refcount):
        self.puts += 1
        body = _payload(nbytes, self.puts)
        object_id = self.store.put(body, refcount=refcount)
        self._track(object_id, body, refcount)

    def _track(self, object_id, body, refcount):
        self.expected[object_id] = body
        self.stored[object_id] = dict(
            (entry, size) for entry, _, size in self.store.leak_report()
        )[object_id]
        self.shares[object_id] = refcount
        self.leases[object_id] = []

    @precondition(lambda self: self.shares)
    @rule(data=st.data())
    def get(self, data):
        object_id = data.draw(st.sampled_from(list(self.shares)))
        body = self.store.get(object_id)
        if self.stored[object_id] >= LEASE_MIN_BYTES:
            assert not body.flags.writeable
            self.leases[object_id].append(weakref.ref(body))
        else:
            assert body.flags.writeable and body.base is not None
            assert not np.shares_memory(body, self.expected[object_id])
        self.bodies.append((object_id, body))

    @precondition(lambda self: self.shares)
    @rule(data=st.data())
    def release(self, data):
        object_id = data.draw(st.sampled_from(list(self.shares)))
        self.store.release(object_id)
        self.shares[object_id] -= 1
        if not self.shares[object_id]:
            del self.shares[object_id]

    @precondition(lambda self: self.bodies)
    @rule(data=st.data(), in_cycle=st.booleans())
    def drop_body(self, data, in_cycle):
        index = data.draw(st.integers(0, len(self.bodies) - 1))
        _, body = self.bodies.pop(index)
        if in_cycle:
            # Garbage only the cyclic collector can free: the release hook
            # then runs inside gc.collect(), not at a refcount of zero.
            cycle = [body]
            cycle.append(cycle)

    @rule()
    def collect(self):
        gc.collect()

    # -- the model --------------------------------------------------------------
    def _needed(self):
        """object ID -> shares + live leased bodies, where that is positive."""
        needed = {}
        for object_id, refs in self.leases.items():
            count = self.shares.get(object_id, 0) + sum(
                ref() is not None for ref in refs
            )
            if count:
                needed[object_id] = count
        return needed

    @invariant()
    def a_block_is_allocated_iff_somebody_needs_it(self):
        needed = self._needed()
        report = self.store.leak_report()
        assert {entry: count for entry, count, _ in report} == needed
        assert self.store.outstanding_refcounts == sum(needed.values())
        assert self.store.used_bytes == sum(self.stored[entry] for entry in needed)
        assert len(self.store) == len(needed)
        stats = self.store.arena_stats()
        assert stats["allocated_blocks"] == len(needed)
        assert stats["live_exports"] == sum(
            ref() is not None for refs in self.leases.values() for ref in refs
        )

    @invariant()
    def every_live_body_still_reads_what_was_put(self):
        for object_id, body in self.bodies:
            assert np.array_equal(body, self.expected[object_id])

    def teardown(self):
        try:
            for object_id, count in list(self.shares.items()):
                for _ in range(count):
                    self.store.release(object_id)
            self.shares.clear()
            self.bodies.clear()
            gc.collect()
            assert self.store.leak_report() == []
            self.arena.assert_balanced(context="lease model")
            self.store.close(audit=True)
        finally:
            self.store.close()
            if self._gc_was_enabled:
                gc.enable()


TestLeaseModel = LeaseMachine.TestCase
TestLeaseModel.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)


class TestFanOut:
    def test_four_readers_share_one_block(self):
        store = _sanitized_store()
        try:
            weights = _payload(MIB, 1)
            object_id = store.put(weights, refcount=4)
            bodies = [_receive(store, object_id) for _ in range(4)]
            # All destination shares are gone; the four leases remain.
            (entry,) = store.leak_report()
            assert entry[:2] == (object_id, 4)
            other = store.put(_payload(MIB, 2))  # must not recycle the block
            try:
                assert store.arena_stats()["allocated_blocks"] == 2
            finally:
                store.release(other)
            while bodies:
                assert store.arena_stats()["allocated_blocks"] == 1
                assert all(np.array_equal(body, weights) for body in bodies)
                bodies.pop()
            assert store.arena_stats()["allocated_blocks"] == 0
            assert store.leak_report() == []
        finally:
            store.close(audit=True)

    def test_views_share_memory_no_copy(self):
        store = _sanitized_store()
        try:
            object_id = store.put(_payload(MIB, 3), refcount=2)
            first, second = [_receive(store, object_id) for _ in range(2)]
            assert np.shares_memory(first, second)
            del first, second
            assert len(store) == 0
        finally:
            store.close(audit=True)


class TestReleaseHook:
    @pytest.mark.parametrize("held", ["store", "arena"])
    def test_cycle_collected_under_a_held_lock(self, held):
        """The hook may run inside the cyclic GC on a thread that already
        holds the store's or the arena's lock: it must take neither."""
        store = _sanitized_store()
        outcome = []

        def collect_under_lock():
            lock = store._lock if held == "store" else store.arena._lock
            with lock:
                outcome.append(gc.collect())

        object_id = store.put(_payload(MIB, 4))
        cycle = [_receive(store, object_id)]
        cycle.append(cycle)
        del cycle
        assert len(store) == 1  # the lease, until the collector runs
        thread = spawn_thread(f"collect-under-{held}-lock", collect_under_lock)
        thread.join(timeout=10.0)
        # Checked before anything touches the store again: a hung thread
        # still holds the lock every store call needs.
        assert not thread.is_alive(), "release hook deadlocked on a held lock"
        try:
            assert outcome, "gc.collect() raised under the lock"
            assert store.leak_report() == []
            store.arena.assert_balanced(context="after collection")
        finally:
            store.close()


class TestLeasedBodyContract:
    def test_leased_array_is_read_only(self):
        store = _sanitized_store()
        try:
            object_id = store.put(np.zeros(LEASE_MIN_BYTES // 8))
            body = _receive(store, object_id)
            with pytest.raises(ValueError, match="read-only"):
                body[0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                body += 1.0
            del body
        finally:
            store.close(audit=True)

    def test_set_weights_from_a_leased_body(self):
        network = mlp([256, 256, 8], rng=np.random.default_rng(0))
        source = mlp([256, 256, 8], rng=np.random.default_rng(1))
        store = _sanitized_store()
        try:
            object_id = store.put(source.get_weights())
            weights = _receive(store, object_id)
            assert not any(weight.flags.writeable for weight in weights)
            network.set_weights(weights)
            del weights
            assert store.leak_report() == []  # set_weights copied in
            for ours, theirs in zip(network.params, source.params):
                assert np.array_equal(ours, theirs)
                assert ours.flags.writeable
        finally:
            store.close(audit=True)

    def test_body_without_arrays_holds_no_lease_past_get(self):
        store = _sanitized_store()
        try:
            object_id = store.put(b"x" * MIB)  # pickled in band: loads copies it
            body = _receive(store, object_id)
            assert body == b"x" * MIB
            assert len(store) == 0  # nothing of the body reads the block
        finally:
            store.close(audit=True)


def _assert_independent(body, expected):
    assert body.flags.writeable
    body += 1  # the entry it was copied out of is already freed
    assert np.array_equal(body, expected + 1)


class TestCopySideUnchanged:
    """Compressed and overflow-segment entries are copied out whatever
    their size: writable, independent, no share."""

    def test_compressed_entry(self):
        store = SharedMemoryObjectStore(
            compression=CompressionPolicy(threshold=128),
            arena=SlabArena(name="lease-test", sanitize=True),
        )
        try:
            zeros = np.zeros(MIB, dtype=np.uint8)
            object_id = store.put(zeros)
            body = _receive(store, object_id)
            assert len(store) == 0  # the body took no share
            assert store.total_segment_put == 1
            _assert_independent(body, zeros)
        finally:
            store.close(audit=True)

    def test_overflow_segment_entry(self):
        store = _sanitized_store(
            min_block=2 * MIB, max_block=2 * MIB, slab_blocks=1,
            capacity_bytes=2 * MIB,
        )
        try:
            first = store.put(_payload(MIB, 5))  # takes the only block
            try:
                payload = _payload(MIB, 6)
                second = store.put(payload)  # arena exhausted: overflow segment
                body = _receive(store, second)
                assert len(store) == 1  # first; the body took no share
                assert store.total_overflow_put == 1
                _assert_independent(body, payload)
            finally:
                store.release(first)
        finally:
            store.close(audit=True)

    def test_just_below_the_constant(self):
        store = _sanitized_store()
        try:
            payload = _payload(LEASE_MIN_BYTES - 1024, 7)
            object_id = store.put(payload)
            body = _receive(store, object_id)
            assert len(store) == 0  # the body took no share
            _assert_independent(body, payload)
        finally:
            store.close(audit=True)


class TestAudits:
    def test_leak_report_names_an_entry_held_only_by_leases(self):
        store = _sanitized_store()
        try:
            object_id = store.put(_payload(MIB, 8))
            body = _receive(store, object_id)
            (leak,) = store.leak_report()
            assert leak[:2] == (object_id, 1)
            with pytest.raises(RefcountLeakError) as caught:
                store.assert_balanced(context="test")
            assert object_id in str(caught.value)
            del body
            store.assert_balanced(context="test")
        finally:
            store.close(audit=True)

    def test_close_with_a_live_lease_raises_under_the_sanitizer(self):
        store = _sanitized_store()
        object_id = store.put(_payload(MIB, 9))
        body = _receive(store, object_id)
        try:
            with pytest.raises(ArenaError, match="live exported view"):
                store.close(audit=True)
            assert body[0] == _payload(1, 9)[0]  # the slabs are still mapped
        finally:
            del body
            store.close()
        assert store.arena.closed

    def test_arena_free_under_a_live_lease_raises(self):
        store = _sanitized_store()
        try:
            object_id = store.put(_payload(MIB, 10))
            body = _receive(store, object_id)
            (block,) = store.arena._allocated.values()
            with pytest.raises(ArenaError, match="live exported view"):
                store.arena.free(block)
            del body
            assert store.leak_report() == []
        finally:
            store.close(audit=True)


class TestDictOfArraysBody:
    def test_the_last_array_alive_pins_the_block(self, monkeypatch):
        """A rollout-shaped body (a dict of arrays, array-framed) is leased
        whole: its block stays allocated, and cannot be freed, until the
        last of its arrays dies — whichever that is."""
        monkeypatch.setenv("REPRO_RUNTIME_CHECKS", "1")
        store = SharedMemoryObjectStore()
        assert store.arena.sanitizing
        body = {
            "obs": _payload(LEASE_MIN_BYTES, 11),
            "action": np.arange(64, dtype=np.int64),
            "reward": np.linspace(0.0, 1.0, 64, dtype=np.float32),
        }
        try:
            object_id = store.put(body)
            fetched = _receive(store, object_id)
            assert list(fetched) == list(body)
            assert not any(array.flags.writeable for array in fetched.values())
            assert all(np.array_equal(fetched[key], body[key]) for key in body)
            # Drop the dict and all but one array; keep the small "reward".
            arrays = [fetched.pop("obs"), fetched.pop("action")]
            last = fetched.pop("reward")
            del fetched
            arrays.clear()
            assert store.arena_stats()["allocated_blocks"] == 1
            (block,) = store.arena._allocated.values()
            with pytest.raises(ArenaError, match="live exported view"):
                store.arena.free(block)
            assert np.array_equal(last, body["reward"])
            del last
            assert store.arena_stats()["allocated_blocks"] == 0
            assert store.leak_report() == []
        finally:
            store.close(audit=True)


class TestStoppedEndpointPinsNothing:
    def test_parked_deliveries_are_dropped_at_stop(self):
        store = _sanitized_store()
        broker = Broker("lease-broker", store=store)
        broker.start()
        alice = ProcessEndpoint("alice", broker)
        bob = ProcessEndpoint("bob", broker)
        alice.start()
        bob.start()
        try:
            for salt in range(3):
                alice.send(
                    make_message("alice", ["bob"], MsgType.DATA, _payload(MIB, salt))
                )
            deadline = time.monotonic() + 10.0
            while bob.receive_buffer.qsize() < 3 and time.monotonic() < deadline:
                time.sleep(0.005)
            assert bob.receive_buffer.qsize() == 3, "deliveries never landed"
            # Delivered, never consumed: each parked body leases its block.
            assert store.arena_stats()["allocated_blocks"] == 3
        finally:
            bob.stop()
            alice.stop()
        assert store.leak_report() == []
        store.arena.assert_balanced(context="stopped endpoint")
        broker.stop()  # runs the refcount and arena audits itself
