"""Runtime concurrency checkers: lock-order monitor and refcount auditor.

Lock-order tests use *private* :class:`LockOrderMonitor` instances so seeded
cycles never pollute the global monitor (which the session-wide conftest
guard asserts stays clean).
"""

from __future__ import annotations

import time

import pytest

from repro.analysis.runtime import (
    CheckedLock,
    CheckedRLock,
    LockOrderMonitor,
    audit_object_store,
    lock_monitor,
)
from repro.core.broker import Broker
from repro.core.concurrency import (
    RUNTIME_CHECKS_ENV,
    make_lock,
    runtime_checks_enabled,
    spawn_thread,
    spawned_threads,
)
from repro.core.config import CoalescingSpec
from repro.core.endpoint import ProcessEndpoint
from repro.core.errors import LockOrderError, RefcountLeakError
from repro.core.message import MsgType, make_message
from repro.core.object_store import InMemoryObjectStore


class TestLockOrderMonitor:
    def test_inverted_order_is_a_cycle(self):
        monitor = LockOrderMonitor()
        a = CheckedLock("A", monitor)
        b = CheckedLock("B", monitor)
        with a:
            with b:
                pass
        with b:
            with a:
                pass
        violations = monitor.violations()
        assert len(violations) == 1
        assert set(violations[0].cycle) == {"A", "B"}
        assert violations[0].edge == ("B", "A")

    def test_consistent_order_is_clean(self):
        monitor = LockOrderMonitor()
        a = CheckedLock("A", monitor)
        b = CheckedLock("B", monitor)
        for _ in range(3):
            with a:
                with b:
                    pass
        assert monitor.violations() == []
        assert ("A", "B") in monitor.edges()

    def test_three_lock_cycle(self):
        monitor = LockOrderMonitor()
        a, b, c = (CheckedLock(name, monitor) for name in "ABC")
        with a:
            with b:
                pass
        with b:
            with c:
                pass
        with c:
            with a:
                pass
        violations = monitor.violations()
        assert len(violations) == 1
        assert set(violations[0].cycle) == {"A", "B", "C"}

    def test_rlock_reentrancy_adds_no_edges(self):
        monitor = LockOrderMonitor()
        lock = CheckedRLock("R", monitor)
        with lock:
            with lock:
                pass
        assert monitor.edges() == {}
        assert monitor.violations() == []

    def test_same_name_siblings_do_not_self_cycle(self):
        monitor = LockOrderMonitor()
        first = CheckedLock("pool", monitor)
        second = CheckedLock("pool", monitor)
        with first:
            with second:
                pass
        assert monitor.edges() == {}

    def test_raise_on_violation(self):
        monitor = LockOrderMonitor(raise_on_violation=True)
        a = CheckedLock("A", monitor)
        b = CheckedLock("B", monitor)
        with a:
            with b:
                pass
        b.acquire()
        with pytest.raises(LockOrderError):
            a.acquire()
        b.release()

    def test_reset_clears_graph_and_violations(self):
        monitor = LockOrderMonitor()
        a = CheckedLock("A", monitor)
        b = CheckedLock("B", monitor)
        with a:
            with b:
                pass
        with b:
            with a:
                pass
        assert monitor.violations()
        monitor.reset()
        assert monitor.edges() == {}
        assert monitor.violations() == []


class TestFactories:
    def test_make_lock_is_checked_when_enabled(self, monkeypatch):
        monkeypatch.setenv(RUNTIME_CHECKS_ENV, "1")
        assert runtime_checks_enabled()
        assert isinstance(make_lock("x"), CheckedLock)

    def test_make_lock_is_plain_when_disabled(self, monkeypatch):
        monkeypatch.delenv(RUNTIME_CHECKS_ENV, raising=False)
        assert not runtime_checks_enabled()
        lock = make_lock("x")
        assert not isinstance(lock, CheckedLock)
        with lock:
            pass

    def test_spawn_thread_registers(self):
        seen = []
        thread = spawn_thread("analysis-test-worker", lambda: seen.append(1))
        thread.join(timeout=2)
        assert seen == [1]
        registry = spawned_threads(alive_only=False)
        assert any(entry.name == "analysis-test-worker" for entry in registry)


class TestRefcountAudit:
    def test_balanced_store_passes(self):
        store = InMemoryObjectStore()
        object_id = store.put("x")
        store.get(object_id)
        store.release(object_id)
        audit_object_store(store)

    def test_unreleased_ref_raises_with_detail(self):
        store = InMemoryObjectStore()
        object_id = store.put("x", refcount=2)
        store.release(object_id)
        with pytest.raises(RefcountLeakError) as excinfo:
            audit_object_store(store, context="unit test")
        assert object_id in str(excinfo.value)
        assert "unit test" in str(excinfo.value)

    def test_broker_shutdown_audit_raises_on_seeded_leak(self, monkeypatch):
        monkeypatch.setenv(RUNTIME_CHECKS_ENV, "1")
        broker = Broker("leaky")
        broker.start()
        broker.communicator.object_store.put("stranded", refcount=1)
        with pytest.raises(RefcountLeakError):
            broker.stop()

    def test_broker_shutdown_releases_undrained_sink_queue(self, monkeypatch):
        """Regression: headers routed into a registered sink queue nobody
        drains must not strand refcounts (the audit would reject every such
        teardown otherwise).  One header per message: the sink's queue
        depth counts them."""
        monkeypatch.setenv(RUNTIME_CHECKS_ENV, "1")
        broker = Broker("sinky", coalescing=CoalescingSpec(max_batch=1))
        broker.start()
        broker.register_process("sink")
        sender = ProcessEndpoint("src", broker)
        sender.start()
        try:
            for index in range(5):
                sender.send(make_message("src", ["sink"], MsgType.DATA, index))
            deadline = time.monotonic() + 2
            while (
                broker.communicator.id_queue("sink").qsize() < 5
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            assert broker.communicator.id_queue("sink").qsize() == 5
        finally:
            sender.stop()
            broker.stop()
        assert len(broker.communicator.object_store) == 0

    def test_endpoint_stop_releases_undrained_receive_queue(self, monkeypatch):
        """Regression for the PR-1 leak: bodies fanned out to an endpoint
        that stops without receiving them must be released by its stop().
        One header per message: queue depth and store size count them."""
        monkeypatch.setenv(RUNTIME_CHECKS_ENV, "1")
        broker = Broker("drainy", coalescing=CoalescingSpec(max_batch=1))
        broker.start()
        sender = ProcessEndpoint("src", broker)
        # Never started: nothing drains its ID queue until stop().
        receiver = ProcessEndpoint("dst", broker)
        sender.start()
        try:
            for index in range(8):
                sender.send(make_message("src", ["dst"], MsgType.DATA, index))
            deadline = time.monotonic() + 2
            while (
                broker.communicator.id_queue("dst").qsize() < 8
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            assert broker.communicator.id_queue("dst").qsize() == 8
            assert len(broker.communicator.object_store) == 8
        finally:
            sender.stop()
            receiver.stop()
        assert len(broker.communicator.object_store) == 0
        broker.stop()


class TestGlobalMonitorWiring:
    def test_framework_locks_report_to_global_monitor(self, monkeypatch):
        monkeypatch.setenv(RUNTIME_CHECKS_ENV, "1")
        lock = make_lock("analysis-test-global")
        assert isinstance(lock, CheckedLock)
        assert lock._monitor is lock_monitor()
