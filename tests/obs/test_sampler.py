"""Sampler tests: queue-depth/backpressure probes against real components."""

from __future__ import annotations

import time

import pytest

from repro.core.concurrency import spawn_thread
from repro.core.message import MsgType, make_message
from repro.obs import MetricsRegistry, TelemetrySampler


def values(registry, name):
    """{labels_dict_items: value} for every instrument with that name."""
    return {
        metric.labels: metric.instrument.value
        for metric in registry.collect()
        if metric.name == name
    }


def counter_value(registry, name):
    (value,) = values(registry, name).values()
    return value


class TestProbeLoop:
    def test_interval_validated(self):
        with pytest.raises(ValueError):
            TelemetrySampler(MetricsRegistry(), interval=0.0)

    def test_sample_once_runs_probes_and_counts_ticks(self):
        registry = MetricsRegistry()
        sampler = TelemetrySampler(registry, interval=0.01)
        seen = []
        sampler.add_probe(seen.append)
        sampler.sample_once()
        sampler.sample_once()
        assert len(seen) == 2
        assert counter_value(registry, "sampler_ticks_total") == 2

    def test_raising_probe_counted_and_skipped(self):
        registry = MetricsRegistry()
        sampler = TelemetrySampler(registry, interval=0.01)
        seen = []

        def bad_probe(timestamp):
            raise RuntimeError("queue torn down")

        sampler.add_probe(bad_probe)
        sampler.add_probe(seen.append)  # later probes still run
        sampler.sample_once()
        assert len(seen) == 1
        assert counter_value(registry, "sampler_errors_total") == 1
        assert counter_value(registry, "sampler_ticks_total") == 1

    def test_probe_gets_clock_timestamp(self):
        registry = MetricsRegistry()
        sampler = TelemetrySampler(registry, interval=0.01, clock=lambda: 42.0)
        seen = []
        sampler.add_probe(seen.append)
        sampler.sample_once()
        assert seen == [42.0]


class TestBrokerProbe:
    def test_broker_gauges_populated(self, broker, endpoint_pair):
        alice, bob = endpoint_pair
        registry = MetricsRegistry()
        sampler = TelemetrySampler(registry, interval=0.01, clock=lambda: 1.0)
        sampler.add_broker(broker)
        sampler.sample_once()
        assert values(registry, "broker_header_queue_depth")
        assert values(registry, "object_store_objects")
        assert values(registry, "object_store_bytes")
        assert values(registry, "object_store_refcounts")
        depth_labels = values(registry, "broker_id_queue_depth")
        processes = {dict(labels)["process"] for labels in depth_labels}
        assert {"alice", "bob"} <= processes

    def test_series_recorded_per_sample(self, broker):
        registry = MetricsRegistry()
        clock_value = [0.0]
        sampler = TelemetrySampler(
            registry, interval=0.01, clock=lambda: clock_value[0]
        )
        sampler.add_broker(broker)
        for tick in range(3):
            clock_value[0] = float(tick)
            sampler.sample_once()
        (metric,) = [
            m for m in registry.collect() if m.name == "broker_header_queue_depth"
        ]
        assert [timestamp for timestamp, _ in metric.instrument.series()] == [0.0, 1.0, 2.0]


class TestEndpointProbe:
    def test_backlog_gauges(self, endpoint_pair):
        alice, bob = endpoint_pair
        registry = MetricsRegistry()
        sampler = TelemetrySampler(registry, interval=0.01, clock=lambda: 1.0)
        sampler.add_endpoint(alice)
        sampler.add_endpoint(bob)
        sampler.sample_once()
        send_backlogs = values(registry, "endpoint_send_backlog")
        recv_backlogs = values(registry, "endpoint_receive_backlog")
        assert len(send_backlogs) == 2
        assert len(recv_backlogs) == 2
        assert all(value >= 0 for value in send_backlogs.values())

    def test_receive_backlog_sees_undrained_message(self, endpoint_pair):
        alice, bob = endpoint_pair
        alice.send(make_message("alice", ["bob"], MsgType.DATA, {"x": 1}))
        deadline = time.monotonic() + 2.0
        while bob.receive_buffer.qsize() == 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        registry = MetricsRegistry()
        sampler = TelemetrySampler(registry, interval=0.01, clock=lambda: 1.0)
        sampler.add_endpoint(bob)
        sampler.sample_once()
        (backlog,) = values(registry, "endpoint_receive_backlog").values()
        assert backlog == 1
        assert bob.receive(timeout=1.0) is not None  # drain for clean teardown


class TestTotals:
    """Running totals are delta-accumulated into counters (endpoint meters
    here; processes and restarts in test_pull_telemetry.py)."""

    def test_counters_follow_the_endpoints_own_meters(self, endpoint_pair):
        alice, bob = endpoint_pair
        registry = MetricsRegistry()
        sampler = TelemetrySampler(registry, interval=0.01, clock=lambda: 1.0)
        sampler.add_endpoint(alice)
        sampler.add_endpoint(bob)
        for index in range(5):
            alice.send(make_message("alice", ["bob"], MsgType.DATA, index))
        for _ in range(5):
            assert bob.receive(timeout=2.0) is not None
        sampler.sample_once()
        sampler.read_totals()  # a re-read adds nothing twice
        sent = values(registry, "endpoint_messages_sent_total")
        assert sent[(("process", "alice"),)] == alice.sent_meter.count == 5
        received = values(registry, "endpoint_messages_received_total")
        assert received[(("process", "bob"),)] == bob.received_meter.count == 5
        assert values(registry, "endpoint_bytes_received_total")[
            (("process", "bob"),)
        ] == bob.received_meter.total

    def test_concurrent_reads_never_count_a_delta_twice(self):
        """An export's read_totals() can race the sampler thread's sweep."""
        import sys
        import threading

        class Owner:
            name = "owner"
            total = 0

        owner = Owner()
        registry = MetricsRegistry()
        sampler = TelemetrySampler(registry, interval=0.01)
        rows = [("explorer_env_steps_total", lambda o: o.total)]
        sampler.add_probe(
            lambda timestamp: None,
            totals=sampler._totals_reader((owner, rows, {"process": "owner"})),
        )
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                sampler.read_totals()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        threads = []
        try:
            threads += [spawn_thread(f"totals-reader-{n}", reader) for n in range(4)]
            deadline = time.monotonic() + 0.5
            while time.monotonic() < deadline:
                owner.total += 1
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=5.0)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        sampler.read_totals()
        assert counter_value(registry, "explorer_env_steps_total") == owner.total
        assert counter_value(registry, "sampler_errors_total") == 0


class TestLifecycle:
    def test_start_stop(self):
        registry = MetricsRegistry()
        sampler = TelemetrySampler(registry, interval=0.005)
        sampler.add_probe(lambda timestamp: None)
        sampler.start()
        assert sampler.running
        sampler.start()  # idempotent
        deadline = time.monotonic() + 2.0
        while (
            counter_value(registry, "sampler_ticks_total") < 2
            and time.monotonic() < deadline
        ):
            time.sleep(0.005)
        sampler.stop()
        assert not sampler.running
        assert sampler.error is None
        assert counter_value(registry, "sampler_ticks_total") >= 3  # final sweep

    def test_stop_without_start_still_sweeps(self):
        registry = MetricsRegistry()
        sampler = TelemetrySampler(registry, interval=0.01)
        sampler.stop()
        assert counter_value(registry, "sampler_ticks_total") == 1


class TestWireFabricProbe:
    def test_wire_gauges_and_copy_canary(self):
        import threading

        import numpy as np

        from repro.transport.tcp import SocketFabric

        registry = MetricsRegistry()
        sampler = TelemetrySampler(registry, interval=0.01, clock=lambda: 1.0)
        fabric = SocketFabric("gauge-fabric")
        delivered = threading.Event()
        try:
            fabric.register("node", lambda item: delivered.set())
            fabric.listen("node")
            sampler.add_wire_fabric(fabric)
            body = np.arange(10_000, dtype=np.uint8)
            fabric.send("peer", "node", ({"k": 1}, body), nbytes=body.nbytes)
            assert delivered.wait(5.0)
            sampler.sample_once()
            sent = values(registry, "wire_link_bytes_sent")
            assert sent and all(value > 0 for value in sent.values())
            per_message = values(registry, "wire_link_syscalls_per_message")
            assert all(value <= 2.0 for value in per_message.values())
            received = values(registry, "wire_link_items_received")
            assert any(value >= 1 for value in received.values())
            # The receive-side twin of syscalls_per_message, and the count
            # of hand-ups that raised, are mirrored from the listener.
            reads = values(registry, "wire_link_reads_per_message")
            assert reads and all(0 < value <= 3.0 for value in reads.values())
            assert values(registry, "wire_link_reads_total")
            errors = values(registry, "wire_link_delivery_errors")
            assert errors and not any(errors.values())
            # The process-wide zero-copy canary is exported alongside.
            assert values(registry, "serialization_copies_total")
        finally:
            fabric.close()
