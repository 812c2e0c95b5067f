"""FlowController tests: the telemetry-driven adaptation loop.

The controller is exercised two ways: against *fake* components (pure
decision logic — what escalates, what relaxes, in what order) and against
a real broker/endpoint pair fed through the sampler (the gauges it reads
are the ones the sampler writes).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import pytest

from repro.core.broker import Broker
from repro.core.compression import CompressionPolicy
from repro.core.config import CoalescingSpec, FlowControlSpec
from repro.core.endpoint import ProcessEndpoint
from repro.core.message import MsgType, make_header, make_message
from repro.obs import FlowController, MetricsRegistry, Telemetry, TelemetrySampler
from repro.transport.fabric import Fabric


def spec(**overrides) -> FlowControlSpec:
    base = dict(
        bulk_watermark=8,
        control_watermark=8,
        queue_pressure_fraction=0.5,
        escalate_after=2,
        relax_after=3,
        adapt_interval_s=0.01,
        coalescing_max_bytes=1 << 14,
        compression_min_threshold=64,
    )
    base.update(overrides)
    return FlowControlSpec(**base)


def metric_value(registry, name, **labels):
    wanted = tuple(sorted(labels.items()))
    for metric in registry.collect():
        if metric.name == name and tuple(sorted(metric.labels)) == wanted:
            return metric.value
    raise AssertionError(f"no metric {name} with labels {labels}")


# -- fakes for pure decision-logic tests -------------------------------------

class FakeWire:
    def __init__(self):
        self.enabled = False

    def set_enabled(self, enabled):
        self.enabled = enabled


class FakeStore:
    """Just enough surface for attach_broker's arena/compression probes."""

    def __init__(self):
        self.arena = object()
        self._policy = CompressionPolicy(enabled=False, threshold=1024)

    @property
    def compression(self):
        return self._policy

    def set_compression(self, policy):
        self._policy = policy


class FakeCommunicator:
    def __init__(self, store):
        self.object_store = store
        self.pressure_calls = []

    def set_pressure(self, active):
        self.pressure_calls.append(active)


@dataclass
class FakeBroker:
    name: str = "b"
    communicator: FakeCommunicator = field(
        default_factory=lambda: FakeCommunicator(FakeStore())
    )
    wire: FakeWire = field(default_factory=FakeWire)


class FakeEndpoint:
    def __init__(self, coalescing):
        self.coalescing = coalescing


def controller_with_fakes(flow=None):
    registry = MetricsRegistry()
    flow = flow or spec()
    controller = FlowController(registry, flow)
    broker = FakeBroker()
    endpoint = FakeEndpoint(CoalescingSpec(enabled=True, max_message_bytes=1024))
    controller.attach_broker(broker)
    controller.attach_endpoint(endpoint)
    depth = registry.gauge(
        "backpressure_lane_depth",
        {"component": "b", "queue": "headers", "lane": "bulk"},
    )
    arena = registry.gauge("arena_pressure", {"broker": "b"})
    return registry, controller, broker, endpoint, depth, arena


class TestEscalation:
    def test_needs_consecutive_pressured_polls(self):
        _, controller, broker, endpoint, depth, _ = controller_with_fakes()
        depth.set(8)  # >= 0.5 * bulk_watermark
        controller.poll_once()
        assert not controller.degraded  # escalate_after=2: not yet
        controller.poll_once()
        assert controller.degraded
        assert broker.wire.enabled
        assert endpoint.coalescing.max_message_bytes == 2048

    def test_clear_poll_resets_the_streak(self):
        _, controller, _, _, depth, _ = controller_with_fakes()
        depth.set(8)
        controller.poll_once()
        depth.set(0)
        controller.poll_once()  # streak broken
        depth.set(8)
        controller.poll_once()
        assert not controller.degraded

    def test_repeat_escalations_cap_at_coalescing_max(self):
        flow = spec(coalescing_max_bytes=4096)
        _, controller, _, endpoint, depth, _ = controller_with_fakes(flow)
        depth.set(8)
        for _ in range(10):  # five escalation opportunities
            controller.poll_once()
        assert endpoint.coalescing.max_message_bytes == 4096  # capped

    def test_queue_pressure_alone_leaves_admission_open(self):
        _, controller, broker, _, depth, _ = controller_with_fakes()
        depth.set(8)
        controller.poll_once()
        controller.poll_once()
        assert controller.degraded
        assert not controller.admission_tightened
        assert broker.communicator.pressure_calls == []

    def test_arena_pressure_tightens_admission_and_compression(self):
        _, controller, broker, _, _, arena = controller_with_fakes()
        arena.set(1)
        controller.poll_once()
        controller.poll_once()
        assert controller.admission_tightened
        assert broker.communicator.pressure_calls == [True]
        policy = broker.communicator.object_store.compression
        assert policy.enabled
        assert policy.threshold == 512  # halved from 1024

    def test_compression_threshold_floor(self):
        flow = spec(compression_min_threshold=400)
        _, controller, broker, _, _, arena = controller_with_fakes(flow)
        arena.set(1)
        store = broker.communicator.object_store
        for _ in range(8):
            controller.poll_once()
        assert store.compression.threshold == 512  # one halving applied
        # (admission tightening is one-shot; the floor guards re-entry)

    def test_disabled_coalescing_left_alone(self):
        registry = MetricsRegistry()
        controller = FlowController(registry, spec())
        endpoint = FakeEndpoint(CoalescingSpec(enabled=False, max_message_bytes=512))
        controller.attach_endpoint(endpoint)
        depth = registry.gauge(
            "backpressure_lane_depth",
            {"component": "b", "queue": "headers", "lane": "bulk"},
        )
        broker = FakeBroker()
        controller.attach_broker(broker)
        depth.set(8)
        controller.poll_once()
        controller.poll_once()
        assert endpoint.coalescing.max_message_bytes == 512


class TestRelaxation:
    def escalated(self, flow=None):
        parts = controller_with_fakes(flow)
        _, controller, _, _, depth, arena = parts
        depth.set(8)
        arena.set(1)
        controller.poll_once()
        controller.poll_once()
        assert controller.degraded and controller.admission_tightened
        depth.set(0)
        arena.set(0)
        return parts

    def test_needs_consecutive_clear_polls(self):
        _, controller, broker, endpoint, _, _ = self.escalated()
        controller.poll_once()
        controller.poll_once()
        assert controller.degraded  # relax_after=3: not yet
        controller.poll_once()
        assert not controller.degraded
        assert not controller.admission_tightened
        assert not broker.wire.enabled
        assert broker.communicator.pressure_calls == [True, False]

    def test_originals_restored_exactly(self):
        _, controller, broker, endpoint, _, _ = self.escalated()
        for _ in range(3):
            controller.poll_once()
        assert endpoint.coalescing.max_message_bytes == 1024
        policy = broker.communicator.object_store.compression
        assert policy.threshold == 1024 and not policy.enabled

    def test_decision_telemetry_exported(self):
        registry, controller, *_ = self.escalated()
        for _ in range(3):
            controller.poll_once()
        assert metric_value(
            registry, "flow_adaptations_total", direction="escalate"
        ) == 1
        assert metric_value(
            registry, "flow_adaptations_total", direction="relax"
        ) == 1
        assert metric_value(registry, "flow_degradation_level") == 0


class TestLifecycle:
    def test_thread_polls_until_stopped(self):
        registry, controller, _, _, depth, _ = controller_with_fakes()
        depth.set(8)
        controller.start()
        assert controller.running
        deadline = time.monotonic() + 2.0
        while not controller.degraded and time.monotonic() < deadline:
            time.sleep(0.01)
        controller.stop()
        assert not controller.running
        assert controller.error is None
        assert controller.degraded


class TestAgainstRealComponents:
    def test_sampler_feeds_controller(self):
        """The gauges the sampler writes are the ones the controller reads."""
        flow = spec(bulk_watermark=4, escalate_after=1)
        broker = Broker("b", flow=flow)
        broker.register_process("sink")  # never drained: queue backs up
        registry = MetricsRegistry()
        sampler = TelemetrySampler(registry, interval=0.01, clock=lambda: 1.0)
        sampler.add_broker(broker)
        controller = FlowController(registry, flow)
        controller.attach_broker(broker)
        try:
            for index in range(4):
                broker.communicator.header_queue.put(
                    make_header("x", ["sink"], MsgType.DATA)
                )
            sampler.sample_once()
            controller.poll_once()
            assert controller.degraded
            assert broker.wire.enabled
        finally:
            broker.stop()

    def test_telemetry_facade_wires_flow_control(self):
        """Header-queue depth is the controller's "link is slow" signal:
        only remote-bound headers queue there, so the backlog is built
        with a destination behind another broker (whose router, never
        started, stands in for a stalled link)."""
        flow = spec(bulk_watermark=4, escalate_after=1)
        telemetry = Telemetry(sample_interval=0.01, spans=False)
        controller = telemetry.enable_flow_control(flow)
        assert telemetry.enable_flow_control(flow) is controller  # idempotent
        fabric = Fabric()
        broker = Broker("b", flow=flow, fabric=fabric)
        peer = Broker("far", fabric=fabric)
        fabric.connect("b", "far")
        broker.add_remote_route("sink", "far")
        telemetry.attach_broker(broker)
        alice = ProcessEndpoint("alice", broker)
        telemetry.attach_endpoint(alice)
        alice.start()
        try:
            for index in range(8):
                alice.send(make_message("alice", ["sink"], MsgType.DATA, index))
            deadline = time.monotonic() + 2.0
            while (
                broker.communicator.header_queue.qsize() < 2
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            telemetry.sampler.sample_once()
            controller.poll_once()
            assert controller.degraded
        finally:
            alice.stop()
            broker.stop()
            peer.stop()
            fabric.close()

    def test_flow_gauges_exported_via_sampler(self):
        flow = spec()
        broker = Broker("b", flow=flow)
        broker.register_process("sink")
        alice = ProcessEndpoint("alice", broker)
        registry = MetricsRegistry()
        sampler = TelemetrySampler(registry, interval=0.01, clock=lambda: 1.0)
        sampler.add_broker(broker)
        sampler.add_endpoint(alice)
        alice.start()
        try:
            broker.communicator.header_queue.put(
                make_header("x", ["sink"], MsgType.DATA)
            )
            sampler.sample_once()
            assert metric_value(
                registry, "backpressure_lane_depth",
                component="b", queue="headers", lane="bulk",
            ) == 1
            assert metric_value(
                registry, "wire_compression_enabled", broker="b"
            ) == 0
        finally:
            alice.stop()
            broker.stop()
