"""FlowController tests: the adaptation loop under overload.

The controller is exercised two ways: against *fake* components (pure
decision logic — what escalates, what relaxes, in what order) and against
real brokers and endpoints, whose own backpressure accounting it reads
directly — no registry, sampler or telemetry in between.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import pytest

from repro.core.broker import Broker
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
    )
    base.update(overrides)
    return FlowControlSpec(**base)


def metric_value(registry, name, **labels):
    wanted = tuple(sorted(labels.items()))
    for metric in registry.collect():
        if metric.name == name and tuple(sorted(metric.labels)) == wanted:
            return metric.instrument.value
    raise AssertionError(f"no metric {name} with labels {labels}")


# -- fakes for pure decision-logic tests -------------------------------------

class Dial:
    """A settable reading: ``dial.set(8)`` is what the fakes then report."""

    def __init__(self):
        self.value = 0

    def set(self, value):
        self.value = value


class FakeCommunicator:
    def __init__(self):
        self.bulk_depth = Dial()

    def flow_stats(self):
        return {"headers": {"bulk_depth": self.bulk_depth.value}}


@dataclass
class FakeBroker:
    name: str = "b"
    communicator: FakeCommunicator = field(default_factory=FakeCommunicator)


class FakeSendBuffer:
    def __init__(self):
        self.bulk_depth = Dial()

    def flow_stats(self):
        return {"bulk_depth": self.bulk_depth.value}


class FakeEndpoint:
    name = "e"

    def __init__(self, coalescing):
        self.coalescing = coalescing
        self.send_buffer = FakeSendBuffer()


def controller_with_fakes(flow=None):
    """``(controller, broker, endpoint, header-queue bulk depth dial)``."""
    controller = FlowController(flow or spec())
    broker = FakeBroker()
    endpoint = FakeEndpoint(CoalescingSpec(max_message_bytes=1024))
    controller.attach_broker(broker)
    controller.attach_endpoint(endpoint)
    return controller, broker, endpoint, broker.communicator.bulk_depth


class TestEscalation:
    def test_needs_consecutive_pressured_polls(self):
        controller, _, endpoint, depth = controller_with_fakes()
        depth.set(8)  # >= 0.5 * bulk_watermark
        controller.poll_once()
        assert not controller.degraded  # escalate_after=2: not yet
        controller.poll_once()
        assert controller.degraded
        assert endpoint.coalescing.max_message_bytes == 2048

    def test_clear_poll_resets_the_streak(self):
        controller, _, _, depth = controller_with_fakes()
        depth.set(8)
        controller.poll_once()
        depth.set(0)
        controller.poll_once()  # streak broken
        depth.set(8)
        controller.poll_once()
        assert not controller.degraded

    def test_repeat_escalations_cap_at_coalescing_max(self):
        flow = spec(coalescing_max_bytes=4096)
        controller, _, endpoint, depth = controller_with_fakes(flow)
        depth.set(8)
        for _ in range(10):  # five escalation opportunities
            controller.poll_once()
        assert endpoint.coalescing.max_message_bytes == 4096  # capped

    def test_single_message_spec_left_alone(self):
        controller = FlowController(spec())
        endpoint = FakeEndpoint(CoalescingSpec(max_message_bytes=512, max_batch=1))
        controller.attach_endpoint(endpoint)
        broker = FakeBroker()
        controller.attach_broker(broker)
        broker.communicator.bulk_depth.set(8)
        controller.poll_once()
        controller.poll_once()
        assert endpoint.coalescing.max_message_bytes == 512


class TestRelaxation:
    def escalated(self, flow=None):
        parts = controller_with_fakes(flow)
        controller, _, _, depth = parts
        depth.set(8)
        controller.poll_once()
        controller.poll_once()
        assert controller.degraded
        depth.set(0)
        return parts

    def test_needs_consecutive_clear_polls(self):
        controller, _, _, _ = self.escalated()
        controller.poll_once()
        controller.poll_once()
        assert controller.degraded  # relax_after=3: not yet
        controller.poll_once()
        assert not controller.degraded

    def test_originals_restored_exactly(self):
        controller, _, endpoint, _ = self.escalated()
        for _ in range(3):
            controller.poll_once()
        assert endpoint.coalescing == CoalescingSpec(max_message_bytes=1024)

    def test_send_buffer_depth_is_a_queue_signal(self):
        controller, _, endpoint, _ = controller_with_fakes()
        endpoint.send_buffer.bulk_depth.set(8)
        controller.poll_once()
        controller.poll_once()
        assert controller.degraded

    def test_decision_telemetry_exported(self):
        """The controller counts its own decisions; a sampler that is
        handed the controller exports them as the ``flow_*`` metrics."""
        controller, *_ = self.escalated()
        for _ in range(3):
            controller.poll_once()
        assert (controller.escalations, controller.relaxations) == (1, 1)
        assert controller.polls == 5
        registry = MetricsRegistry()
        sampler = TelemetrySampler(registry, clock=lambda: 1.0)
        sampler.add_flow_controller(controller)
        sampler.sample_once()
        assert metric_value(
            registry, "flow_adaptations_total", direction="escalate"
        ) == 1
        assert metric_value(
            registry, "flow_adaptations_total", direction="relax"
        ) == 1
        assert metric_value(registry, "flow_degradation_level") == 0
        assert metric_value(registry, "flow_polls_total") == 5


class TestLifecycle:
    def test_thread_polls_until_stopped(self):
        controller, _, _, depth = controller_with_fakes()
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
    def test_controller_reads_the_broker_directly(self):
        """No registry, no sampler: the queue's own accounting is the signal."""
        flow = spec(bulk_watermark=4, escalate_after=1)
        broker = Broker("b", flow=flow)
        broker.register_process("sink")  # never drained: queue backs up
        controller = FlowController(flow)
        controller.attach_broker(broker)
        try:
            for index in range(4):
                broker.communicator.header_queue.put(
                    make_header("x", ["sink"], MsgType.DATA)
                )
            controller.poll_once()
            assert controller.degraded
        finally:
            broker.stop()

    def test_local_id_queue_backlog_escalates(self):
        """One broker, a destination that does not drain: the backlog sits
        in its ID queue (local traffic never touches the header queue),
        and that is enough to escalate."""
        flow = spec(bulk_watermark=4, escalate_after=1)
        broker = Broker("b", flow=flow)
        broker.register_process("sink")
        alice = ProcessEndpoint(
            "alice", broker, coalescing=CoalescingSpec(max_message_bytes=64)
        )
        controller = FlowController(flow)
        controller.attach_broker(broker)
        controller.attach_endpoint(alice)
        alice.start()
        try:
            for index in range(8):  # above the coalescing threshold
                alice.send(
                    make_message("alice", ["sink"], MsgType.DATA, b"x" * 100)
                )
            deadline = time.monotonic() + 2.0
            sink_queue = broker.communicator.id_queue("sink")
            while sink_queue.qsize() < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert broker.communicator.header_queue.qsize() == 0
            controller.poll_once()
            assert controller.degraded
            assert alice.coalescing.max_message_bytes == 128
        finally:
            alice.stop()
            broker.stop()

    def test_telemetry_facade_wires_flow_control(self):
        """Header-queue depth is the controller's "link is slow" signal:
        only remote-bound headers queue there, so the backlog is built
        with a destination behind another broker (whose router, never
        started, stands in for a stalled link).  Telemetry only *exports*
        the controller's decisions; the controller does not need it."""
        flow = spec(bulk_watermark=4, escalate_after=1)
        telemetry = Telemetry(sample_interval=0.01)
        controller = FlowController(flow)
        telemetry.attach_flow_controller(controller)
        fabric = Fabric()
        broker = Broker("b", flow=flow, fabric=fabric)
        peer = Broker("far", fabric=fabric)
        fabric.connect("b", "far")
        broker.add_remote_route("sink", "far")
        controller.attach_broker(broker)
        # One header per message: the backlog is counted in queue entries.
        alice = ProcessEndpoint(
            "alice", broker, coalescing=CoalescingSpec(max_batch=1)
        )
        controller.attach_endpoint(alice)
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
            controller.poll_once()
            assert controller.degraded
            telemetry.sampler.sample_once()
            assert metric_value(
                telemetry.registry, "flow_adaptations_total", direction="escalate"
            ) == 1
            assert metric_value(telemetry.registry, "flow_degradation_level") == 1
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
        finally:
            alice.stop()
            broker.stop()
