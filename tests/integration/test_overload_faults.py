"""Overload control under link faults (PR 6 satellite).

A delaying :class:`FaultyFabric` link throttles inter-broker traffic; the
flow-control subsystem must respond by *adapting* — raising the coalescing
threshold, so more messages ride each delayed shipment — while every queue
stays bounded by its watermark, instead of growing an unbounded send
backlog.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.broker import Broker
from repro.core.config import CoalescingSpec, FlowControlSpec
from repro.core.endpoint import ProcessEndpoint
from repro.core.message import MsgType, make_message
from repro.obs import FlowController, MetricsRegistry, TelemetrySampler
from repro.testing.faults import FaultSpec, FaultyFabric


def metric_value(registry, name, **labels):
    wanted = tuple(sorted(labels.items()))
    for metric in registry.collect():
        if metric.name == name and tuple(sorted(metric.labels)) == wanted:
            return metric.instrument.value
    return None


class TestSlowLinkAdaptation:
    def test_delaying_link_triggers_adaptation_not_backlog(self):
        flow = FlowControlSpec(
            bulk_watermark=16,
            control_watermark=16,
            queue_pressure_fraction=0.25,
            escalate_after=1,
            relax_after=1000,  # keep the degraded state for the assertions
            adapt_interval_s=0.01,
        )
        fabric = FaultyFabric(
            spec=FaultSpec(delay=1.0, delay_s=0.01), seed=7
        )
        broker_a = Broker("brokerA", fabric=fabric, flow=flow)
        broker_b = Broker("brokerB", fabric=fabric, flow=flow)
        broker_a.add_remote_route("bob", "brokerB")
        broker_a.start()
        broker_b.start()
        alice = ProcessEndpoint(
            "alice", broker_a,
            coalescing=CoalescingSpec(max_message_bytes=512),
        )
        bob = ProcessEndpoint("bob", broker_b)
        alice.start()
        bob.start()
        registry = MetricsRegistry()
        sampler = TelemetrySampler(registry, interval=0.01)
        sampler.add_broker(broker_a)
        sampler.add_endpoint(alice)
        controller = FlowController(flow)
        controller.attach_broker(broker_a)
        controller.attach_endpoint(alice)
        sampler.add_flow_controller(controller)  # exports its decisions
        payload = np.zeros(8192, dtype=np.uint8)  # bulk body over the threshold
        bound = flow.bulk_watermark + flow.control_watermark

        def total_shed():
            stats = broker_a.communicator.flow_stats()
            return sum(
                queue_stats["bulk_shed"] for queue_stats in stats.values()
            ) + alice.send_buffer.flow_stats()["bulk_shed"]

        try:
            deadline = time.monotonic() + 10.0
            sent = 0
            while time.monotonic() < deadline:
                # Flood faster than the delayed link can drain.
                for _ in range(64):
                    alice.send(
                        make_message("alice", ["bob"], MsgType.DATA, payload)
                    )
                    sent += 1
                controller.poll_once()
                sampler.sample_once()
                # Bounded admission: no queue ever outgrows its watermarks.
                assert broker_a.communicator.header_queue.qsize() <= bound
                assert alice.send_buffer.qsize() <= bound
                for broker in (broker_a, broker_b):
                    for lanes in broker.communicator.lane_depths().values():
                        assert sum(lanes.values()) <= bound
                assert bob.receive_buffer.qsize() <= bound
                if controller.degraded and total_shed() > 0:
                    break
                time.sleep(0.01)
            # The controller escalated instead of letting the backlog grow...
            assert controller.degraded, (
                f"no adaptation after {sent} sends over a delaying link"
            )
            assert metric_value(
                registry, "flow_adaptations_total", direction="escalate"
            ) >= 1
            # ...the lever actually engaged: a larger coalescing threshold.
            assert alice.coalescing.max_message_bytes > 512
            # And overload was absorbed by shedding stale bulk, visibly.
            assert total_shed() > 0
        finally:
            alice.stop()
            bob.stop()
            broker_a.stop()
            broker_b.stop()
            fabric.close()
