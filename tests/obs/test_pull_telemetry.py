"""Record once, read everywhere.

What a process counts about itself it counts in its own meters and
recorders; telemetry exports those by reading them, and the flow
controller reads the queues' own accounting.  Nothing is attached to the
data plane, so these hold without any hook:

* a supervised replacement continues the dead process's counters;
* the snapshot's catalog is what it was when every quantity was recorded
  twice, and every exported total *is* the owner's own number;
* flow control runs, and escalates on one broker, with no telemetry.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import StopCondition, SupervisionSpec, single_machine_config
from repro.cluster import build_cluster
from repro.core.broker import Broker
from repro.core.config import CoalescingSpec, FlowControlSpec, TelemetrySpec
from repro.core.endpoint import ProcessEndpoint
from repro.core.message import MsgType, make_message
from repro.core.object_store import InMemoryObjectStore
from repro.core.tracing import HOP_LOG
from repro.obs import FlowController, Telemetry
from repro.runtime import XingTianSession
from repro.testing.faults import CrashingAgent, Fuse


def wait_for(condition, timeout=30.0, tick=None):
    """Poll ``condition`` (calling ``tick`` between polls) — a ceiling, not
    a budget: it returns the moment the condition holds."""
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        if tick is not None:
            tick()
        time.sleep(0.01)


def exported(snapshot_doc, name, **labels):
    (entry,) = [
        metric for metric in snapshot_doc["metrics"]
        if metric["name"] == name and metric["labels"] == labels
    ]
    return entry


# -- (a) counter continuity across a supervised restart ------------------------

def test_replacement_explorer_continues_the_counter_with_no_hook():
    config = single_machine_config(
        "dqn", "CartPole", "qnet",
        explorers=2, fragment_steps=20, seed=7,
        stop=StopCondition(max_seconds=90.0),  # ceiling; the test stops it
        supervision=SupervisionSpec(
            heartbeat_interval=0.05, suspect_after=0.5, dead_after=1.0,
            max_restarts=2, backoff_base=0.5, backoff_max=0.5, seed=0,
        ),
    )
    cluster = build_cluster(config)
    victim = cluster.explorers[0]
    fuse = Fuse()
    victim.agent = CrashingAgent(victim.agent, crash_after=3, fuse=fuse)
    telemetry = Telemetry()
    telemetry.attach_cluster(cluster)  # before the restart, and never again
    sample = telemetry.sampler.sample_once  # driven by hand: no thread, no race
    labels = {"process": victim.name}

    cluster.start()
    try:
        wait_for(lambda: fuse.blown and not victim.workhorse.running, tick=sample)
        sample()  # the dead explorer's final total is in the counter
        before = exported(telemetry.snapshot(), "explorer_env_steps_total", **labels)
        assert before["value"] == victim.steps_meter.total > 0

        supervisor = cluster.center.supervisor
        wait_for(lambda: supervisor.process(victim.name) is not victim, tick=sample)
        replacement = supervisor.process(victim.name)
        wait_for(lambda: replacement.steps_meter.total > 0, tick=sample)
    finally:
        cluster.stop()
    after = exported(telemetry.snapshot(), "explorer_env_steps_total", **labels)
    # One series under one name: it carried on from the dead process's total.
    assert after["value"] == victim.steps_meter.total + replacement.steps_meter.total
    assert after["value"] > before["value"]
    sent = exported(telemetry.snapshot(), "endpoint_messages_sent_total", **labels)
    assert sent["value"] == (
        victim.endpoint.sent_meter.count + replacement.endpoint.sent_meter.count
    )


# -- (b) the catalog, and totals that are the owner's own ------------------------

#: ``(name, type, label keys)`` of the smoke run's snapshot at the parent
#: commit (e72f66b), where endpoints, explorers and the learner each kept a
#: second set of registry instruments for these names.
PARENT_CATALOG = {
    ("backpressure_admission_pressure", "gauge", ("component", "queue")),
    ("backpressure_block_seconds_total", "gauge", ("component", "lane", "queue")),
    ("backpressure_blocked_total", "gauge", ("component", "lane", "queue")),
    ("backpressure_expired_total", "gauge", ("component", "lane", "queue")),
    ("backpressure_lane_depth", "gauge", ("component", "lane", "queue")),
    ("backpressure_send_expired_total", "gauge", ("endpoint",)),
    ("backpressure_shed_total", "gauge", ("component", "lane", "queue")),
    ("broker_header_queue_depth", "gauge", ("broker",)),
    ("broker_id_queue_depth", "gauge", ("broker", "process")),
    ("endpoint_bytes_received_total", "counter", ("process",)),
    ("endpoint_bytes_sent_total", "counter", ("process",)),
    ("endpoint_coalesce_batch_size", "histogram", ("process",)),
    ("endpoint_delivery_latency_seconds", "histogram", ("process",)),
    ("endpoint_messages_received_total", "counter", ("process",)),
    ("endpoint_messages_sent_total", "counter", ("process",)),
    ("endpoint_receive_backlog", "gauge", ("endpoint",)),
    ("endpoint_send_backlog", "gauge", ("endpoint",)),
    ("explorer_env_steps_total", "counter", ("process",)),
    ("explorer_fragments_total", "counter", ("process",)),
    ("explorer_weight_updates_total", "counter", ("process",)),
    ("flow_adaptations_total", "counter", ("direction",)),
    ("flow_admission_tightened", "gauge", ()),
    ("flow_degradation_level", "gauge", ()),
    ("flow_polls_total", "counter", ()),
    ("message_edge_stage_seconds", "histogram",
     ("dst_role", "src_role", "stage", "type")),
    ("message_spans_evicted_total", "counter", ("stage",)),
    ("message_spans_negative_total", "counter", ()),
    ("message_spans_terminal_total", "counter", ("outcome",)),
    ("message_spans_unmatched_total", "counter", ("stage",)),
    ("message_stage_seconds", "histogram", ("stage", "type")),
    ("object_store_bytes", "gauge", ("broker",)),
    ("object_store_objects", "gauge", ("broker",)),
    ("object_store_refcounts", "gauge", ("broker",)),
    ("sampler_errors_total", "counter", ()),
    ("sampler_ticks_total", "counter", ()),
    ("trainer_broadcasts_total", "counter", ("process",)),
    ("trainer_train_seconds", "histogram", ("process",)),
    ("trainer_train_sessions_total", "counter", ("process",)),
    ("trainer_trained_steps_total", "counter", ("process",)),
    ("trainer_wait_seconds", "histogram", ("process",)),
    ("wire_compression_bytes_in", "gauge", ("broker",)),
    ("wire_compression_bytes_out", "gauge", ("broker",)),
    ("wire_compression_compressed_total", "gauge", ("broker",)),
    ("wire_compression_enabled", "gauge", ("broker",)),
}


@pytest.fixture(scope="module")
def smoke_run():
    config = single_machine_config(
        "impala", "CartPole", "actor_critic",
        explorers=2, fragment_steps=25, seed=7,
        stop=StopCondition(total_trained_steps=300, max_seconds=90),
        telemetry=TelemetrySpec(sample_interval=0.02),
        flow_control=FlowControlSpec(),
        coalescing=CoalescingSpec(),
    )
    session = XingTianSession(config)
    return session, session.run()


def test_snapshot_catalog_is_the_parents(smoke_run):
    _, result = smoke_run
    catalog = {
        (metric["name"], metric["type"], tuple(sorted(metric["labels"])))
        for metric in result.metrics["metrics"]
    }
    assert catalog == PARENT_CATALOG


def test_every_exported_total_is_the_owners_own_number(smoke_run):
    session, result = smoke_run
    cluster = session.cluster
    learner = cluster.learner

    def value(name, process):
        return exported(result.metrics, name, process=process.name)

    assert value("trainer_trained_steps_total", learner)["value"] == (
        learner.consumed_meter.total
    )
    assert value("trainer_train_sessions_total", learner)["value"] == (
        learner.train_sessions
    )
    assert value("trainer_broadcasts_total", learner)["value"] == learner.broadcasts
    for name, recorder in (
        ("trainer_wait_seconds", learner.wait_recorder),
        ("trainer_train_seconds", learner.train_recorder),
        ("endpoint_delivery_latency_seconds", learner.endpoint.delivery_latency),
    ):
        entry = value(name, learner)
        assert entry["count"] == recorder.count > 0
        assert entry["sum"] == recorder.sum
        assert entry["buckets"][-1] == ["+Inf", recorder.count]
    for explorer in cluster.explorers:
        assert value("explorer_env_steps_total", explorer)["value"] == (
            explorer.steps_meter.total
        )
        assert value("explorer_fragments_total", explorer)["value"] == (
            explorer.fragments_sent
        )
        assert value("explorer_weight_updates_total", explorer)["value"] == (
            explorer.weight_updates
        )
    for process in cluster.processes():
        endpoint = process.endpoint
        for name, total in (
            ("endpoint_messages_sent_total", endpoint.sent_meter.count),
            ("endpoint_bytes_sent_total", endpoint.sent_meter.total),
            ("endpoint_messages_received_total", endpoint.received_meter.count),
            ("endpoint_bytes_received_total", endpoint.received_meter.total),
        ):
            assert value(name, process)["value"] == total
    assert session.flow_controller.polls == exported(
        result.metrics, "flow_polls_total"
    )["value"] > 0


# -- (c) flow control without the observability stack ----------------------------

def test_flow_control_alone_builds_no_telemetry():
    config = single_machine_config(
        "impala", "CartPole", "actor_critic",
        explorers=1, fragment_steps=25, seed=3,
        stop=StopCondition(total_trained_steps=100, max_seconds=90),
        flow_control=FlowControlSpec(adapt_interval_s=0.01),
    )
    session = XingTianSession(config)
    seen = {}

    class Probe(FlowController):
        """Looks around from inside the run, on the controller's thread."""

        def poll_once(self):
            seen["readers"] = HOP_LOG.readers
            seen["threads"] = {thread.name for thread in threading.enumerate()}
            super().poll_once()

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.obs.flowcontroller.FlowController", Probe)
        result = session.run()
    assert session.telemetry is None and result.metrics == {}
    assert session.flow_controller.polls > 0 and not session.flow_controller.running
    assert seen["readers"] == ()
    assert "flow-controller" in seen["threads"]
    assert "telemetry-sampler" not in seen["threads"]


class SlowFetchStore(InMemoryObjectStore):
    """A consumer whose fetch is the bottleneck (a deserialization-bound
    learner): the backlog forms in its ID queue."""

    def get(self, object_id):
        time.sleep(0.002)
        return super().get(object_id)


def test_single_broker_overload_escalates_with_no_telemetry():
    flow = FlowControlSpec(
        bulk_watermark=32, control_watermark=32, queue_pressure_fraction=0.5,
        escalate_after=2, relax_after=1000, adapt_interval_s=0.01,
    )
    broker = Broker("solo", store=SlowFetchStore(), flow=flow)
    producer = ProcessEndpoint(
        "producer", broker, coalescing=CoalescingSpec(max_message_bytes=64)
    )
    consumer = ProcessEndpoint("consumer", broker)
    controller = FlowController(flow)
    controller.attach_broker(broker)
    controller.attach_endpoint(producer)
    controller.attach_endpoint(consumer)
    broker.start()
    producer.start()
    consumer.start()
    controller.start()
    body = b"x" * 100  # above the coalescing threshold until it is raised

    def flood():
        for _ in range(16):
            producer.send(make_message("producer", ["consumer"], MsgType.DATA, body))

    try:
        wait_for(lambda: controller.degraded, tick=flood)
        # Local traffic never touched the header queue: the signal was the
        # consumer's ID queue (or the producer's send buffer behind it).
        assert broker.communicator.flow_stats()["headers"]["bulk_put"] == 0
        assert producer.coalescing.max_message_bytes >= 128  # the lever moved
        assert HOP_LOG.readers == ()
    finally:
        controller.stop()
        producer.stop()
        consumer.stop()
        broker.stop()
    assert controller.error is None and controller.escalations >= 1
