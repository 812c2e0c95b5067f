"""Overload benchmark: bounded queues and lane latency under 2x load.

Drives a flow-controlled broker at roughly twice the rate its (throttled)
consumer can sustain, with a weight broadcast threaded through the bulk
flood, and verifies the three acceptance bars from the overload-control
ISSUE:

* **bounded queues** — ID-queue, send-buffer and receive-buffer depths
  never exceed their watermarks; the overflow is absorbed by shedding the
  *oldest* bulk entries, never by unbounded growth (the header queue
  carries remote-bound headers only, so on this one-broker topology it
  stays empty and is not a bar);
* **bounded arena** — shared-memory arena occupancy never exceeds its
  capacity;
* **priority lanes** — p99 delivery latency of control/weights traffic is
  at least ``MIN_CONTROL_ADVANTAGE``x lower than bulk traffic's, because
  control overtakes the bulk backlog at every queue.

A second, short scenario closes the loop: the consumer's *receiver thread*
is the bottleneck (a throttled store fetch, as for a deserialization-bound
learner), so the backlog stands in its **ID queue**; a
:class:`~repro.obs.flowcontroller.FlowController` running with no
telemetry must see that depth, escalate, and — by raising the coalescing
threshold over the body size — clear the backlog it saw.

Results land in ``BENCH_overload.json`` at the repo root (the committed
baseline the ``overload-smoke`` CI job regenerates and gates on).  The
run is short by design — a few seconds — so CI can afford it; set
``OVERLOAD_SECONDS`` for longer soak runs.
"""

from __future__ import annotations

import json
import os
import threading
import time

import pytest

from repro.core.broker import Broker
from repro.core.concurrency import spawn_thread
from repro.core.config import CoalescingSpec, FlowControlSpec
from repro.core.endpoint import ProcessEndpoint
from repro.core.message import MsgType, make_message
from repro.core.object_store import SharedMemoryObjectStore
from repro.bench.reporting import format_table, ratio
from repro.obs import FlowController

from .conftest import emit

BENCH_JSON = os.path.join(
    os.path.dirname(__file__), os.pardir, "BENCH_overload.json"
)

#: acceptance bar: control p99 latency must beat bulk p99 by this factor
MIN_CONTROL_ADVANTAGE = 3.0
#: acceptance bar: offered load must be at least this multiple of drained
MIN_OVERLOAD_FACTOR = 2.0

RUN_SECONDS = float(os.environ.get("OVERLOAD_SECONDS", "4.0"))

#: consumer throttle: <= CONSUME_BATCH messages per CONSUME_SLEEP_S seconds
#: (~2.7k msgs/s drain ceiling)
CONSUME_BATCH = 16
CONSUME_SLEEP_S = 0.006

#: producer pacing: one burst per sleep ≈ 6.4k msgs/s, roughly 2.5x what
#: the throttled consumer can drain — the ISSUE's "2x sustainable load"
#: regime, where a *standing* bulk backlog forms and control must
#: overtake it (an unpaced flood just churns the shed path instead:
#: delivered bulk stays artificially young because everything older was
#: already dropped)
FLOOD_BURST = 32
FLOOD_SLEEP_S = 0.005

FLOW = FlowControlSpec(
    bulk_watermark=256,
    control_watermark=32,
    control_deadline_s=5.0,
    # The adaptation loop is benchmarked indirectly (tests/integration);
    # here the controller is left off so the measured bounds are the
    # *static* watermark guarantees, not a moving target.
    adapt_interval_s=60.0,
)


#: the escalation scenario: every store fetch of the consumer's receiver
#: thread costs this much (~2k fetches/s against ~6k offered messages/s)
FETCH_SLEEP_S = 0.0003
ESCALATION_SECONDS = 2.0
ADAPTIVE_FLOW = FlowControlSpec(
    bulk_watermark=256,
    control_watermark=32,
    adapt_interval_s=0.02,
    relax_after=10_000,  # hold the degraded state for the assertions
)
#: below the body size, so bodies travel one per header until the
#: controller's first escalation doubles it
BASELINE_COALESCING = CoalescingSpec(max_message_bytes=1024)


class ThrottledFetchStore(SharedMemoryObjectStore):
    """The consumer's bottleneck: each fetch sleeps (releasing the GIL, as
    an out-of-interpreter copy would)."""

    def get(self, object_id):
        time.sleep(FETCH_SLEEP_S)
        return super().get(object_id)


def _run_escalation() -> dict:
    """Single-broker overload must reach the controller and be relieved."""
    flow = ADAPTIVE_FLOW
    broker = Broker(
        "esc-broker", store=ThrottledFetchStore(), flow=flow,
        coalescing=BASELINE_COALESCING,
    )
    broker.start()
    producer = ProcessEndpoint("esc-src", broker)
    sink = ProcessEndpoint("esc-dst", broker)
    producer.start()
    sink.start()
    controller = FlowController(flow)  # reads the broker; no telemetry
    controller.attach_broker(broker)
    controller.attach_endpoint(producer)
    controller.attach_endpoint(sink)
    controller.start()
    body = b"x" * 2048
    id_queue = broker.communicator.id_queue("esc-dst")
    started = time.monotonic()
    escalated_after = None
    max_id_depth = drained = 0
    try:
        while time.monotonic() - started < ESCALATION_SECONDS:
            for _ in range(FLOOD_BURST):
                producer.send(
                    make_message("esc-src", ["esc-dst"], MsgType.DATA, body)
                )
            drained += len(sink.receive_many(4096, timeout=0.0))
            max_id_depth = max(max_id_depth, id_queue.qsize())
            if escalated_after is None and controller.degraded:
                escalated_after = time.monotonic() - started
            time.sleep(FLOOD_SLEEP_S)
        settled_id_depth = id_queue.qsize()
    finally:
        controller.stop()
        producer.stop()
        sink.stop()
        broker.stop()
    return {
        "escalations": controller.escalations,
        "escalated_after_s": escalated_after,
        "max_id_queue_depth": max_id_depth,
        "settled_id_queue_depth": settled_id_depth,
        "pressure_threshold": flow.queue_pressure_fraction * flow.bulk_watermark,
        "queue_bound": flow.bulk_watermark + flow.control_watermark,
        "coalescing_bytes_before": BASELINE_COALESCING.max_message_bytes,
        "coalescing_bytes_after": producer.coalescing.max_message_bytes,
        "header_queue_puts": broker.communicator.flow_stats()["headers"]["bulk_put"],
        "drained_msgs": drained,
    }


def _percentile(samples: list, fraction: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(len(ordered) * fraction))
    return ordered[index]


def _run_overload() -> dict:
    store = SharedMemoryObjectStore()
    broker = Broker("ovl-broker", store=store, flow=FLOW)
    broker.start()
    producer = ProcessEndpoint("ovl-src", broker)
    sink = ProcessEndpoint("ovl-dst", broker)
    producer.start()
    sink.start()

    bulk_body = b"x" * 2048
    weight_body = b"w" * 2048
    stop = threading.Event()
    offered = [0, 0]  # bulk, control

    def flood():
        # Bulk floods unthrottled; weight broadcasts tick at a fixed (and
        # realistic) ~20 Hz — it is the *bulk* overload whose backlog the
        # control lane must overtake, not a control-plane flood.
        last_weights = 0.0
        while not stop.is_set():
            for _ in range(FLOOD_BURST):
                producer.send(
                    make_message("ovl-src", ["ovl-dst"], MsgType.DATA, bulk_body)
                )
            offered[0] += FLOOD_BURST
            time.sleep(FLOOD_SLEEP_S)
            now = time.monotonic()
            if now - last_weights >= 0.05:
                producer.send(
                    make_message(
                        "ovl-src", ["ovl-dst"], MsgType.WEIGHTS, weight_body
                    )
                )
                offered[1] += 1
                last_weights = now

    bulk_ages: list = []
    control_ages: list = []
    max_depths = {"id": 0, "send": 0, "recv": 0}
    arena_peak = 0
    arena_capacity = 0

    try:
        flooder = spawn_thread("ovl-flood", flood)
        deadline = time.monotonic() + RUN_SECONDS
        while time.monotonic() < deadline:
            # Throttled consumer: the drain rate cap is what makes the
            # offered load an overload rather than a steady state.
            batch = sink.receive_many(CONSUME_BATCH, timeout=0.05)
            now = time.monotonic()
            for message in batch:
                age = max(message.age(now), 0.0)
                if message.msg_type is MsgType.WEIGHTS:
                    control_ages.append(age)
                else:
                    bulk_ages.append(age)
            # Depth/occupancy probes ride the consumer loop, so bounds are
            # checked continuously, not just at the end.
            for name, lanes in broker.communicator.lane_depths().items():
                if name.startswith("id."):
                    max_depths["id"] = max(max_depths["id"], sum(lanes.values()))
            max_depths["send"] = max(
                max_depths["send"], producer.send_buffer.qsize()
            )
            max_depths["recv"] = max(
                max_depths["recv"], sink.receive_buffer.qsize()
            )
            arena = getattr(store, "arena", None)
            if arena is not None:
                arena_stats = arena.stats()
                arena_peak = max(arena_peak, arena_stats["allocated_bytes"])
                arena_capacity = arena_stats["capacity_bytes"]
            time.sleep(CONSUME_SLEEP_S)
        stop.set()
        flooder.join(timeout=10.0)
        drained = len(bulk_ages) + len(control_ages)
        shed = sum(
            stats["bulk_shed"]
            for stats in broker.communicator.flow_stats().values()
        )
        shed += producer.send_buffer.flow_stats()["bulk_shed"]
        shed += sink.receive_buffer.flow_stats()["bulk_shed"]
    finally:
        stop.set()
        producer.stop()
        sink.stop()
        broker.stop()

    total_offered = offered[0] + offered[1]
    return {
        "regime": {
            "run_seconds": RUN_SECONDS,
            "bulk_watermark": FLOW.bulk_watermark,
            "control_watermark": FLOW.control_watermark,
            "consume_batch": CONSUME_BATCH,
            "consume_sleep_s": CONSUME_SLEEP_S,
            "body_bytes": len(bulk_body),
        },
        "load": {
            "offered_msgs": total_offered,
            "drained_msgs": drained,
            "offered_msgs_per_s": total_offered / RUN_SECONDS,
            "drained_msgs_per_s": drained / RUN_SECONDS,
            "overload_factor": ratio(total_offered, max(drained, 1)),
            "shed_total": shed,
        },
        "bounds": {
            "max_id_queue_depth": max_depths["id"],
            "max_send_backlog": max_depths["send"],
            "max_receive_backlog": max_depths["recv"],
            "queue_bound": FLOW.bulk_watermark + FLOW.control_watermark,
            "arena_peak_bytes": arena_peak,
            "arena_capacity_bytes": arena_capacity,
        },
        "latency": {
            "bulk_delivered": len(bulk_ages),
            "control_delivered": len(control_ages),
            "bulk_p50_s": _percentile(bulk_ages, 0.50),
            "bulk_p99_s": _percentile(bulk_ages, 0.99),
            "control_p50_s": _percentile(control_ages, 0.50),
            "control_p99_s": _percentile(control_ages, 0.99),
            "control_advantage_p99": ratio(
                _percentile(bulk_ages, 0.99),
                max(_percentile(control_ages, 0.99), 1e-9),
            ),
        },
    }


@pytest.mark.benchmark(group="overload")
def test_overload(once):
    results = once(lambda: {**_run_overload(), "escalation": _run_escalation()})

    load = results["load"]
    bounds = results["bounds"]
    latency = results["latency"]
    escalation = results["escalation"]
    rows = [
        ["offered (msgs/s)", f"{load['offered_msgs_per_s']:,.0f}"],
        ["drained (msgs/s)", f"{load['drained_msgs_per_s']:,.0f}"],
        ["overload factor", f"{load['overload_factor']:.1f}x"],
        ["bulk shed", load["shed_total"]],
        ["max ID-queue depth", bounds["max_id_queue_depth"]],
        ["queue bound (watermarks)", bounds["queue_bound"]],
        ["arena peak / capacity (MB)",
         f"{bounds['arena_peak_bytes'] / 2**20:.1f} / "
         f"{bounds['arena_capacity_bytes'] / 2**20:.1f}"],
        ["bulk p99 latency (ms)", f"{latency['bulk_p99_s'] * 1e3:.1f}"],
        ["control p99 latency (ms)", f"{latency['control_p99_s'] * 1e3:.1f}"],
        ["control p99 advantage", f"{latency['control_advantage_p99']:.1f}x"],
        ["slow fetch: escalations", escalation["escalations"]],
        ["slow fetch: max / settled ID-queue depth",
         f"{escalation['max_id_queue_depth']} / "
         f"{escalation['settled_id_queue_depth']}"],
        ["slow fetch: coalescing bytes",
         f"{escalation['coalescing_bytes_before']} -> "
         f"{escalation['coalescing_bytes_after']}"],
    ]
    emit(
        "overload",
        format_table(["metric", "value"], rows,
                     title="Overload control (2x sustainable load)"),
    )

    with open(BENCH_JSON, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")

    # -- acceptance gates (the ISSUE's bars, also the CI overload-smoke
    # job's "no unbounded queue growth" guarantee) ------------------------
    assert load["overload_factor"] >= MIN_OVERLOAD_FACTOR, (
        f"offered load only {load['overload_factor']:.2f}x drained; "
        "the regime is not an overload"
    )
    bound = bounds["queue_bound"]
    assert bounds["max_id_queue_depth"] <= bound, (
        f"ID queue grew to {bounds['max_id_queue_depth']} (> {bound})"
    )
    assert bounds["max_send_backlog"] <= bound, (
        f"send buffer grew to {bounds['max_send_backlog']} (> {bound})"
    )
    assert bounds["arena_peak_bytes"] <= bounds["arena_capacity_bytes"], (
        "arena occupancy exceeded capacity"
    )
    assert bounds["max_receive_backlog"] <= bound, (
        f"receive buffer grew to {bounds['max_receive_backlog']} (> {bound})"
    )
    assert latency["control_delivered"] > 0, "no weights delivered under load"
    assert latency["control_advantage_p99"] >= MIN_CONTROL_ADVANTAGE, (
        f"control p99 only {latency['control_advantage_p99']:.2f}x better "
        f"than bulk (need >= {MIN_CONTROL_ADVANTAGE}x)"
    )

    # -- the feedback loop (single broker, no telemetry) ------------------
    assert escalation["header_queue_puts"] == 0  # local traffic: ID queues only
    assert escalation["escalations"] >= 1, (
        "the flow controller never escalated: single-broker overload is "
        "invisible to it"
    )
    # The depth bar bites here: a standing backlog formed, and admission
    # bounded it ...
    assert (
        escalation["pressure_threshold"]
        <= escalation["max_id_queue_depth"]
        <= escalation["queue_bound"]
    ), escalation
    # ... and the lever the controller pulled cleared it.
    assert (
        escalation["coalescing_bytes_after"] > escalation["coalescing_bytes_before"]
    )
    assert escalation["settled_id_queue_depth"] < escalation["pressure_threshold"], (
        "the backlog outlived the adaptation"
    )
