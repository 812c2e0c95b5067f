"""Hop-log ring (flight recorder) overhead guard.

The ring is *always on* — every send/route/deliver/consume packs one
32-byte record into a preallocated ring — so it must be close to free.
The recorder only touches the message path, and the smoke workload runs
~1400 env steps/s but only ~100 message hops/s, so a direct A/B
throughput comparison there would drown the ~µs-scale cost in multi-
percent run-to-run noise.  The guard instead measures the per-message
cost where it is actually visible — a message-dominated pump — and then
bounds the recorder's share of a real smoke-workload run using that
run's own message counts.  Both inputs are low-variance, so the <2%
claim is checked deterministically instead of flaking on machine load.
"""

from __future__ import annotations

import time

from repro.bench.harness import run_training_xingtian
from repro.core.broker import Broker
from repro.core.config import TelemetrySpec
from repro.core.endpoint import ProcessEndpoint
from repro.core.message import MsgType, make_message
from repro.core.tracing import HOP_LOG, HopLog, configure

from .test_overhead import SMOKE_KWARGS

MAX_WORKLOAD_FRACTION = 0.02  # recorder may cost at most 2% of a smoke run

PUMP_MESSAGES = 1500
# Per message the recorder packs ~4 records (sent, routed, delivered,
# consumed).  ~5-10us measured end to end; the budget absorbs slow CI
# boxes while still catching an allocation or serialization sneaking in.
MAX_COST_PER_MESSAGE_S = 50e-6

# A single emit() is two dict hits + one pack_into under a lock:
# ~1us measured.
MAX_RECORD_COST_S = 25e-6


def _pump_once(enabled: bool) -> float:
    """Seconds to push messages through send -> route -> deliver -> consume."""
    configure(enabled=enabled)
    broker = Broker("flightrec-bench")
    broker.start()
    alice = ProcessEndpoint("alice", broker)
    bob = ProcessEndpoint("bob", broker)
    alice.start()
    bob.start()
    try:
        body = {"payload": list(range(16))}
        started = time.perf_counter()
        for _ in range(PUMP_MESSAGES):
            alice.send(make_message("alice", ["bob"], MsgType.DATA, body))
        received = 0
        while received < PUMP_MESSAGES:
            assert bob.receive(timeout=10.0) is not None
            received += 1
        elapsed = time.perf_counter() - started
    finally:
        alice.stop()
        bob.stop()
        broker.stop()
    if enabled:
        assert HOP_LOG.total >= 4 * PUMP_MESSAGES  # four hops per message
    return elapsed


def test_flight_recorder_overhead_under_2_percent():
    try:
        baseline = min(_pump_once(False) for _ in range(3))
        instrumented = min(_pump_once(True) for _ in range(3))
    finally:
        configure(enabled=True)
    per_message = max(0.0, instrumented - baseline) / PUMP_MESSAGES
    assert per_message < MAX_COST_PER_MESSAGE_S, (
        f"recorder costs {per_message * 1e6:.1f}us per message "
        f"(budget {MAX_COST_PER_MESSAGE_S * 1e6:.0f}us)"
    )

    # Project that cost onto a real smoke-workload run via its own
    # message counts (telemetry on, so the snapshot carries them).
    result = run_training_xingtian(
        "ppo", telemetry=TelemetrySpec(), **SMOKE_KWARGS
    )
    message_hops = sum(
        metric["value"]
        for metric in result.metrics["metrics"]
        if metric["name"] in (
            "endpoint_messages_sent_total", "endpoint_messages_received_total"
        )
    )
    assert message_hops > 0
    recorder_share = (per_message * message_hops) / result.elapsed_s
    assert recorder_share < MAX_WORKLOAD_FRACTION, (
        f"recorder costs {recorder_share:.2%} of the smoke workload "
        f"({message_hops:.0f} hops x {per_message * 1e6:.1f}us "
        f"over {result.elapsed_s:.1f}s)"
    )


def test_emit_call_within_absolute_budget():
    recorder = HopLog("bench", capacity=1024)
    header = make_message("alice", ["bob"], MsgType.DATA, None).header
    count = 50_000
    started = time.perf_counter()
    for _ in range(count):
        recorder.emit("sent", "alice.send", header)
    elapsed = time.perf_counter() - started
    per_record = elapsed / count
    assert per_record < MAX_RECORD_COST_S, (
        f"emit() costs {per_record * 1e6:.1f}us "
        f"(budget {MAX_RECORD_COST_S * 1e6:.0f}us)"
    )
    assert recorder.total == count
    assert recorder.count == 1024


def test_recording_continues_through_ring_wrap():
    """Wrap-around must not degenerate (no compaction, no reallocation)."""
    recorder = HopLog("bench", capacity=64)
    for seq in range(10_000):
        recorder.emit("sent", "alice.send", {"seq": seq})
    events = recorder.events()
    assert len(events) == 64
    assert events[-1]["detail"]["seq"] == 9_999
