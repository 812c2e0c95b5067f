"""Telemetry overhead guard.

The paper's entire point is communication efficiency, so the observability
layer is only acceptable if it does not eat the win.  Two guards:

* **Workload guard** — the CI smoke workload (compute-charged modelled env,
  the same shape the Fig. 6-11 benchmarks use) must keep >90% of its
  metrics-off training throughput with the full registry + hop-log
  subscriber + span aggregation + sampler enabled.
* **Hot-path budget** — a raw message-pump microbenchmark bounds the
  absolute per-message instrumentation cost.  A pump saturates on
  microsecond-scale bodies, so a relative bound there would just measure
  Python function-call overhead; the absolute budget instead catches
  pathological regressions (e.g. an O(n) store scan sneaking onto the
  sampling path) without flaking on scheduler noise.
"""

from __future__ import annotations

import time

import pytest

from repro.bench.harness import run_training_xingtian
from repro.core.broker import Broker
from repro.core.config import TelemetrySpec
from repro.core.endpoint import ProcessEndpoint
from repro.core import tracing
from repro.core.message import MsgType, make_message
from repro.core.tracing import HOP_LOG, TraceEvent
from repro.obs import Telemetry

SMOKE_KWARGS = dict(
    environment="BeamRider",
    env_config={"obs_shape": (42, 42), "step_compute_s": 0.0002},
    explorers=2,
    fragment_steps=50,
    algorithm_config={"lr": 3e-4, "epochs": 1, "minibatch_size": 50},
    max_seconds=3.0,
    seed=0,
)
MAX_OVERHEAD = 0.10  # fraction of baseline throughput telemetry may cost

PUMP_MESSAGES = 1500
# Absolute per-message budget for tracer + spans + counters + histograms
# across all four lifecycle events.  Measured ~50-60us on an idle machine;
# the margin absorbs slow CI boxes without hiding an order-of-magnitude
# regression.
MAX_COST_PER_MESSAGE_S = 300e-6


def smoke_throughput(spec):
    best = 0.0
    for _ in range(2):
        result = run_training_xingtian("ppo", telemetry=spec, **SMOKE_KWARGS)
        best = max(best, result.throughput_steps_per_s)
    return best


def test_workload_overhead_under_10_percent():
    baseline = smoke_throughput(None)
    instrumented = smoke_throughput(TelemetrySpec())
    assert instrumented >= (1.0 - MAX_OVERHEAD) * baseline, (
        f"telemetry costs {(baseline - instrumented) / baseline:.1%} of "
        f"throughput ({baseline:.0f}/s -> {instrumented:.0f}/s)"
    )


def pump_once(instrumented: bool) -> float:
    """Seconds to push messages through send -> route -> deliver -> consume."""
    broker = Broker("bench-broker")
    broker.start()
    alice = ProcessEndpoint("alice", broker)
    bob = ProcessEndpoint("bob", broker)
    telemetry = None
    if instrumented:
        telemetry = Telemetry(sample_interval=0.01)
        telemetry.attach_broker(broker)
        telemetry.attach_endpoint(alice)
        telemetry.attach_endpoint(bob)
    alice.start()
    bob.start()
    if telemetry is not None:
        telemetry.start()
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
        if telemetry is not None:
            telemetry.stop()
        alice.stop()
        bob.stop()
        broker.stop()
    if telemetry is not None:
        # The run must actually have exercised the instruments.
        assert telemetry.span_stats().matched["deliver"] > 0
    return elapsed


def test_hot_path_cost_within_budget():
    baseline = min(pump_once(False) for _ in range(3))
    instrumented = min(pump_once(True) for _ in range(3))
    per_message = (instrumented - baseline) / PUMP_MESSAGES
    assert per_message < MAX_COST_PER_MESSAGE_S, (
        f"instrumentation costs {per_message * 1e6:.0f}us per message "
        f"(budget {MAX_COST_PER_MESSAGE_S * 1e6:.0f}us)"
    )


def test_uninstrumented_pays_nothing():
    """There is nothing for telemetry to switch on inside an endpoint — it
    holds no registry instrument, only its own meters and recorders — and
    the hop log, with no subscriber, builds no TraceEvent: it pays for its
    ring record and nothing else."""
    built = []

    class Spy(TraceEvent):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    broker = Broker("plain-broker")
    broker.start()
    solo = ProcessEndpoint("solo", broker)
    solo.start()
    try:
        assert not HOP_LOG.subscribers
        before = HOP_LOG.total
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tracing, "TraceEvent", Spy)
            solo.send(make_message("solo", ["solo"], MsgType.DATA, {"k": 1}))
            assert solo.receive(timeout=10.0) is not None
        assert HOP_LOG.total - before >= 4  # sent, routed, delivered, consumed
        assert not built
    finally:
        solo.stop()
        broker.stop()
