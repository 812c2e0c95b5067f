"""Live equals post-mortem: one ring, one correlator.

The span aggregator polls packed records off the ring while a run is live;
a dump of the same ring, merged and analyzed offline, goes through the same
matcher (:class:`repro.obs.spans.Correlator`).  So the two views of one
plane's traffic — a 3-way WEIGHTS fan-out, coalesced BATCH envelopes, a
destination rejected out of a fan-out, shed bulk messages — agree on every
stage's count and total duration, on the terminal outcomes and on the
observed edges.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import asdict

import pytest

from repro.core.broker import Broker
from repro.core.config import CoalescingSpec, FlowControlSpec
from repro.core.endpoint import ProcessEndpoint
from repro.core.message import MsgType, make_message
from repro.core.tracing import HOP_LOG, configure
from repro.obs import STAGES, MetricsRegistry, SpanAggregator
from repro.obs.trace import analyze, load_trace_file, merge

LEARNER = "learner"
EXPLORERS = [f"machine-0.explorer-{index}" for index in range(3)]
ROLLOUTS = 40
WATERMARK = 64
FLOOD = 96  # bulk messages, too big to coalesce, for an endpoint that never reads


def _wait(condition, what, timeout=20.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, f"never happened: {what}"
        time.sleep(0.005)


@pytest.fixture(scope="module")
def both_views(tmp_path_factory):
    """``(aggregator, its registry, analysis)`` of one run: the first two
    polled live, the last made post-mortem of a dump."""
    configure(enabled=True, capacity=1 << 14)
    registry = MetricsRegistry()
    aggregator = SpanAggregator(registry).attach()
    broker = Broker(
        "plane", on_unroutable="drop", coalescing=CoalescingSpec(),
        flow=FlowControlSpec(bulk_watermark=WATERMARK),
    )
    endpoints = {
        name: ProcessEndpoint(name, broker) for name in [LEARNER, *EXPLORERS, "slow"]
    }
    learner, explorer = endpoints[LEARNER], endpoints[EXPLORERS[0]]
    broker.start()
    for endpoint in endpoints.values():
        endpoint.start()
    try:
        learner.send(make_message(LEARNER, EXPLORERS, MsgType.WEIGHTS, {"w": 1}))
        for name in EXPLORERS:
            assert endpoints[name].receive(timeout=10) is not None
        for index in range(ROLLOUTS):  # small and back to back: coalesced
            explorer.send(make_message(explorer.name, [LEARNER], MsgType.ROLLOUT, index))
        for _ in range(ROLLOUTS):
            assert learner.receive(timeout=10) is not None
        assert broker.communicator.object_store.total_put < ROLLOUTS + 1
        # One destination of a fan-out is nobody: dropped, the other served.
        learner.send(make_message(LEARNER, [EXPLORERS[1], "ghost"], MsgType.COMMAND, 0))
        assert endpoints[EXPLORERS[1]].receive(timeout=10) is not None
        _wait(lambda: broker.router.dropped == 1, "the ghost's copy dropped")
        aggregator.poll()  # mid-run, as the sampler's sweep would
        for _ in range(FLOOD):
            learner.send(make_message(LEARNER, ["slow"], MsgType.DATA, bytes(8192)))
        _wait(lambda: learner.send_buffer.qsize() == 0, "the flood left the sender")
        _wait(
            lambda: aggregator.stats().terminated["shed"] >= FLOOD - WATERMARK,
            "the flood shed down to the watermark",
        )
    finally:
        for endpoint in endpoints.values():
            endpoint.stop()
        broker.stop()
    aggregator.detach()
    path = HOP_LOG.dump(
        str(tmp_path_factory.mktemp("dump") / "plane.bin"), reason="post-mortem"
    )
    configure(enabled=True)
    yield aggregator, registry, analyze(merge([load_trace_file(path)]))


def test_same_stage_counts_and_durations(both_views):
    _, registry, analysis = both_views
    live = defaultdict(lambda: [0, 0.0])
    for metric in registry.collect():
        if metric.name == "message_stage_seconds":
            stage = dict(metric.labels)["stage"]
            live[stage][0] += metric.instrument.count
            live[stage][1] += metric.instrument.sum
    assert set(live) == set(STAGES)
    for stage in STAGES:
        count, total = live[stage]
        assert analysis["stages"][stage]["count"] == count, stage
        assert analysis["stages"][stage]["total_s"] == pytest.approx(total), stage
    # The traffic was what the docstring says it was.
    assert live["deliver"][0] >= 3 + ROLLOUTS + 1 + WATERMARK
    assert live["consume"][0] == 3 + ROLLOUTS + 1


def test_same_outcomes_and_correlation_health(both_views):
    aggregator, _, analysis = both_views
    assert aggregator.missed == 0
    assert asdict(aggregator.stats()) == analysis["spans"]
    terminated = analysis["spans"]["terminated"]
    assert terminated["rejected"] == 1 and terminated["shed"] >= FLOOD - WATERMARK
    assert analysis["spans"]["negative_durations"] == 0
    assert sum(analysis["spans"]["unmatched_ends"].values()) == 0


def test_same_edges(both_views):
    aggregator, _, analysis = both_views
    assert [list(edge) for edge in aggregator.edges()] == analysis["edges"]
    assert set(aggregator.edges()) >= {
        (LEARNER, "weights", name) for name in EXPLORERS
    } | {(EXPLORERS[0], "rollout", LEARNER), (LEARNER, "command", EXPLORERS[1])}
    assert not any(dst == "ghost" for _, _, dst in aggregator.edges())
