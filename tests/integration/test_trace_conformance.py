"""Trace conformance: every edge observed at runtime must exist in the
statically extracted communication topology.

This is the closing of the loop promised by the analysis layer — the static
graph (``docs/topology.json``) is not documentation, it is checked against
what a live cluster actually sends.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from repro import StopCondition, single_machine_config
from repro.analysis.engine import parse_tree_reporting_errors
from repro.analysis.topology import (
    conformance_violations,
    extract_topology,
    observed_edges,
)
from repro.cluster.cluster import build_cluster
from repro.obs import MetricsRegistry, SpanAggregator

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def static_topology():
    sources, errors = parse_tree_reporting_errors(str(REPO_ROOT / "src"))
    assert errors == []
    return extract_topology(sources)


def test_live_cluster_trace_conforms_to_static_topology(static_topology, tracer):
    config = single_machine_config(
        "impala", "CartPole", "actor_critic",
        explorers=2, fragment_steps=25,
        stop=StopCondition(total_trained_steps=200, max_seconds=30),
        seed=11,
    )
    cluster = build_cluster(config)
    cluster.start()
    try:
        deadline = time.monotonic() + 30
        while cluster.center.should_stop() is None:
            cluster.raise_worker_errors()
            assert time.monotonic() < deadline, "cluster never reached the stop"
            time.sleep(0.02)
    finally:
        cluster.stop()

    # The hop log is process-wide: keep what this cluster's endpoints sent.
    endpoints = {
        process.endpoint.name
        for process in [cluster.learner, *cluster.explorers, cluster.center]
    }
    spans = SpanAggregator(MetricsRegistry())
    spans.ingest(event for event in tracer.dicts() if event["source"] in endpoints)
    records = spans.records()
    observed = observed_edges(records)
    # The trace must actually exercise the paper's data path...
    assert ("explorer", "ROLLOUT", "learner") in observed
    assert ("learner", "WEIGHTS", "explorer") in observed
    # ...and contain nothing the static topology does not predict.
    violations = conformance_violations(records, static_topology)
    assert violations == [], f"runtime edges missing from static graph: {violations}"
