"""Span correlation must survive a lossy, duplicating, reordering fabric.

Dropped messages leave unmatched starts, duplicates replay end events,
reordering inverts timestamps — none of which may crash the aggregator,
grow its memory, or produce negative recorded durations.  Lost spans show
up in the unmatched counters instead of disappearing silently.
"""

from __future__ import annotations

import pytest

from repro.cluster.cluster import build_cluster
from repro.core.config import (
    MachineSpec,
    StopCondition,
    TelemetrySpec,
    XingTianConfig,
)
from repro.obs import STAGES, Telemetry, validate_snapshot
from repro.testing.faults import FaultSpec, FaultyFabric


@pytest.fixture(scope="module")
def faulty_run():
    """Two machines over a drop/duplicate/reorder data fabric."""
    config = XingTianConfig(
        algorithm="dqn",
        environment="CartPole",
        model="qnet",
        machines=[
            MachineSpec("m0", explorers=1, has_learner=True),
            MachineSpec("m1", explorers=2),
        ],
        fragment_steps=20,
        stop=StopCondition(max_seconds=3.0),
        seed=7,
        telemetry=TelemetrySpec(sample_interval=0.02, max_pending_spans=256),
    )
    config.validate()
    data_fabric = FaultyFabric(
        "lossy-data",
        spec=FaultSpec(drop=0.1, duplicate=0.1, reorder=0.1, delay=0.1, delay_s=0.002),
        seed=13,
    )
    cluster = build_cluster(config, data_fabric=data_fabric)
    telemetry = Telemetry.from_spec(config.telemetry)
    telemetry.attach_cluster(cluster)
    cluster.start()
    telemetry.start()
    try:
        reason = cluster.center.wait()
    finally:
        telemetry.stop()
        cluster.stop()
    return telemetry, data_fabric, reason


def test_run_survives_faults(faulty_run):
    telemetry, data_fabric, reason = faulty_run
    assert "time budget" in reason
    counts = data_fabric.fault_counts()
    assert counts["dropped"] > 0, "fabric was not actually lossy"
    assert counts["duplicated"] > 0
    assert counts["reordered"] > 0


def test_spans_still_match_on_surviving_messages(faulty_run):
    telemetry, _, _ = faulty_run
    stats = telemetry.span_stats()
    for stage in STAGES:
        assert stats.matched[stage] > 0, (
            f"no {stage} spans despite traffic: {stats}, "
            f"missed {telemetry.spans.missed}"
        )


def test_no_negative_durations_recorded(faulty_run):
    # Duplicates keep the earliest start and reordering cannot make an end
    # precede it, so nothing negative may reach the histograms.
    telemetry, _, _ = faulty_run
    stats = telemetry.span_stats()
    assert stats.negative_durations == 0


def test_losses_surface_as_unmatched_not_silence(faulty_run):
    telemetry, data_fabric, _ = faulty_run
    stats = telemetry.span_stats()
    # Local (intra-machine) delivery bypasses the faulty fabric, so not
    # every drop becomes an unmatched span — but the counters must at least
    # be tracked and non-negative, and the pending maps bounded.
    assert all(value >= 0 for value in stats.unmatched_ends.values())
    assert all(value >= 0 for value in stats.evicted_starts.values())
    assert telemetry.spans.pending() <= 256
    # Nothing was lost unseen either: the sweeps kept up with the ring.
    assert telemetry.spans.missed == 0


def test_snapshot_still_validates_under_faults(faulty_run):
    telemetry, _, _ = faulty_run
    snapshot_doc = telemetry.snapshot(meta={"run": "faulty"})
    assert validate_snapshot(snapshot_doc) == []
    spans_meta = snapshot_doc["meta"]["spans"]
    assert spans_meta["negative_durations"] == 0
