"""Acceptance: an instrumented session exports the promised telemetry.

One short CartPole run with ``telemetry=TelemetrySpec()`` must produce a
validating ``repro.obs/v1`` JSON snapshot containing per-stage message
latency histograms for every lifecycle stage and MsgType on the data path,
queue-depth gauge series, and the trainer/explorer process counters — and
a Prometheus exposition that parses line by line.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro import StopCondition, single_machine_config
from repro.core.config import FlowControlSpec, TelemetrySpec
from repro.core.errors import LifecycleError
from repro.core.tracing import HOP_LOG
from repro.obs import STAGES, parse_prometheus, validate_snapshot
from repro.runtime import XingTianSession


@pytest.fixture(scope="module")
def instrumented_run():
    config = single_machine_config(
        "impala", "CartPole", "actor_critic",
        explorers=2, fragment_steps=25,
        stop=StopCondition(total_trained_steps=300, max_seconds=30),
        seed=7,
    )
    config.telemetry = TelemetrySpec(sample_interval=0.02)
    config.validate()
    session = XingTianSession(config)
    result = session.run()
    return session, result


def metrics_by_name(snapshot_doc):
    grouped = {}
    for metric in snapshot_doc["metrics"]:
        grouped.setdefault(metric["name"], []).append(metric)
    return grouped


def test_snapshot_validates(instrumented_run):
    _, result = instrumented_run
    assert result.metrics, "telemetry run produced no snapshot"
    assert validate_snapshot(result.metrics) == []
    # Stays valid through serialization (what emit_metrics writes to disk).
    assert validate_snapshot(json.loads(json.dumps(result.metrics))) == []


def test_all_stages_per_msg_type(instrumented_run):
    _, result = instrumented_run
    stage_metrics = metrics_by_name(result.metrics)["message_stage_seconds"]
    seen = {
        (metric["labels"]["stage"], metric["labels"]["type"])
        for metric in stage_metrics
        if metric["count"] > 0
    }
    for stage in STAGES:
        assert (stage, "rollout") in seen
        assert (stage, "weights") in seen


def test_edge_histograms_align_with_topology(instrumented_run):
    _, result = instrumented_run
    edges = metrics_by_name(result.metrics)["message_edge_stage_seconds"]
    observed = {
        (m["labels"]["src_role"], m["labels"]["type"], m["labels"]["dst_role"])
        for m in edges
        if m["count"] > 0
    }
    assert ("explorer", "rollout", "learner") in observed
    assert ("learner", "weights", "explorer") in observed


def test_queue_depth_gauge_series(instrumented_run):
    _, result = instrumented_run
    grouped = metrics_by_name(result.metrics)
    depths = grouped["broker_id_queue_depth"]
    assert depths
    for metric in depths:
        assert metric["series"], "sampler recorded no depth samples"
    assert grouped["broker_header_queue_depth"]
    assert grouped["object_store_objects"]
    assert grouped["endpoint_send_backlog"]
    assert grouped["endpoint_receive_backlog"]


def test_process_instruments(instrumented_run):
    _, result = instrumented_run
    grouped = metrics_by_name(result.metrics)
    (wait,) = grouped["trainer_wait_seconds"]
    (train,) = grouped["trainer_train_seconds"]
    assert wait["count"] > 0
    assert train["count"] > 0
    (sessions,) = grouped["trainer_train_sessions_total"]
    assert sessions["value"] > 0
    assert sum(m["value"] for m in grouped["explorer_env_steps_total"]) > 0
    assert sum(m["value"] for m in grouped["explorer_fragments_total"]) > 0
    assert sum(m["value"] for m in grouped["endpoint_messages_sent_total"]) > 0
    (ticks,) = grouped["sampler_ticks_total"]
    assert ticks["value"] > 0


def test_span_health_in_meta(instrumented_run):
    _, result = instrumented_run
    spans = result.metrics["meta"]["spans"]
    for stage in STAGES:
        assert spans["matched"][stage] > 0
    assert spans["negative_durations"] == 0
    # Every record of the run was read off the ring before it was lapped.
    assert spans["missed"] == 0


def test_a_start_that_raises_leaves_no_observer_behind(monkeypatch):
    """Telemetry and the flow controller start inside the session's ``try``:
    when a start raises — here the cluster's, last of the three — their
    threads are stopped and their hop-log readers closed."""
    config = single_machine_config(
        "impala", "CartPole", "actor_critic", explorers=1,
        stop=StopCondition(max_seconds=5), seed=7,
        telemetry=TelemetrySpec(), flow_control=FlowControlSpec(),
    )
    session = XingTianSession(config)

    def refuse():
        raise LifecycleError("injected: the cluster refuses to start")

    monkeypatch.setattr(session.build(), "start", refuse)
    threads = set(threading.enumerate())
    readers = HOP_LOG.readers
    with pytest.raises(LifecycleError, match="injected"):
        session.run()
    assert HOP_LOG.readers == readers
    assert [
        thread.name for thread in threading.enumerate()
        if thread not in threads and thread.is_alive()
    ] == []
    assert not session.telemetry.sampler.running
    assert not session.flow_controller.running


def test_prometheus_parses(instrumented_run):
    session, _ = instrumented_run
    samples = parse_prometheus(session.telemetry.prometheus())
    names = {sample["name"] for sample in samples}
    assert "xt_message_stage_seconds_bucket" in names
    assert "xt_broker_id_queue_depth" in names
    assert "xt_trainer_wait_seconds_count" in names


def test_span_records_conform_to_static_topology(instrumented_run):
    """Satellite: span records feed the same conformance path as raw events."""
    from pathlib import Path

    from repro.analysis.engine import parse_tree_reporting_errors
    from repro.analysis.topology import conformance_violations, extract_topology

    session, _ = instrumented_run
    records = session.telemetry.span_records()
    assert records
    repo_root = Path(__file__).resolve().parents[2]
    sources, errors = parse_tree_reporting_errors(str(repo_root / "src"))
    assert errors == []
    topology = extract_topology(sources)
    assert conformance_violations(records, topology) == []


def test_telemetry_off_by_default():
    config = single_machine_config(
        "impala", "CartPole", "actor_critic",
        explorers=1, fragment_steps=25,
        stop=StopCondition(total_trained_steps=50, max_seconds=20),
        seed=3,
    )
    session = XingTianSession(config)
    result = session.run()
    assert session.telemetry is None
    assert result.metrics == {}
