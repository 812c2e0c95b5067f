"""Unit tests for trace conformance: observed edges — the span correlator's
records — vs the static topology (the integration half lives in
``tests/integration/test_trace_conformance.py``)."""

from __future__ import annotations

import ast
import textwrap

from repro.analysis.topology import (
    conformance_violations,
    extract_topology,
    observed_edges,
)
from repro.obs import SpanRecord


def sent(source: str, msg_type: str, dst: str) -> SpanRecord:
    """One delivered edge, as the correlator records it."""
    return SpanRecord(seq=0, msg_type=msg_type, src=source, dst=dst)


def topology_for(source: str):
    return extract_topology([("mod.py", ast.parse(textwrap.dedent(source)))])


STATIC = """
class ExplorerProcess:
    def push(self, body):
        return make_message(MsgType.ROLLOUT, [self.learner_name], body)
"""


class TestObservedEdges:
    def test_sent_events_become_role_triples(self):
        events = [sent("machine-0.explorer-1", "MsgType.ROLLOUT", "learner")]
        assert observed_edges(events) == {("explorer", "ROLLOUT", "learner")}

    def test_value_style_msgtype_normalized(self):
        # str(MsgType.ROLLOUT) is "MsgType.ROLLOUT" on 3.11 and "rollout"
        # once str-enum __str__ changes — both normalize to the member name.
        events = [sent("explorer-0", "rollout", "learner")]
        assert observed_edges(events) == {("explorer", "ROLLOUT", "learner")}

    def test_multi_destination_fan_out(self):
        # One record per destination that the broadcast was delivered to.
        events = [
            sent("learner", "MsgType.WEIGHTS", "explorer-0"),
            sent("learner", "MsgType.WEIGHTS", "explorer-1"),
        ]
        assert observed_edges(events) == {("learner", "WEIGHTS", "explorer")}

    def test_span_record_msgtype_forms_normalized(self):
        for spelling in ("MsgType.STATS", "stats", "STATS"):
            record = SpanRecord(
                seq=1, msg_type=spelling, src="explorer-0", dst="controller"
            )
            assert observed_edges([record]) == {
                ("explorer", "STATS", "controller")
            }
        # A delivery whose ``sent`` another process recorded has no type
        # (and no source) in this process's records: not an edge.
        assert observed_edges([SpanRecord(seq=1, msg_type="", src="", dst="learner")]) == set()


class TestConformance:
    def test_matching_trace_is_clean(self):
        topology = topology_for(STATIC)
        events = [sent("explorer-0", "MsgType.ROLLOUT", "learner")]
        assert conformance_violations(events, topology) == []

    def test_span_records_flow_through_same_check(self):
        topology = topology_for(STATIC)
        records = [
            SpanRecord(seq=1, msg_type="rollout", src="explorer-0", dst="learner")
        ]
        assert conformance_violations(records, topology) == []
        bad = [
            SpanRecord(seq=2, msg_type="weights", src="learner", dst="explorer-0")
        ]
        assert conformance_violations(bad, topology) == [
            ("learner", "WEIGHTS", "explorer")
        ]

    def test_unknown_edge_is_violation(self):
        topology = topology_for(STATIC)
        events = [sent("learner", "MsgType.WEIGHTS", "explorer-0")]
        assert conformance_violations(events, topology) == [
            ("learner", "WEIGHTS", "explorer")
        ]

    def test_dynamic_static_endpoint_is_wildcard(self):
        topology = topology_for(
            """
            class LearnerProcess:
                def broadcast(self, peers):
                    return make_message(MsgType.WEIGHTS, peers, 0)
            """
        )
        # Static dst is 'dynamic': any observed destination conforms.
        events = [sent("learner", "MsgType.WEIGHTS", "explorer-0")]
        assert conformance_violations(events, topology) == []

    def test_wrong_type_still_violates_despite_wildcard(self):
        topology = topology_for(
            """
            class LearnerProcess:
                def broadcast(self, peers):
                    return make_message(MsgType.WEIGHTS, peers, 0)
            """
        )
        events = [sent("learner", "MsgType.STATS", "controller")]
        assert conformance_violations(events, topology) == [
            ("learner", "STATS", "controller")
        ]
