"""Chrome-trace export and its validator."""

from __future__ import annotations

import json

from repro.obs.trace import merge
from repro.obs.trace.chrome import (
    CHROME_SCHEMA,
    to_chrome_trace,
    validate_chrome_trace,
)


def _event(ts, kind, source, **detail):
    return {"ts": ts, "kind": kind, "source": source, "detail": detail}


def _chain(trace, seq, base):
    return [
        _event(base, "sent", "explorer", seq=seq, trace=trace,
               span=trace * 2, dst="learner", type="DATA"),
        _event(base + 0.1, "routed", "broker", seq=seq, trace=trace,
               dst="learner"),
        _event(base + 0.2, "delivered", "learner", seq=seq, trace=trace,
               span=trace * 2 + 1, dst="learner"),
        _event(base + 0.3, "consumed", "learner", seq=seq, trace=trace,
               span=trace * 2 + 1, dst="learner"),
    ]


def _sample_merged():
    events = _chain(0x1, 1, 1.0) + _chain(0x2, 2, 1.05) + [
        _event(1.35, "train_start", "learner"),
        _event(1.6, "train_end", "learner"),
        _event(1.0, "stage_begin", "bench", stage="transmission"),
        _event(1.2, "stage_end", "bench", stage="transmission"),
    ]
    return merge([("p", events)])


class TestExport:
    def test_export_validates_and_is_json_serializable(self):
        trace = to_chrome_trace(_sample_merged())
        assert validate_chrome_trace(trace) == []
        json.dumps(trace)  # Perfetto needs plain JSON types throughout
        assert trace["metadata"]["format"] == CHROME_SCHEMA

    def test_tracks_named_after_sources(self):
        trace = to_chrome_trace(_sample_merged())
        names = {
            e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert names == {"explorer", "broker", "learner", "bench"}

    def test_chain_stages_become_slices(self):
        trace = to_chrome_trace(_sample_merged())
        slice_names = {
            e["name"] for e in trace["traceEvents"] if e["ph"] == "B"
        }
        # deliver is deliberately absent: it equals send + route.
        assert slice_names == {
            "send", "route", "consume", "train", "transmission"
        }

    def test_flow_arrows_cross_processes(self):
        trace = to_chrome_trace(_sample_merged())
        starts = [e for e in trace["traceEvents"] if e["ph"] == "s"]
        finishes = [e for e in trace["traceEvents"] if e["ph"] == "f"]
        assert len(starts) == len(finishes) == 2
        for start, finish in zip(starts, finishes):
            assert start["pid"] != finish["pid"]

    def test_terminal_outcome_becomes_instant(self):
        events = _chain(0x3, 3, 1.0)[:2] + [
            _event(1.15, "shed", "queue", seq=3, trace=0x3, dst="learner"),
        ]
        trace = to_chrome_trace(merge([("p", events)]))
        instants = [e for e in trace["traceEvents"] if e["ph"] == "i"]
        assert len(instants) == 1
        assert instants[0]["name"] == "shed"
        assert validate_chrome_trace(trace) == []

    def test_overlapping_slices_get_distinct_lanes(self):
        # Two chains in flight at once on the same sources must not share a
        # (pid, tid) track, or B/E nesting would interleave.
        trace = to_chrome_trace(_sample_merged())
        spans = [e for e in trace["traceEvents"] if e["ph"] in ("B", "E")]
        assert validate_chrome_trace({"traceEvents": spans}) == []
        assert any(e["tid"] > 0 for e in spans)


class TestSlicesOfNoLength:
    """Two hops can read the same clock tick, and across processes an
    effect can be stamped before its cause: the stage between them has no
    length, and its ``E`` must not sort before its own ``B``."""

    @staticmethod
    def _export(delivered_after_routed):
        # One chain routed at 1.100, back to back with one that ends there.
        chain = _chain(0x1, 1, 1.0)
        chain[2]["ts"] = chain[1]["ts"] + delivered_after_routed
        earlier = _chain(0x2, 2, 0.9)
        earlier[2]["ts"] = chain[1]["ts"]  # its route slice ends at 1.100
        return to_chrome_trace(merge([("p", earlier + chain)], align=False))

    def test_equal_timestamps_export_and_validate(self):
        trace = self._export(0.0)
        assert validate_chrome_trace(trace) == []
        complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert [(e["name"], e["dur"]) for e in complete] == [("route", 0.0)]

    def test_effect_before_cause_exports_and_validates(self):
        trace = self._export(-0.002)
        assert validate_chrome_trace(trace) == []
        complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert [(e["name"], e["dur"]) for e in complete] == [("route", 0.0)]

    def test_back_to_back_lane_reuse_still_balances(self):
        spans = [
            e for e in self._export(0.0)["traceEvents"] if e["ph"] in "BE"
        ]
        assert validate_chrome_trace({"traceEvents": spans}) == []
        # Every slice with a length is still a B/E pair: send and consume of
        # both chains, route of the earlier one.
        assert len(spans) == 2 * 5


class TestValidator:
    def test_rejects_non_object(self):
        assert validate_chrome_trace([]) == ["trace must be a JSON object"]
        assert validate_chrome_trace({"traceEvents": 5}) == [
            "traceEvents must be a list"
        ]

    def test_detects_unclosed_begin(self):
        trace = {"traceEvents": [
            {"name": "x", "ph": "B", "pid": 1, "tid": 0, "ts": 1.0},
        ]}
        problems = validate_chrome_trace(trace)
        assert any("unclosed B" in p for p in problems)

    def test_detects_dangling_end(self):
        trace = {"traceEvents": [
            {"name": "x", "ph": "E", "pid": 1, "tid": 0, "ts": 1.0},
        ]}
        problems = validate_chrome_trace(trace)
        assert any("no open B" in p for p in problems)

    def test_detects_nonmonotonic_track(self):
        trace = {"traceEvents": [
            {"name": "x", "ph": "B", "pid": 1, "tid": 0, "ts": 2.0},
            {"name": "x", "ph": "E", "pid": 1, "tid": 0, "ts": 1.0},
        ]}
        problems = validate_chrome_trace(trace)
        assert any("ts" in p and "track" in p for p in problems)

    def test_detects_orphan_flow_finish(self):
        trace = {"traceEvents": [
            {"name": "msg", "ph": "f", "id": "dead", "pid": 1, "tid": 0,
             "ts": 1.0},
        ]}
        problems = validate_chrome_trace(trace)
        assert any("no earlier start" in p for p in problems)

    def test_detects_mismatched_close_name(self):
        trace = {"traceEvents": [
            {"name": "a", "ph": "B", "pid": 1, "tid": 0, "ts": 1.0},
            {"name": "b", "ph": "E", "pid": 1, "tid": 0, "ts": 2.0},
        ]}
        problems = validate_chrome_trace(trace)
        assert any("does not" in p for p in problems)
