"""Trace merging: dedup, clock alignment, chain status, fault integrity.

The merger joins per-process rings into causal chains keyed by trace id.
A lossy/duplicating/reordering fabric must not corrupt the result: dropped
messages become *lost* open chains, duplicated deliveries dedup by span
id, and reordering never yields an effect before its cause.
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
from repro.obs import Telemetry
from repro.obs.trace import merge
from repro.obs.trace.events import TERMINAL_KINDS, load_trace_file
from repro.testing.faults import FaultSpec, FaultyFabric


def _event(ts, kind, source, **detail):
    return {"ts": ts, "kind": kind, "source": source, "detail": detail}


def _chain_events(trace_id=0xA1, span=0x51, drop_after=None):
    events = [
        _event(1.0, "sent", "alice", seq=1, trace=trace_id, span=span,
               dst="bob"),
        _event(1.1, "routed", "broker", seq=1, trace=trace_id, dst="bob"),
        _event(1.2, "delivered", "bob", seq=1, trace=trace_id, span=span + 1,
               dst="bob"),
        _event(1.3, "consumed", "bob", seq=1, trace=trace_id, span=span + 1,
               dst="bob"),
    ]
    return events[:drop_after] if drop_after is not None else events


class TestMergeBasics:
    def test_complete_chain(self):
        merged = merge([("p", _chain_events())])
        assert len(merged.chains) == 1
        chain = merged.chains[0]
        assert chain.status == "complete"
        assert not chain.lost
        assert [e["kind"] for e in chain.events] == [
            "sent", "routed", "delivered", "consumed",
        ]

    def test_duplicates_dropped_by_span(self):
        events = _chain_events()
        merged = merge([("p", events + [dict(events[2])])])
        assert merged.duplicates_dropped == 1
        assert len(merged.chains[0].events) == 4

    def test_dropped_message_marked_lost(self):
        merged = merge([("p", _chain_events(drop_after=2))])
        chain = merged.chains[0]
        assert chain.status == "open"
        assert chain.lost

    def test_delivered_but_unread_is_open_not_lost(self):
        merged = merge([("p", _chain_events(drop_after=3))])
        chain = merged.chains[0]
        assert chain.status == "open"
        assert not chain.lost

    def test_terminal_status_wins(self):
        events = _chain_events(drop_after=2)
        events.append(_event(1.15, "shed", "q", seq=1, trace=0xA1, dst="bob"))
        merged = merge([("p", events)])
        chain = merged.chains[0]
        assert chain.status == "shed"
        assert not chain.lost
        assert merged.chain_stats()["terminal"] == {"shed": 1}

    def test_clock_alignment_restores_causality(self):
        # bob's clock runs 10s behind: its delivered precedes alice's sent.
        alice = [_event(100.0, "sent", "alice", seq=1, trace=0xB, span=1,
                        dst="bob")]
        bob = [
            _event(90.5, "delivered", "bob", seq=1, trace=0xB, span=2,
                   dst="bob"),
            _event(90.6, "consumed", "bob", seq=1, trace=0xB, span=2,
                   dst="bob"),
        ]
        merged = merge([("alice", alice), ("bob", bob)])
        assert merged.offsets["bob"] >= 9.5
        chain = merged.chains[0]
        kinds_in_ts_order = [
            e["kind"] for e in sorted(chain.events, key=lambda e: e["ts"])
        ]
        assert kinds_in_ts_order.index("sent") < kinds_in_ts_order.index(
            "delivered"
        )

    def test_merged_to_dict_is_schema_tagged(self):
        merged = merge([("p", _chain_events())])
        doc = merged.to_dict()
        assert doc["format"] == "repro.trace.merged/v1"
        assert doc["chain_stats"]["complete"] == 1


def _two_way_trace(skew=None):
    """A center and two edges with traffic both ways, as a process session
    leaves it: rollouts edge -> center, weights center -> both edges, each
    hop 1 ms after the last, wire stages included.  ``skew`` shifts the
    timestamps one process stamped (its clock is off by that much)."""
    skew = skew or {}
    traces = {"center": [], "a": [], "b": []}

    def emit(process, ts, kind, source, **detail):
        traces[process].append(
            _event(ts + skew.get(process, 0.0), kind, source, **detail)
        )

    trace_ids = iter(range(1, 1000))
    for tick in range(20):
        base = 100.0 + tick * 0.010
        for edge in ("a", "b"):
            trace = next(trace_ids)
            detail = dict(seq=tick, trace=trace, dst="learner")
            emit(edge, base, "sent", f"{edge}.explorer", span=trace * 2, **detail)
            emit(edge, base + 0.001, "routed", f"{edge}.router", **detail)
            emit(edge, base + 0.0012, "stage_begin", f"wire:{edge}", stage="wire_send", **detail)
            emit(edge, base + 0.0014, "stage_end", f"wire:{edge}", stage="wire_send", **detail)
            emit("center", base + 0.0016, "stage_begin", "listen", stage="wire_deliver", **detail)
            emit("center", base + 0.0018, "stage_end", "listen", stage="wire_deliver", **detail)
            emit("center", base + 0.002, "delivered", "learner", span=trace * 2 + 1, **detail)
            emit("center", base + 0.003, "consumed", "learner", span=trace * 2 + 1, **detail)
        trace = next(trace_ids)
        detail = dict(seq=tick, trace=trace, dst="a.explorer,b.explorer")
        emit("center", base + 0.004, "sent", "learner", span=trace * 2, **detail)
        emit("center", base + 0.005, "routed", "center.router", **detail)
        for edge in ("a", "b"):
            emit("center", base + 0.0052, "stage_begin", f"wire:{edge}", stage="wire_send", **detail)
            emit("center", base + 0.0054, "stage_end", f"wire:{edge}", stage="wire_send", **detail)
            emit(edge, base + 0.006, "delivered", f"{edge}.explorer", span=trace * 2 + 1, **detail)
            emit(edge, base + 0.007, "consumed", f"{edge}.explorer", span=trace * 2 + 1, **detail)
    return list(traces.items())


def _effects_before_causes(merged):
    order = ("sent", "routed", "delivered", "consumed")
    found = 0
    for chain in merged.chains:
        stamps = [chain.first(kind)["ts"] for kind in order]
        found += sum(later < earlier for earlier, later in zip(stamps, stamps[1:]))
    return found


class TestTwoWayAlignment:
    """Traffic both ways constrains every pair of clocks in both
    directions: alignment must not invent offsets (the stage events of a
    chain constrain nothing), and must still find a real one."""

    def test_consistent_clocks_are_left_alone(self):
        merged = merge(_two_way_trace())
        assert merged.offsets == {"center": 0.0, "a": 0.0, "b": 0.0}
        assert merged.clock_violations == 0
        assert _effects_before_causes(merged) == 0
        assert merged.chain_stats()["complete"] == 60

    def test_alignment_never_adds_disorder(self):
        raw = merge(_two_way_trace(), align=False)
        aligned = merge(_two_way_trace())
        assert _effects_before_causes(aligned) <= _effects_before_causes(raw)

    @pytest.mark.parametrize("skew", [-0.050, 0.050])
    def test_a_skewed_process_is_still_corrected(self, skew):
        traces = _two_way_trace(skew={"b": skew})
        assert _effects_before_causes(merge(traces, align=False)) == 20
        merged = merge(traces)
        assert _effects_before_causes(merged) == 0
        assert merged.clock_violations == 0
        # Offsets are relative: b ends up within a hop of the others.
        correction = merged.offsets["b"] - merged.offsets["center"]
        assert abs(correction + skew) <= 0.002
        assert abs(merged.offsets["a"] - merged.offsets["center"]) <= 0.002

    def test_inconsistent_constraints_report_the_residual(self):
        """b stamps its sends late and its deliveries early: no offset
        satisfies both directions.  The raw timestamps are kept unless the
        relaxed ones are no worse, and what is left is reported."""
        traces = dict(_two_way_trace())
        for event in traces["b"]:
            event["ts"] += 0.050 if event["kind"] in ("sent", "routed") else -0.050
        raw = merge(list(traces.items()), align=False)
        merged = merge(list(traces.items()))
        assert merged.clock_violations > 0
        assert _effects_before_causes(merged) <= _effects_before_causes(raw)
        assert merged.to_dict()["clock_violations"] == merged.clock_violations


@pytest.fixture(scope="module")
def faulty_trace(tmp_path_factory):
    """A two-machine run over a drop/duplicate/reorder fabric, exported."""
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
        telemetry=TelemetrySpec(sample_interval=0.02),
    )
    config.validate()
    fabric = FaultyFabric(
        "lossy-data",
        spec=FaultSpec(drop=0.15, duplicate=0.15, reorder=0.15,
                       delay=0.1, delay_s=0.002),
        seed=13,
    )
    cluster = build_cluster(config, data_fabric=fabric)
    telemetry = Telemetry.from_spec(config.telemetry)
    telemetry.attach_cluster(cluster)
    cluster.start()
    telemetry.start()
    try:
        cluster.center.wait()
    finally:
        telemetry.stop()
        cluster.stop()
    path = str(tmp_path_factory.mktemp("faulty") / "run.jsonl")
    telemetry.export_trace(path, process="run")
    merged = merge([load_trace_file(path)])
    return merged, fabric


class TestFaultIntegrity:
    """Satellite: faults must not corrupt the merged trace."""

    def test_fabric_was_actually_faulty(self, faulty_trace):
        _, fabric = faulty_trace
        counts = fabric.fault_counts()
        assert counts["dropped"] > 0
        assert counts["duplicated"] > 0
        assert counts["reordered"] > 0

    def test_chains_deduped_by_span(self, faulty_trace):
        merged, _ = faulty_trace
        for chain in merged.chains:
            keys = [
                (e["kind"], e["source"],
                 e["detail"].get("span") or e["detail"].get("trace"),
                 e["detail"].get("seq"))
                for e in chain.events
            ]
            assert len(keys) == len(set(keys)), (
                f"duplicate events in chain {chain.trace_hex}"
            )

    def test_every_chain_has_definite_status(self, faulty_trace):
        merged, _ = faulty_trace
        allowed = {"complete", "open", *TERMINAL_KINDS}
        for chain in merged.chains:
            assert chain.status in allowed
            # Lost = open with no delivery and no terminal outcome.
            if chain.lost:
                assert chain.status == "open"
                kinds = {e["kind"] for e in chain.events}
                assert "delivered" not in kinds
                assert not kinds.intersection(TERMINAL_KINDS)

    def test_stats_account_for_every_chain(self, faulty_trace):
        merged, _ = faulty_trace
        stats = merged.chain_stats()
        assert stats["total"] == len(merged.chains) > 0
        assert stats["complete"] > 0, "no traffic survived the faults?"
        terminal_total = sum(stats["terminal"].values())
        assert (
            stats["complete"] + stats["open"] + terminal_total
            == stats["total"]
        )

    def test_causality_holds_within_chains(self, faulty_trace):
        merged, _ = faulty_trace
        for chain in merged.chains:
            sent = chain.first("sent")
            consumed = chain.last("consumed")
            if sent is not None and consumed is not None:
                assert consumed["ts"] >= sent["ts"], chain.trace_hex
