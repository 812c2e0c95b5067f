"""Critical-path analyzer: stage attribution and the Table 1 split."""

from __future__ import annotations

import pytest

from repro import StopCondition, XingTianSession, single_machine_config
from repro.obs.trace import merge
from repro.obs.trace.critical import analyze, format_report


def pytest_approx(value):
    return pytest.approx(value, rel=1e-6, abs=1e-9)


def _event(ts, kind, source, **detail):
    return {"ts": ts, "kind": kind, "source": source, "detail": detail}


def _message_chain(trace, seq, sent, routed, delivered, consumed):
    return [
        _event(sent, "sent", "explorer", seq=seq, trace=trace, span=trace * 2,
               dst="learner"),
        _event(routed, "routed", "broker", seq=seq, trace=trace,
               dst="learner"),
        _event(delivered, "delivered", "learner", seq=seq, trace=trace,
               span=trace * 2 + 1, dst="learner"),
        _event(consumed, "consumed", "learner", seq=seq, trace=trace,
               span=trace * 2 + 1, dst="learner"),
    ]


class TestChainStages:
    def test_gaps_become_stage_summaries(self):
        events = _message_chain(0x1, 1, 1.0, 1.2, 1.5, 1.6)
        report = analyze(merge([("p", events)]))
        stages = report["stages"]
        assert stages["send"]["total_s"] == pytest_approx(0.2)
        assert stages["route"]["total_s"] == pytest_approx(0.3)
        assert stages["deliver"]["total_s"] == pytest_approx(0.5)
        assert stages["consume"]["total_s"] == pytest_approx(0.1)
        assert stages["deliver"]["count"] == 1

    def test_multiple_chains_accumulate(self):
        events = (
            _message_chain(0x1, 1, 1.0, 1.1, 1.2, 1.3)
            + _message_chain(0x2, 2, 2.0, 2.1, 2.4, 2.5)
        )
        report = analyze(merge([("p", events)]))
        deliver = report["stages"]["deliver"]
        assert deliver["count"] == 2
        assert deliver["total_s"] == pytest_approx(0.2 + 0.4)
        assert deliver["max_s"] == pytest_approx(0.4)


class TestExplicitStages:
    def test_begin_end_pairs_are_matched_per_source(self):
        events = [
            _event(1.0, "stage_begin", "bench.A", stage="transmission"),
            _event(1.0, "stage_begin", "bench.B", stage="transmission"),
            _event(1.5, "stage_end", "bench.A", stage="transmission"),
            _event(2.0, "stage_end", "bench.B", stage="transmission"),
        ]
        report = analyze(merge([("p", events)], align=False))
        stage = report["stages"]["transmission"]
        assert stage["count"] == 2
        assert stage["total_s"] == pytest_approx(0.5 + 1.0)

    def test_precomputed_stage_seconds(self):
        events = [
            _event(1.0, "stage", "bench", stage="train", seconds=0.25),
        ]
        report = analyze(merge([("p", events)], align=False))
        assert report["stages"]["train"]["total_s"] == pytest_approx(0.25)

    def test_unmatched_end_is_ignored(self):
        events = [_event(1.0, "stage_end", "bench", stage="transmission")]
        report = analyze(merge([("p", events)], align=False))
        assert "transmission" not in report["stages"]


class TestTransmissionVsTrain:
    def test_explicit_stages_win(self):
        events = _message_chain(0x1, 1, 1.0, 1.1, 1.2, 1.3) + [
            _event(1.0, "stage_begin", "bench", stage="transmission"),
            _event(1.4, "stage_end", "bench", stage="transmission"),
            _event(1.4, "stage_begin", "bench", stage="train"),
            _event(1.5, "stage_end", "bench", stage="train"),
        ]
        split = analyze(merge([("p", events)]))["transmission_vs_train"]
        assert split["transmission_from"] == "stage_events"
        assert split["train_from"] == "stage_events"
        assert split["transmission_s"] == pytest_approx(0.4)
        assert split["train_s"] == pytest_approx(0.1)
        assert split["ratio"] == pytest_approx(4.0)

    def test_falls_back_to_chain_gaps_and_sessions(self):
        events = _message_chain(0x1, 1, 1.0, 1.1, 1.5, 1.6) + [
            _event(1.6, "train_start", "learner"),
            _event(1.85, "train_end", "learner"),
        ]
        split = analyze(merge([("p", events)]))["transmission_vs_train"]
        assert split["transmission_from"] == "chain_deliver_gaps"
        assert split["train_from"] == "train_sessions"
        assert split["transmission_s"] == pytest_approx(0.5)
        assert split["train_s"] == pytest_approx(0.25)

    def test_zero_train_yields_null_ratio(self):
        events = _message_chain(0x1, 1, 1.0, 1.1, 1.2, 1.3)
        split = analyze(merge([("p", events)]))["transmission_vs_train"]
        assert split["ratio"] is None


class TestIterations:
    def test_gating_chain_attribution(self):
        # Two iterations; each gated by the chain consumed just before it.
        events = (
            _message_chain(0x1, 1, 1.0, 1.1, 1.2, 1.3)
            + [
                _event(1.4, "train_start", "learner"),
                _event(1.6, "train_end", "learner"),
            ]
            + _message_chain(0x2, 2, 1.5, 1.6, 1.7, 1.8)
            + [
                _event(1.9, "train_start", "learner"),
                _event(2.2, "train_end", "learner"),
            ]
        )
        report = analyze(merge([("p", events)]))
        iterations = report["iterations"]
        assert len(iterations) == 2
        first, second = iterations
        assert first["train_s"] == pytest_approx(0.2)
        assert first["gate_trace"] == "%016x" % 0x1
        assert first["wait_s"] == pytest_approx(0.1)  # consumed 1.3, start 1.4
        assert first["stages"]["deliver"] == pytest_approx(0.2)
        assert second["gate_trace"] == "%016x" % 0x2
        assert second["wait_s"] == pytest_approx(0.1)

    def test_iteration_without_gate_still_reported(self):
        events = [
            _event(1.0, "train_start", "learner"),
            _event(1.5, "train_end", "learner"),
        ]
        report = analyze(merge([("p", events)], align=False))
        (iteration,) = report["iterations"]
        assert iteration["train_s"] == pytest_approx(0.5)
        assert "gate_trace" not in iteration


class TestRealSession:
    def test_iterations_are_the_learners_training_sessions(self, tracer, monkeypatch):
        """The learner brackets every ``algorithm.train()`` with
        ``train_start`` / ``train_end``: a traced session's report has one
        iteration per training session and a train side to its split."""
        # The hop log is process-wide: a name of its own keeps this
        # learner's events apart from any other test's.
        monkeypatch.setattr("repro.cluster.cluster.LEARNER_NAME", "learner-traced")
        config = single_machine_config(
            "impala", "CartPole", "actor_critic", explorers=2,
            fragment_steps=32,
            model_config={"hidden_sizes": [16]},
            stop=StopCondition(total_trained_steps=640, max_seconds=90.0),
            seed=0,
        )
        session = XingTianSession(config)
        result = session.run()
        events = [
            event for event in tracer.dicts()
            if not event["kind"].startswith("train_") or event["source"] == "learner-traced"
        ]
        report = analyze(merge([("session", events)]))
        # The result is collected when the stop condition fires; the
        # learner may train on until the cluster stops it.
        sessions = session.cluster.learner.train_sessions
        assert len(report["iterations"]) == sessions >= result.train_sessions > 0
        assert {iteration["source"] for iteration in report["iterations"]} == {"learner-traced"}
        split = report["transmission_vs_train"]
        assert split["train_from"] == "train_sessions"
        # The events bracket what the learner's own recorder times.
        assert split["train_s"] >= session.cluster.learner.train_recorder.sum > 0
        assert "iterations: %d" % sessions in format_report(report)


class TestFormatReport:
    def test_report_renders_all_sections(self):
        events = _message_chain(0x1, 1, 1.0, 1.1, 1.2, 1.3) + [
            _event(1.4, "train_start", "learner"),
            _event(1.6, "train_end", "learner"),
        ]
        text = format_report(analyze(merge([("p", events)])))
        assert "deliver" in text
        assert "transmission" in text
        assert "chains: 1 total, 1 complete" in text
        assert "iterations: 1" in text

    def test_empty_trace_renders_zero_split(self):
        text = format_report(analyze(merge([])))
        assert "transmission 0.000000s" in text
        assert "chains: 0 total" in text
        assert format_report({}) == "(empty trace)"
