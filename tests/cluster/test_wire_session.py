"""The wire deployment mode end to end: real sockets under a full cluster.

One short training session runs with ``transport="wire"`` — explorer
rollouts and learner weight broadcasts cross loopback TCP — and the
fabric's trace events are merged (PR 8 tooling) to show the socket hop as
an explicit link stage on the timeline.
"""

import pytest

from repro.cluster import run_wire_session, two_machine_wire_config
from repro.core.config import (
    MachineSpec,
    StopCondition,
    SupervisionSpec,
    TelemetrySpec,
    XingTianConfig,
)
from repro.obs.trace.critical import analyze
from repro.obs.trace.merge import merge


def _short_config(**overrides):
    """Stops on work done, not on wall time: the run ends when the learner
    has trained on rollouts that crossed the sockets, however loaded the
    box is; ``max_seconds`` is only the ceiling that fails a hung run,
    below the suite's 120 s per-test watchdog so that it can."""
    overrides.setdefault(
        "algorithm_config", {"learn_start": 256, "buffer_size": 5000}
    )
    return two_machine_wire_config(
        stop=StopCondition(total_trained_steps=320, max_seconds=90.0),
        **overrides,
    )


class TestConfig:
    def test_transport_field_validated(self):
        config = _short_config()
        assert config.transport == "wire"
        with pytest.raises(Exception):
            XingTianConfig(
                algorithm="dqn", environment="CartPole", model="qnet",
                transport="carrier-pigeon",
            ).validate()

    def test_machine_address_validated(self):
        with pytest.raises(Exception):
            MachineSpec("m0", address="no-port-here").validate()
        MachineSpec("m0", address="127.0.0.1:9000").validate()

    def test_two_machine_helper_checks_addresses(self):
        with pytest.raises(ValueError):
            two_machine_wire_config(addresses=["127.0.0.1:9000"])


class TestWireSession:
    @pytest.fixture(scope="class")
    def report(self):
        return run_wire_session(_short_config(), trace=True)

    def test_trains_over_real_sockets(self, report):
        assert report.result.shutdown_reason.startswith("consumed")
        assert report.result.total_trained_steps >= 320
        assert report.wire_bytes_sent > 0
        assert report.wire_items_received > 0

    def test_no_protocol_errors(self, report):
        for name, stats in report.link_stats.items():
            if name.startswith("listen:"):
                assert stats["protocol_errors"] == 0, name

    def test_send_path_is_scatter_gather(self, report):
        for name, stats in report.link_stats.items():
            if name.startswith("listen:"):
                continue
            if stats["items_sent"] > 0:
                assert stats["syscalls_per_message"] <= 2.0, (name, stats)

    def test_wire_hop_is_a_real_link_stage_in_merged_trace(self, report):
        """The socket hop must appear as an explicit stage (PR 8 merge)."""
        merged = merge([("wire-fabric", report.trace_events)])
        stages = analyze(merged)["stages"]
        assert "wire_send" in stages
        assert "wire_deliver" in stages
        assert stages["wire_send"]["count"] >= 1
        assert stages["wire_send"]["mean_s"] >= 0.0

    def test_telemetry_runs_through_the_wire_lifecycle(self):
        """The wire mode is the one session lifecycle around a socket
        fabric: a config's telemetry (and supervision) applies to it."""
        config = _short_config(
            telemetry=TelemetrySpec(), supervision=SupervisionSpec()
        )
        report = run_wire_session(config)
        names = {metric["name"] for metric in report.result.metrics["metrics"]}
        assert "endpoint_messages_sent_total" in names
        assert "wire_link_bytes_sent" in names
        assert report.result.extra["restarts"] == 0.0
        assert report.wire_bytes_sent > 0

    def test_requires_wire_transport(self):
        config = _short_config()
        config.transport = "sim"
        with pytest.raises(ValueError):
            run_wire_session(config)
