"""Tests for controllers and stop conditions."""

import time

from repro.core.broker import Broker
from repro.core.config import StopCondition
from repro.core.controller import CenterController, Controller
from repro.core.endpoint import ProcessEndpoint
from repro.core.message import CMD_SHUTDOWN, Command, MsgType, make_message
from repro.core.stats import ProcessStats
from repro.core.supervision import Supervisor
from repro.transport.fabric import Fabric


class _FakeEndpoint:
    def start(self):
        pass


class _FakeProcess:
    def __init__(self):
        self.endpoint = _FakeEndpoint()
        self.started = False
        self.stopped = False

    def run(self):
        self.started = True

    def stop(self):
        self.stopped = True


class TestController:
    def test_start_and_stop_all(self):
        broker = Broker("b")
        controller = Controller("c", broker)
        process = _FakeProcess()
        controller.manage(process)
        controller.start_all()
        assert process.started
        controller.stop_all()
        assert process.stopped
        assert controller.stopped

    def test_stop_all_idempotent(self):
        broker = Broker("b")
        controller = Controller("c", broker)
        controller.start_all()
        controller.stop_all()
        controller.stop_all()

    def test_shutdown_command_over_fabric(self):
        fabric = Fabric("control")
        broker = Broker("b")
        controller = Controller("c", broker, fabric)
        process = _FakeProcess()
        controller.manage(process)
        controller.start_all()
        fabric.send("center", "c", Command(CMD_SHUTDOWN))
        assert controller.stopped
        assert process.stopped
        fabric.close()

    def test_non_shutdown_command_ignored(self):
        fabric = Fabric("control")
        broker = Broker("b")
        controller = Controller("c", broker, fabric)
        controller.start_all()
        fabric.send("x", "c", Command("report_stats"))
        assert not controller.stopped
        controller.stop_all()
        fabric.close()


class TestCenterController:
    def _make(self, stop: StopCondition):
        broker = Broker("b")
        center = CenterController("center", broker, stop)
        return broker, center

    def test_workers_run_after_the_control_plane_started(self):
        """A worker's rollouts compete for the GIL with every thread started
        after it: the supervisor and monitor start first."""
        broker, center = self._make(StopCondition(max_seconds=60))
        supervisor = Supervisor()
        center.attach_supervisor(supervisor)
        seen = []

        class _Worker(_FakeProcess):
            def run(self):
                seen.append((center._monitor is not None, supervisor._thread is not None))

        center.manage(_Worker())
        center.start_all()
        center.stop_all()
        assert seen == [(True, True)]

    def test_collects_stats_messages(self):
        broker, center = self._make(StopCondition(max_seconds=60))
        center.start_all()
        reporter = ProcessEndpoint("reporter", broker)
        reporter.start()
        try:
            report = ProcessStats(source="e0", steps=500, episode_returns=[10.0])
            reporter.send(
                make_message("reporter", ["controller"], MsgType.STATS, report)
            )
            deadline = time.monotonic() + 3
            while center.collector.total_env_steps == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert center.collector.total_env_steps == 500
            assert center.collector.average_return() == 10.0
        finally:
            reporter.stop()
            center.stop_all()

    def test_bodyless_stats_is_skipped_counted_and_still_a_heartbeat(self):
        # Regression: a faulty link can deliver a STATS header whose body is
        # gone; the monitor thread used to die on it (None.episode_returns).
        class _Heartbeats:
            def __init__(self):
                self.seen = []

            def start(self):
                pass

            def stop(self):
                pass

            def observe_heartbeat(self, source):
                self.seen.append(source)

        broker, center = self._make(StopCondition(max_seconds=60))
        heartbeats = _Heartbeats()
        center.attach_supervisor(heartbeats)
        center.start_all()
        reporter = ProcessEndpoint("reporter", broker)
        reporter.start()
        try:
            for body in (None, {"not": "a report"}, ProcessStats(source="e0", steps=7)):
                reporter.send(
                    make_message("reporter", ["controller"], MsgType.STATS, body)
                )
            deadline = time.monotonic() + 3
            while center.collector.total_env_steps == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert center._monitor.is_alive()
            assert center.collector.total_env_steps == 7
            assert center.collector.malformed_reports == 2
            assert center.collector.report_count() == 1
            assert heartbeats.seen == ["reporter"] * 3
        finally:
            reporter.stop()
            center.stop_all()

    def test_should_stop_on_env_steps(self):
        broker, center = self._make(StopCondition(total_env_steps=100))
        center.collector.add(ProcessStats(source="e", steps=150))
        assert center.should_stop() is not None
        center.stop_all()
        broker.stop()

    def test_should_stop_on_trained_steps(self):
        broker, center = self._make(StopCondition(total_trained_steps=100))
        assert center.should_stop() is None
        center.collector.add(
            ProcessStats(source="l", extra={"trained_steps": 200})
        )
        assert "200" in center.should_stop()
        center.stop_all()
        broker.stop()

    def test_should_stop_on_target_return(self):
        broker, center = self._make(StopCondition(target_return=50.0))
        center.collector.add(ProcessStats(source="e", episode_returns=[60.0]))
        assert "target" in center.should_stop()
        center.stop_all()
        broker.stop()

    def test_should_stop_on_time_budget(self):
        broker, center = self._make(StopCondition(max_seconds=0.05))
        center.start_all()
        time.sleep(0.1)
        assert "time budget" in center.should_stop()
        center.stop_all()

    def test_wait_blocks_until_condition(self):
        broker, center = self._make(StopCondition(max_seconds=0.1))
        center.start_all()
        reason = center.wait(poll_interval=0.01)
        assert "time budget" in reason
        assert center.shutdown_reason == reason
        center.stop_all()

    def test_broadcasts_shutdown_to_peers(self):
        fabric = Fabric("control")
        broker_a = Broker("bA")
        broker_b = Broker("bB")
        peer = Controller("peer", broker_b, fabric)
        center = CenterController(
            "center", broker_a, StopCondition(max_seconds=60), control_fabric=fabric
        )
        peer.start_all()
        center.start_all()
        center.stop_all()
        assert peer.stopped
        fabric.close()

    def test_on_shutdown_callback(self):
        called = {}
        broker = Broker("b")
        center = CenterController(
            "center",
            broker,
            StopCondition(max_seconds=60),
            on_shutdown=lambda: called.setdefault("yes", True),
        )
        center.start_all()
        center.stop_all()
        assert called.get("yes")
