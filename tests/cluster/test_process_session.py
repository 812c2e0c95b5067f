"""The process deployment: one OS process per machine, one data plane.

``run_process_session`` forks a child per non-learner machine; each child
runs the same brokers, endpoints and explorers the thread deployment runs,
joined to the learner's machine by the wire fabric.  Every run here stops
on work done (``total_trained_steps``); ``max_seconds`` is only the ceiling
that fails a hung run.
"""

import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time

import pytest

from repro.cluster import (
    build_cluster,
    processes,
    run_process_session,
    two_machine_wire_config,
)
from repro.core.broker import Broker
from repro.core.concurrency import spawn_thread
from repro.core.config import (
    MachineSpec,
    StopCondition,
    SupervisionSpec,
    XingTianConfig,
)
from repro.core.errors import ConfigError, RefcountLeakError, TrainingFailedError
from repro.core.tracing import Tracer
from repro.obs.trace.chrome import to_chrome_trace, validate_chrome_trace
from repro.obs.trace.critical import analyze
from repro.obs.trace.merge import merge

pytestmark = pytest.mark.skipif(
    sys.platform != "linux", reason="fork, /proc and /dev/shm assumed"
)

CEILING_S = 120.0


def _config(algorithm="impala", *, steps=1024, children=2, **overrides):
    """The learner alone on ``m0``, one explorer on each child machine."""
    overrides.setdefault("fragment_steps", 32)
    machines = [MachineSpec("m0", explorers=0, has_learner=True)] + [
        MachineSpec(f"m{index + 1}", explorers=1) for index in range(children)
    ]
    return XingTianConfig(
        algorithm=algorithm,
        environment="CartPole",
        model="actor_critic",
        machines=machines,
        transport="wire",
        model_config={"hidden_sizes": [16]},
        algorithm_config={"lr": 1e-3},
        stop=StopCondition(total_trained_steps=steps, max_seconds=CEILING_S),
        seed=0,
        **overrides,
    )


def _our_children():
    return [
        child for child in multiprocessing.active_children()
        if child.name.startswith("repro-")
    ]


def _gone(pid):
    """No such process, or a zombie nobody has waited for yet."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] == "Z"
    except OSError:
        return True


# -- fork hygiene -------------------------------------------------------------
#: thread idents alive in the launcher at each fork, while a test listens
_AT_FORK = []
_LISTENING = []


def _record_fork():
    if _LISTENING:
        _AT_FORK.append({thread.ident for thread in threading.enumerate()})


os.register_at_fork(before=_record_fork)


class TestProcessSession:
    @pytest.fixture(scope="class")
    def run(self):
        """One traced IMPALA run over two child machines, and what the
        launcher's process looked like before and after it."""
        before = {
            "threads": set(threading.enumerate()),
            "shm": sorted(os.listdir("/dev/shm")),
        }
        # Fragments long enough that the learner keeps up with both
        # explorers: what it has not consumed when the run stops is an open
        # chain, and a backlog would be one per queued rollout.
        report = run_process_session(
            _config(steps=40_000, fragment_steps=128), trace=True
        )
        after = {
            "threads": set(threading.enumerate()),
            "shm": sorted(os.listdir("/dev/shm")),
            "children": _our_children(),
        }
        return report, before, after

    def test_end_to_end_training_across_processes(self, run):
        report, _, _ = run
        result = report.result
        assert result.shutdown_reason.startswith("consumed")
        assert result.total_trained_steps >= 40_000
        assert result.train_sessions >= 8
        assert result.throughput_steps_per_s > 0
        assert report.wire_items_received > 0
        assert report.wire_bytes_sent > 0

    def test_no_protocol_errors_in_any_process(self, run):
        report, _, _ = run
        listeners = [name for name in report.link_stats if name.startswith("listen:")]
        assert sorted(listeners) == [
            "listen:m0.broker", "listen:m1.broker", "listen:m2.broker"
        ]
        for name in listeners:
            assert report.link_stats[name]["protocol_errors"] == 0, name

    def test_children_leave_by_themselves(self, run):
        """Shutdown is a message: exit code 0 (the store audit passed, this
        suite runs under REPRO_RUNTIME_CHECKS=1), nobody terminated."""
        report, _, after = run
        assert report.exit_codes == {"m1": 0, "m2": 0}
        assert after["children"] == []

    def test_launcher_is_left_as_it_was(self, run):
        _, before, after = run
        assert after["threads"] <= before["threads"]
        assert after["shm"] == before["shm"]

    def test_weights_flow_back(self, run):
        """Both directions crossed: the learner's broadcasts were delivered
        to, and consumed by, the explorers in the child processes."""
        report, _, _ = run
        # A child's own ring does not say what it consumed — the type is on
        # the ``sent`` record, in the learner's process: the merged chain
        # has both.
        consumers = set()
        for chain in merge(report.traces).chains:
            sent, consumed = chain.first("sent"), chain.last("consumed")
            if sent and consumed and sent["detail"]["type"] == "weights":
                assert (sent["process"], sent["source"]) == ("m0", "learner")
                consumers.add((consumed["process"], consumed["source"]))
        assert consumers == {("m1", "m1.explorer-0"), ("m2", "m2.explorer-0")}

    def test_episode_returns_collected(self, run):
        """Statistics cross processes as the STATS messages they are."""
        report, _, _ = run
        result = report.result
        assert result.total_env_steps > 0
        assert result.episode_count > 0
        assert result.returns
        assert result.average_return is not None

    def test_per_process_traces_join_into_chains(self, run):
        report, _, _ = run
        assert [process for process, _ in report.traces] == ["m0", "m1", "m2"]
        merged = merge(report.traces)
        assert merged.offsets == {"m0": 0.0, "m1": 0.0, "m2": 0.0}
        assert merged.clock_violations == 0
        stats = merged.chain_stats()
        assert stats["total"] > 400
        assert stats["complete"] >= 0.95 * stats["total"], stats
        # Every chain that crossed processes (the learner's STATS to the
        # controller do not) holds both halves of its socket hop.
        crossed = [
            chain for chain in merged.chains if chain.status == "complete"
            and chain.first("sent")["process"] != chain.first("delivered")["process"]
        ]
        assert len(crossed) >= 0.9 * stats["complete"]
        for chain in crossed:
            stages = {event["detail"].get("stage") for event in chain.events}
            assert {"wire_send", "wire_deliver"} <= stages, chain.trace_hex
        analysis = analyze(merged)
        assert analysis["stages"]["wire_send"]["count"] >= len(crossed)
        assert analysis["stages"]["wire_deliver"]["count"] >= len(crossed)
        # The result is collected when the stop condition fires; the
        # learner trains on until the cluster stops it.
        assert len(analysis["iterations"]) >= report.result.train_sessions
        assert analysis["transmission_vs_train"]["train_s"] > 0
        assert validate_chrome_trace(to_chrome_trace(merged)) == []


@pytest.mark.parametrize("algorithm", ["ppo", "a2c"])
def test_on_policy_algorithms_train_across_processes(algorithm):
    """An on-policy explorer waits for the learner's weights before every
    fragment, the learner for a rollout from every explorer: both
    directions must work for a single step to be trained."""
    report = run_process_session(_config(algorithm, steps=512))
    assert report.result.total_trained_steps >= 512
    assert report.result.train_sessions >= 4
    assert report.exit_codes == {"m1": 0, "m2": 0}


def test_large_weights_cross_to_the_children_on_the_lane():
    """A model whose weights are over 256 KiB: every broadcast from the
    learner's process reaches each child as a shared-memory block handle,
    every block comes back, and /dev/shm is as it was afterwards."""
    before = sorted(os.listdir("/dev/shm"))
    config = _config(steps=1024)
    config.model_config = {"hidden_sizes": [192, 192]}
    report = run_process_session(config)
    assert report.exit_codes == {"m1": 0, "m2": 0}
    for child in ("m1", "m2"):
        out = report.link_stats[f"m0.broker->{child}.broker"]
        assert out["lane_shipments"] > 0, out
        assert out["lane_bytes"] >= 256 * 1024 * out["lane_shipments"]
        assert out["lane_fallbacks"] == 0
        arrived = report.link_stats[f"listen:{child}.broker"]
        assert 0 < arrived["lane_arrivals"] <= out["lane_shipments"]
        assert arrived["protocol_errors"] == 0
    assert sorted(os.listdir("/dev/shm")) == before


def test_forks_before_anything_of_the_run_exists(monkeypatch, tmp_path):
    """No thread of this run is alive in the launcher at any fork (a child
    of a threaded parent can inherit a lock somebody held), and the child
    starts with its main thread alone.  Threads earlier tests left behind
    are not this run's: only what appeared since the call counts."""
    host_machine = processes._host_machine

    def recording_host_machine(config, machine, pipe, trace):
        names = [thread.name for thread in threading.enumerate()]
        (tmp_path / machine).write_text("\n".join(names), encoding="ascii")
        host_machine(config, machine, pipe, trace)

    monkeypatch.setattr(processes, "_host_machine", recording_host_machine)
    before = {thread.ident for thread in threading.enumerate()}
    del _AT_FORK[:]
    _LISTENING.append(True)
    try:
        run_process_session(_config(steps=256))
    finally:
        del _LISTENING[:]
    assert len(_AT_FORK) == 2
    for alive in _AT_FORK:
        assert alive <= before
    for machine in ("m1", "m2"):
        assert (tmp_path / machine).read_text(encoding="ascii") == "MainThread"


def test_killed_child_fails_the_run():
    """SIGKILL one child mid-run: the run fails naming its machine, well
    inside the ceiling, and the other child is seen out."""
    tracer = Tracer(1 << 16).attach()
    killed = []

    def kill_one_once_training():
        # This machine hosts no explorer: whatever the learner consumes is
        # a rollout that crossed from a child.
        deadline = time.monotonic() + CEILING_S
        while (
            len(tracer.events("consumed", "learner")) < 6
            and time.monotonic() < deadline
        ):
            time.sleep(0.01)
        victim = next(child for child in _our_children() if child.name == "repro-m1")
        killed.append(victim.pid)
        os.kill(victim.pid, signal.SIGKILL)

    killer = spawn_thread("test.killer", kill_one_once_training)
    started = time.monotonic()
    try:
        with pytest.raises(TrainingFailedError, match="machine 'm1'") as failure:
            run_process_session(_config(steps=10**9))
    finally:
        tracer.detach()
    killer.join(CEILING_S)
    assert killed and str(-signal.SIGKILL) in str(failure.value)
    assert time.monotonic() - started < processes._CEILING_S
    assert _our_children() == []


def test_child_that_fails_its_store_audit_fails_the_run(monkeypatch):
    """A child's exit code is its report: non-zero fails the run even when
    the stop condition was met."""
    stop = Broker.stop

    def leaky_stop(self):
        stop(self)
        if self.name == "m2.broker":
            raise RefcountLeakError("injected: m2's audit found a stranded body")

    monkeypatch.setattr(Broker, "stop", leaky_stop)  # inherited by the fork
    with pytest.raises(TrainingFailedError, match=r"'m2': 1") as failure:
        run_process_session(_config(steps=256))
    assert "'m1': 0" in str(failure.value)
    assert _our_children() == []


def test_killed_launcher_leaves_no_child_behind(tmp_path):
    """The launcher runs in a subprocess, reports its children once it is
    training, and is SIGKILLed: the children notice and leave."""
    script = tmp_path / "launcher.py"
    script.write_text(textwrap.dedent(
        """
        import multiprocessing, sys, threading, time
        from repro.cluster import run_process_session
        from repro.core.tracing import Tracer
        from tests.cluster.test_process_session import _config

        tracer = Tracer(1 << 16).attach()

        def announce():
            while tracer.count("train_end") < 3:
                time.sleep(0.01)
            pids = [child.pid for child in multiprocessing.active_children()]
            print(" ".join(map(str, pids)), flush=True)

        threading.Thread(target=announce, daemon=True).start()
        run_process_session(_config(steps=10**9))
        """
    ), encoding="ascii")
    repo = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(repo, "src"), repo, env.get("PYTHONPATH", "")]
    )
    launcher = subprocess.Popen(
        [sys.executable, str(script)], stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, env=env, cwd=str(tmp_path), text=True,
    )
    try:
        pids = [int(pid) for pid in launcher.stdout.readline().split()]
        assert len(pids) == 2 and not any(_gone(pid) for pid in pids)
        launcher.kill()
        launcher.wait(CEILING_S)
        deadline = time.monotonic() + processes._CEILING_S
        while not all(_gone(pid) for pid in pids) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert all(_gone(pid) for pid in pids)
    finally:
        launcher.kill()
        launcher.wait()
        launcher.stdout.close()


class TestRefusals:
    def test_needs_stop_criterion(self):
        config = _config()
        config.stop = StopCondition()
        with pytest.raises(ConfigError, match="stop condition"):
            run_process_session(config)
        assert _our_children() == []

    def test_refuses_supervision(self):
        with pytest.raises(ConfigError, match="supervision"):
            run_process_session(_config(supervision=SupervisionSpec()))
        assert _our_children() == []

    def test_refuses_a_transport_that_cannot_leave_the_process(self):
        config = _config()
        config.transport = "sim"
        with pytest.raises(ConfigError, match="wire"):
            run_process_session(config)
        assert _our_children() == []


class TestHostedSubset:
    """``build_cluster(hosted=...)``: which OS process hosts a machine is
    deployment data; the routes and seeds are the config's either way."""

    @staticmethod
    def _build(hosted, **changes):
        config = two_machine_wire_config(
            addresses=["127.0.0.1:0", "127.0.0.1:45999"], seed=7
        )
        for name, value in changes.items():
            setattr(config, name, value)
        cluster = build_cluster(config, hosted=hosted)
        cluster.data_fabric.close()  # the listeners; nothing was started
        return cluster

    def test_center_alone(self):
        cluster = self._build(["m0"])
        assert [machine.name for machine in cluster.machines] == ["m0"]
        assert [process.name for process in cluster.processes()] == [
            "learner", "m0.explorer-0"
        ]
        assert cluster.center.remote_processes == ["m1.explorer-0", "m1.explorer-1"]
        routes = cluster.machines[0].broker.router.remote_table
        assert routes == {"m1.explorer-0": "m1.broker", "m1.explorer-1": "m1.broker"}
        addresses = cluster.data_fabric.addresses()
        assert addresses["m1.broker"] == ("127.0.0.1", 45999)
        assert cluster.data_fabric.listener("m1.broker") is None
        assert cluster.data_fabric.listener("m0.broker") is not None

    def test_edge_alone_routes_everything_through_the_center_broker(self):
        cluster = self._build(["m1"])
        assert cluster.center is None
        assert [process.name for process in cluster.processes()] == [
            "m1.explorer-0", "m1.explorer-1"
        ]
        assert len(cluster.endpoints()) == 2
        routes = cluster.machines[0].broker.router.remote_table
        assert routes == {
            "learner": "m0.broker",
            "controller": "m0.broker",
            "m0.explorer-0": "m0.broker",
        }
        with pytest.raises(LookupError):
            cluster.learner

    def test_seeds_follow_the_config_not_the_host(self):
        everything = self._build(None)
        edge = self._build(["m1"])
        seeds = {
            explorer.name: explorer.agent.config["seed"]
            for explorer in everything.explorers
        }
        assert seeds == {"m0.explorer-0": 7, "m1.explorer-0": 8, "m1.explorer-1": 9}
        for explorer in edge.explorers:
            assert explorer.agent.config["seed"] == seeds[explorer.name]

    def test_all_machines_is_the_default(self):
        everything = self._build(None)
        assert [machine.name for machine in everything.machines] == ["m0", "m1"]
        assert everything.center.remote_processes == []

    def test_refuses_sim_transport_supervision_and_unknown_machines(self):
        with pytest.raises(ConfigError, match="wire"):
            self._build(["m0"], transport="sim")
        with pytest.raises(ConfigError, match="supervision"):
            self._build(["m0"], supervision=SupervisionSpec())
        with pytest.raises(ConfigError, match="m7"):
            self._build(["m0", "m7"])
        # Hosting everything is today's deployment: any transport will do.
        assert self._build(["m0", "m1"], transport="sim").center is not None
