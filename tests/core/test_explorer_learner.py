"""Tests for the explorer and learner processes (workhorse loops)."""

import threading
import time

import numpy as np
import pytest

from repro.algorithms.impala import ImpalaAlgorithm
from repro.algorithms.impala.agent import ImpalaAgent
from repro.algorithms.ppo import PPOAgent, PPOAlgorithm
from repro.algorithms.ppo.model import ActorCriticModel
from repro.core.broker import Broker
from repro.core.endpoint import ProcessEndpoint
from repro.core.explorer import ExplorerProcess
from repro.core.learner import LearnerProcess
from repro.core.message import MsgType, make_message
from repro.envs.cartpole import CartPoleEnv


MODEL_CONFIG = {"obs_dim": 4, "num_actions": 2, "hidden_sizes": [16], "seed": 0}


def _impala_algorithm():
    return ImpalaAlgorithm(ActorCriticModel(dict(MODEL_CONFIG)), {"lr": 1e-3})


def _impala_agent():
    return ImpalaAgent(_impala_algorithm(), CartPoleEnv({"seed": 0}), {"seed": 0})


def _ppo_algorithm(num_explorers=1):
    return PPOAlgorithm(
        ActorCriticModel(dict(MODEL_CONFIG)),
        {"num_explorers": num_explorers, "epochs": 1, "minibatch_size": 64},
    )


def _ppo_agent():
    return PPOAgent(_ppo_algorithm(), CartPoleEnv({"seed": 1}), {"seed": 1})


@pytest.fixture
def started_broker():
    broker = Broker("b")
    broker.start()
    yield broker
    broker.stop()


def _wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


class TestExplorerLearnerOffPolicy:
    def test_impala_end_to_end_training(self, started_broker):
        learner = LearnerProcess(
            "learner", started_broker, _impala_algorithm, ["e0"], stats_interval=10
        )
        explorer = ExplorerProcess(
            "e0",
            started_broker,
            _impala_agent,
            fragment_steps=32,
            stats_interval=10,
        )
        learner.start()
        explorer.start()
        try:
            assert _wait_for(lambda: learner.train_sessions >= 3)
            assert learner.consumed_meter.total >= 3 * 32
            assert explorer.fragments_sent >= 3
        finally:
            explorer.stop()
            learner.stop()

    def test_weights_flow_back_to_explorer(self, started_broker):
        learner = LearnerProcess(
            "learner", started_broker, _impala_algorithm, ["e0"], stats_interval=10
        )
        explorer = ExplorerProcess(
            "e0", started_broker, _impala_agent, fragment_steps=16, stats_interval=10
        )
        learner.start()
        explorer.start()
        try:
            # Initial broadcast plus per-train broadcasts.
            assert _wait_for(lambda: explorer.weight_updates >= 2)
        finally:
            explorer.stop()
            learner.stop()

    def test_off_policy_explorer_keeps_sampling(self, started_broker):
        """Off-policy explorers never block waiting for weights."""
        explorer = ExplorerProcess(
            "e0", started_broker, _impala_agent, fragment_steps=16, stats_interval=10
        )
        started_broker.register_process("learner")  # sink: nobody consumes
        explorer.start()
        try:
            assert _wait_for(lambda: explorer.fragments_sent >= 3)
        finally:
            explorer.stop()

    def test_off_policy_explorer_yields_the_interpreter_per_fragment(
        self, started_broker, monkeypatch
    ):
        """An explorer that never blocks hands the GIL over once per
        fragment, so the learner and endpoint threads are not starved."""
        started_broker.register_process("learner")  # sink: nobody consumes
        explorer = ExplorerProcess(
            "e0", started_broker, _impala_agent, fragment_steps=16, stats_interval=10
        )
        stepping_thread = threading.get_ident()
        yields = []
        real_sleep = time.sleep

        def recording_sleep(seconds):
            if threading.get_ident() == stepping_thread:
                yields.append(seconds)
            real_sleep(seconds)

        monkeypatch.setattr(time, "sleep", recording_sleep)
        explorer.endpoint.start()
        try:
            for _ in range(3):
                assert explorer._step()
        finally:
            explorer.stop()
        assert explorer.fragments_sent == 3
        assert yields == [0, 0, 0]

    def test_learner_wait_time_recorded(self, started_broker):
        learner = LearnerProcess(
            "learner", started_broker, _impala_algorithm, ["e0"], stats_interval=10
        )
        explorer = ExplorerProcess(
            "e0", started_broker, _impala_agent, fragment_steps=16, stats_interval=10
        )
        learner.start()
        explorer.start()
        try:
            # The wait is recorded before the session it precedes trains.
            assert _wait_for(lambda: learner.wait_recorder.count >= 2)
            assert _wait_for(lambda: learner.train_recorder.count >= 2)
        finally:
            explorer.stop()
            learner.stop()


class TestExplorerLearnerOnPolicy:
    def test_ppo_explorer_waits_for_weights(self, started_broker):
        """On-policy: after sending a fragment the explorer must not send
        another until fresh weights arrive."""
        started_broker.register_process("learner")  # black hole
        explorer = ExplorerProcess(
            "e0", started_broker, _ppo_agent, fragment_steps=8, stats_interval=10
        )
        explorer.start()
        try:
            time.sleep(0.5)
            # No initial weights ever arrive: zero fragments sent.
            assert explorer.fragments_sent == 0
        finally:
            explorer.stop()

    def test_ppo_lockstep_training(self, started_broker):
        learner = LearnerProcess(
            "learner",
            started_broker,
            lambda: _ppo_algorithm(num_explorers=2),
            ["e0", "e1"],
            stats_interval=10,
        )
        explorers = [
            ExplorerProcess(
                name, started_broker, _ppo_agent, fragment_steps=16, stats_interval=10
            )
            for name in ("e0", "e1")
        ]
        learner.start()
        for explorer in explorers:
            explorer.start()
        try:
            assert _wait_for(lambda: learner.train_sessions >= 2)
            # Lock-step: every explorer's fragment count tracks the number
            # of broadcasts (within one round).
            counts = [explorer.fragments_sent for explorer in explorers]
            assert max(counts) - min(counts) <= 1
        finally:
            for explorer in explorers:
                explorer.stop()
            learner.stop()


class TestLearnerBroadcastPolicies:
    def test_impala_broadcasts_to_source_only(self, started_broker):
        learner = LearnerProcess(
            "learner", started_broker, _impala_algorithm, ["e0", "e1"],
            stats_interval=10,
        )
        explorer0 = ExplorerProcess(
            "e0", started_broker, _impala_agent, fragment_steps=16, stats_interval=10
        )
        # e1 registered but silent: it must not starve e0's broadcasts.
        started_broker.register_process("e1")
        learner.start()
        explorer0.start()
        try:
            assert _wait_for(lambda: learner.train_sessions >= 2)
            assert _wait_for(lambda: explorer0.weight_updates >= 1)
        finally:
            explorer0.stop()
            learner.stop()

    def test_initial_broadcast_optional(self, started_broker):
        learner = LearnerProcess(
            "learner",
            started_broker,
            _impala_algorithm,
            ["e0"],
            stats_interval=10,
            broadcast_initial_weights=False,
        )
        started_broker.register_process("e0")
        learner.start()
        assert learner.broadcasts == 0
        learner.stop()


class _AlwaysReady:
    """An algorithm that owes a training session for ever (a replay
    learner behind on what is already staged)."""

    on_policy = False

    def __init__(self):
        self.sessions = 0

    def prepare_data(self, body, source=None):
        pass

    def ready_to_train(self):
        return True

    def train(self):
        self.sessions += 1
        return {"trained_steps": 1}

    def should_broadcast(self):
        return False


class TestLearnerStop:
    def test_stop_ends_a_training_backlog(self, started_broker):
        """The trainer leaves its train-while-ready burst when asked to
        stop; it used to run the backlog down first, outliving ``stop()``
        (and the test, and the run) by however long that took."""
        learner = LearnerProcess(
            "learner", started_broker, _AlwaysReady, [],
            broadcast_initial_weights=False, stats_interval=10,
        )
        feeder = ProcessEndpoint("feeder", started_broker)
        learner.start()
        feeder.start()
        try:
            feeder.send(make_message(
                "feeder", ["learner"], MsgType.ROLLOUT, {"reward": [0.0]}
            ))
            assert _wait_for(lambda: learner.algorithm.sessions >= 3)
        finally:
            feeder.stop()
            learner.stop()
        assert not learner.workhorse.running
        assert learner.train_sessions == learner.algorithm.sessions


class _LongBurst:
    """A replay learner whose first burst owes more sessions than fit in
    several stats intervals."""

    on_policy = False
    SESSIONS = 30

    def __init__(self):
        self.sessions = 0
        self.armed = False

    def prepare_data(self, body, source=None):
        self.armed = True

    def ready_to_train(self):
        return self.armed and self.sessions < self.SESSIONS

    def train(self):
        time.sleep(0.01)
        self.sessions += 1
        return {"trained_steps": 1}

    def should_broadcast(self):
        return False


class TestLearnerStats:
    def test_stats_go_out_inside_a_training_burst(self, started_broker):
        """The center hears about trained steps while a burst is still
        running, not only once it ends."""
        center = ProcessEndpoint("controller", started_broker)
        learner = LearnerProcess(
            "learner", started_broker, _LongBurst, [],
            broadcast_initial_weights=False, controller_name="controller",
            stats_interval=0.05,
        )
        feeder = ProcessEndpoint("feeder", started_broker)
        center.start()
        learner.start()
        feeder.start()
        try:
            feeder.send(make_message(
                "feeder", ["learner"], MsgType.ROLLOUT, {"reward": [0.0]}
            ))
            during = []
            deadline = time.monotonic() + 10.0
            while (
                learner.algorithm.sessions < _LongBurst.SESSIONS
                and time.monotonic() < deadline
            ):
                # Heartbeats are off: the center hears STATS reports only.
                message = center.receive(timeout=0.05)
                in_burst = 0 < learner.algorithm.sessions < _LongBurst.SESSIONS
                if message is not None and in_burst:
                    during.append(message.body.extra["trained_steps"])
            assert learner.algorithm.sessions == _LongBurst.SESSIONS
            assert sum(1 for steps in during if steps > 0) >= 2, during
        finally:
            feeder.stop()
            learner.stop()
            center.stop()
