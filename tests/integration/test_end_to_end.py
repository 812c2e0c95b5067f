"""Integration tests: full XingTian sessions per algorithm family."""

import numpy as np
import pytest

from repro import (
    MachineSpec,
    StopCondition,
    XingTianConfig,
    run_config,
    single_machine_config,
)


class TestFullSessions:
    def test_impala_session(self):
        result = run_config(
            single_machine_config(
                "impala", "CartPole", "actor_critic",
                explorers=2, fragment_steps=50,
                stop=StopCondition(total_trained_steps=1000, max_seconds=30),
                seed=0,
            )
        )
        assert result.total_trained_steps >= 1000
        assert result.train_sessions >= 10
        assert result.throughput_steps_per_s > 0
        assert "rollout steps" in result.shutdown_reason

    def test_ppo_session(self):
        result = run_config(
            single_machine_config(
                "ppo", "CartPole", "actor_critic",
                explorers=2, fragment_steps=50,
                algorithm_config={"epochs": 1, "minibatch_size": 50},
                stop=StopCondition(total_trained_steps=500, max_seconds=30),
                # Episodes reach the result through the explorers' STATS:
                # at the default interval the learner's first report can
                # end the run before an explorer has sent one (1 of 30
                # runs on a 2-core box).
                stats_interval=0.02,
                seed=1,
            )
        )
        assert result.total_trained_steps >= 500
        assert result.episode_count > 0

    def test_dqn_session(self):
        result = run_config(
            single_machine_config(
                "dqn", "CartPole", "qnet",
                explorers=1, fragment_steps=32,
                algorithm_config={
                    "buffer_size": 5000, "learn_start": 100,
                    "train_every": 4, "batch_size": 16, "broadcast_every": 5,
                },
                stop=StopCondition(total_trained_steps=500, max_seconds=30),
                seed=2,
            )
        )
        assert result.total_trained_steps >= 500

    def test_ddpg_session(self):
        result = run_config(
            single_machine_config(
                "ddpg", "Pendulum", "ddpg",
                explorers=1, fragment_steps=50,
                algorithm_config={"buffer_size": 5000, "learn_start": 100},
                agent_config={"warmup_steps": 100},
                stop=StopCondition(total_trained_steps=500, max_seconds=30),
                seed=3,
            )
        )
        assert result.total_trained_steps >= 500

    def test_time_budget_stop(self):
        result = run_config(
            single_machine_config(
                "impala", "CartPole", "actor_critic",
                explorers=1, fragment_steps=50,
                stop=StopCondition(max_seconds=1.0),
                seed=4,
            )
        )
        assert "time budget" in result.shutdown_reason
        assert 0.5 < result.elapsed_s < 10

    def test_atari_sim_session(self):
        result = run_config(
            single_machine_config(
                "impala", "Breakout", "actor_critic",
                explorers=2, fragment_steps=32,
                env_config={"obs_shape": (12, 12)},
                model_config={"hidden_sizes": [32]},
                stop=StopCondition(total_trained_steps=500, max_seconds=30),
                seed=5,
            )
        )
        assert result.total_trained_steps >= 500

    def test_learning_improves_cartpole_return(self):
        """Convergence sanity (the Fig. 6 claim at tiny scale): IMPALA on
        CartPole clearly beats the random policy (~22/episode).

        Judged on the best 100-episode window (robust to late-run noise)
        with one retry: under heavy machine load an 8-second training
        budget is occasionally starved.
        """

        def best_window(returns, window=100):
            if len(returns) <= window:
                return sum(returns) / max(len(returns), 1)
            best = 0.0
            running = sum(returns[:window])
            best = running
            for i in range(window, len(returns)):
                running += returns[i] - returns[i - window]
                best = max(best, running)
            return best / window

        for attempt in range(2):
            result = run_config(
                single_machine_config(
                    "impala", "CartPole", "actor_critic",
                    explorers=2, fragment_steps=100,
                    algorithm_config={"lr": 1e-3, "entropy_coef": 0.01},
                    stop=StopCondition(max_seconds=8.0),
                    seed=6 + attempt,
                )
            )
            if best_window(result.returns) > 40:
                return
        assert best_window(result.returns) > 40


class TestMultiMachineSessions:
    def test_two_machine_impala(self):
        config = XingTianConfig(
            algorithm="impala",
            environment="CartPole",
            model="actor_critic",
            machines=[
                MachineSpec("m0", explorers=1, has_learner=True),
                MachineSpec("m1", explorers=2),
            ],
            fragment_steps=50,
            nic_bandwidth=50e6,
            stop=StopCondition(total_trained_steps=1000, max_seconds=30),
            seed=0,
        )
        result = run_config(config)
        assert result.total_trained_steps >= 1000

    def test_remote_only_explorers(self):
        config = XingTianConfig(
            algorithm="impala",
            environment="CartPole",
            model="actor_critic",
            machines=[
                MachineSpec("center", explorers=0, has_learner=True),
                MachineSpec("edge", explorers=2),
            ],
            fragment_steps=50,
            nic_bandwidth=50e6,
            stop=StopCondition(total_trained_steps=500, max_seconds=30),
            seed=1,
        )
        result = run_config(config)
        assert result.total_trained_steps >= 500

    def test_four_machine_deployment(self):
        config = XingTianConfig(
            algorithm="impala",
            environment="CartPole",
            model="actor_critic",
            machines=[MachineSpec("m0", explorers=1, has_learner=True)]
            + [MachineSpec(f"m{i}", explorers=1) for i in range(1, 4)],
            fragment_steps=32,
            nic_bandwidth=100e6,
            stop=StopCondition(total_trained_steps=800, max_seconds=30),
            seed=2,
        )
        result = run_config(config)
        assert result.total_trained_steps >= 800
