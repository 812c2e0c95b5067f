"""Integration tests for the supervision layer: crash → detect → restart.

These run real clusters with injected faults.  A run ends on work done
(``total_env_steps``), and a test first waits — under a ceiling — for the
restart it is about, so a loaded box makes a test slower, not red;
``max_seconds`` only fails a run that hangs.  An injected crash is
*reported* to the supervisor the moment the workhorse dies, so the
thresholds for inferring a death from silence are generous here: with
death declared after 1 s, one training step a loaded box stretched past
that was counted as a second failure.  (Silent hangs, where those
thresholds are the subject, are tests/core/test_supervision.py's.)
"""

import time

import pytest

from repro import (
    StopCondition,
    SupervisionSpec,
    TrainingFailedError,
    single_machine_config,
)
from repro.core.config import MachineSpec, XingTianConfig
from repro.core.supervision import ProcessState
from repro.cluster import build_cluster
from repro.testing.faults import CrashingAgent, FaultSpec, FaultyFabric, Fuse

FAST_SUPERVISION = dict(
    heartbeat_interval=0.05,
    suspect_after=10.0,
    dead_after=20.0,
    max_restarts=2,
    backoff_base=0.1,
    backoff_max=0.5,
    seed=0,
)

#: fails a hung run or a restart that never comes; ends no healthy one
CEILING_S = 120.0


def work_stop(env_steps=20_000):
    """About a second of rollouts on an idle box, however long that takes."""
    return StopCondition(total_env_steps=env_steps, max_seconds=CEILING_S)


def supervised_config(**overrides):
    supervision = SupervisionSpec(**dict(FAST_SUPERVISION, **overrides.pop("supervision", {})))
    defaults = dict(
        explorers=4,
        fragment_steps=20,
        stop=work_stop(),
        seed=7,
        supervision=supervision,
    )
    defaults.update(overrides)
    return single_machine_config("dqn", "CartPole", "qnet", **defaults)


def await_recovery(cluster, recovered, what):
    """Wait for ``recovered()`` under the ceiling; a run that can no longer
    recover raises ``TrainingFailedError`` from the supervisor's check."""
    deadline = time.monotonic() + CEILING_S
    while not recovered():
        cluster.center.supervisor.check()
        assert time.monotonic() < deadline, f"{what}: not within {CEILING_S:g} s"
        time.sleep(0.02)


class TestExplorerCrashRecovery:
    def test_one_crash_one_restart_training_completes(self):
        """Kill 1 of 4 explorers mid-run; the supervisor restarts it exactly
        once and the run reaches its stop condition."""
        cluster = build_cluster(supervised_config())
        victim = cluster.explorers[0]
        fuse = Fuse()
        # Wrap post-build: the restart closure rebuilds from the original
        # (clean) factory, and the blown fuse keeps the wrapper one-shot.
        victim.agent = CrashingAgent(victim.agent, crash_after=3, fuse=fuse)
        cluster.start()
        try:
            collector = cluster.center.collector
            supervisor = cluster.center.supervisor
            await_recovery(
                cluster,
                lambda: collector.restarts >= 1
                and supervisor.process(victim.name).fragments_sent > 0,
                "the restarted explorer producing",
            )
            reason = cluster.center.wait()
            assert reason.startswith("collected")
            assert fuse.blown
            assert collector.failures == 1
            assert collector.restarts == 1
            assert collector.restart_counts() == {victim.name: 1}
            # The replacement is a different object, alive and productive.
            replacement = supervisor.process(victim.name)
            assert replacement is not victim
            assert supervisor.state(victim.name) == ProcessState.ALIVE
            assert replacement.workhorse.running
            assert replacement.fragments_sent > 0
        finally:
            cluster.stop()

    def test_run_result_reports_restart_counters(self):
        from repro.runtime import XingTianSession

        session = XingTianSession(supervised_config(stop=work_stop(10_000)))
        result = session.run()
        assert result.extra["failures"] == 0.0
        assert result.extra["restarts"] == 0.0


class TestRestartBudgetExhaustion:
    def test_zero_budget_raises_training_failed_quickly(self):
        """With max_restarts=0 the same crash must fail the run within
        dead_after + 2s instead of hanging."""
        config = supervised_config(
            stop=StopCondition(max_seconds=60.0),
            supervision=dict(max_restarts=0, suspect_after=0.5, dead_after=1.0),
        )
        cluster = build_cluster(config)
        victim = cluster.explorers[0]
        victim.agent = CrashingAgent(victim.agent, crash_after=3)
        started = time.monotonic()
        cluster.start()
        try:
            with pytest.raises(TrainingFailedError, match="budget exhausted"):
                cluster.center.wait()
            elapsed = time.monotonic() - started
            dead_after = config.supervision.dead_after
            assert elapsed < dead_after + 2.0
        finally:
            cluster.stop()


class TestLossyFabricRecovery:
    def test_lossy_fabric_plus_crash_still_reaches_stop(self):
        """Two machines over a dropping/delaying data fabric, plus one
        injected explorer crash: the run still reaches its stop condition."""
        config = XingTianConfig(
            algorithm="dqn",
            environment="CartPole",
            model="qnet",
            machines=[
                MachineSpec("m0", explorers=1, has_learner=True),
                MachineSpec("m1", explorers=2),
            ],
            fragment_steps=20,
            stop=work_stop(),
            seed=7,
            supervision=SupervisionSpec(**FAST_SUPERVISION),
        )
        data_fabric = FaultyFabric(
            "lossy-data", spec=FaultSpec(drop=0.05, delay=0.1, delay_s=0.002), seed=13
        )
        cluster = build_cluster(config, data_fabric=data_fabric)
        victim = cluster.explorers[0]
        fuse = Fuse()
        victim.agent = CrashingAgent(victim.agent, crash_after=3, fuse=fuse)
        cluster.start()
        try:
            await_recovery(
                cluster,
                lambda: cluster.center.collector.restarts >= 1,
                "the crashed explorer restarted",
            )
            reason = cluster.center.wait()
            assert reason.startswith("collected")
            counts = data_fabric.fault_counts()
            assert counts["dropped"] > 0  # the fabric really was lossy
            assert cluster.center.collector.restarts >= 1
            # Despite drops and a crash, training made progress.
            assert cluster.center.collector.total_env_steps > 0
        finally:
            cluster.stop()


class TestLearnerCrashRecovery:
    def test_learner_restart_restores_checkpoint(self, tmp_path):
        """Kill the learner; the supervisor rebuilds it and restores the
        latest checkpoint so train_count resumes, not resets."""
        config = supervised_config(
            algorithm_config={"learn_start": 64, "buffer_size": 5_000},
            supervision=dict(
                checkpoint_dir=str(tmp_path), checkpoint_every=1, checkpoint_keep=2
            ),
        )
        cluster = build_cluster(config)
        learner = cluster.learner
        original_prepare = learner.algorithm.prepare_data
        algorithm = learner.algorithm

        def crash_once_trained(*args, **kwargs):
            # Crash only after a couple of sessions, so a checkpoint exists.
            if algorithm.train_count >= 2:
                raise RuntimeError("injected learner crash")
            return original_prepare(*args, **kwargs)

        learner.algorithm.prepare_data = crash_once_trained
        cluster.start()
        try:
            collector = cluster.center.collector
            supervisor = cluster.center.supervisor
            await_recovery(
                cluster,
                lambda: collector.restart_counts().get("learner") == 1,
                "the crashed learner restarted",
            )
            reason = cluster.center.wait()
            assert reason.startswith("collected")
            assert collector.restart_counts().get("learner") == 1
            replacement = supervisor.process("learner")
            assert replacement is not learner
            # The replacement restored a snapshot and kept training past it.
            assert replacement.checkpointer is not None
            assert replacement.checkpointer.restores >= 1
            assert replacement.algorithm.train_count > 0
        finally:
            cluster.stop()
