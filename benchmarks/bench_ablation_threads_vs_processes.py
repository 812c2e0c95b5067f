"""Ablation: one pipeline under two deployments — threads vs OS processes.

DESIGN.md backs the paper's OS processes with threads by default and
claims the communication behaviour is preserved.  This bench checks the
claim's load-bearing part directly: ONE config — the learner's machine
plus one machine per explorer, joined by the wire transport — runs once
with every machine in this process (`XingTianSession`: threads under one
GIL) and once with one OS process per machine (`run_process_session`: the
paper's §3.2.2 shape).  Brokers, routers, endpoints, explorers and the
learner are the same classes both times; only who hosts which machine
differs.  Both must exhibit the push-model signature — the learner's
wait-for-data is a small fraction of fragment production time, i.e.
communication stays off the critical path.
"""

from __future__ import annotations

import pytest

from repro import StopCondition, XingTianConfig, XingTianSession
from repro.bench.reporting import format_table
from repro.cluster import run_process_session
from repro.core.config import MachineSpec

from .conftest import emit

EXPLORERS = 2
BUDGET_SECONDS = 6.0


def _config() -> XingTianConfig:
    machines = [MachineSpec("m0", explorers=0, has_learner=True)] + [
        MachineSpec(f"m{index + 1}", explorers=1) for index in range(EXPLORERS)
    ]
    return XingTianConfig(
        algorithm="impala",
        environment="CartPole",
        model="actor_critic",
        model_config={"hidden_sizes": [32]},
        algorithm_config={"lr": 1e-3},
        machines=machines,
        transport="wire",
        fragment_steps=128,
        stop=StopCondition(max_seconds=BUDGET_SECONDS),
        seed=0,
    )


@pytest.mark.benchmark(group="ablation")
def test_ablation_threads_vs_processes(once):
    def experiment():
        threads = XingTianSession(_config()).run()
        processes = run_process_session(_config()).result
        return threads, processes

    threads, processes = once(experiment)
    rows = [
        [
            label,
            result.throughput_steps_per_s,
            result.mean_wait_s * 1e3,
            result.mean_train_s * 1e3,
        ]
        for label, result in (
            ("all machines in one process (threads)", threads),
            ("one OS process per machine", processes),
        )
    ]
    emit(
        "ablation_threads_vs_processes",
        format_table(
            ["deployment", "steps/s", "learner wait ms", "train ms"],
            rows,
            title="Ablation: one data plane, machines hosted by threads vs by OS processes",
        ),
    )
    # Both deployments train substantially.
    assert threads.total_trained_steps > 1000
    assert processes.total_trained_steps > 1000
    # The push-model signature holds in both deployments: the learner's
    # wait-for-data stays in the low-millisecond range (rollouts are already
    # in its buffers when it needs them), far below fragment production
    # time (128 CartPole steps ≈ tens of ms).
    assert threads.mean_wait_s < 0.020
    assert processes.mean_wait_s < 0.020
