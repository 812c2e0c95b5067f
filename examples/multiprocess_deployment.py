"""One OS process per machine (the paper's §3.2.2 deployment shape).

The same config the thread deployment runs — learner machine plus one
machine per explorer, joined by the wire transport — with every machine
in its own OS process: each child runs the same broker, endpoint and
explorer classes, rollouts and weights cross processes as the messages
they already are (loopback TCP), and the learner trains in the launching
process with no GIL shared with environment interaction.

Run:  python examples/multiprocess_deployment.py
"""

from __future__ import annotations

from repro import StopCondition, XingTianConfig
from repro.cluster import run_process_session
from repro.core.config import MachineSpec

EXPLORERS = 3


def main() -> None:
    machines = [MachineSpec("m0", explorers=0, has_learner=True)] + [
        MachineSpec(f"m{index + 1}", explorers=1) for index in range(EXPLORERS)
    ]
    config = XingTianConfig(
        algorithm="impala",
        environment="CartPole",
        model="actor_critic",
        model_config={"hidden_sizes": [32]},
        algorithm_config={"lr": 1e-3, "entropy_coef": 0.01},
        machines=machines,
        transport="wire",
        fragment_steps=64,
        stop=StopCondition(max_seconds=10.0),
        seed=0,
    )
    print(f"Forking {EXPLORERS} explorer machines + in-process learner (IMPALA)...")
    report = run_process_session(config)
    result = report.result

    print(f"\nFinished after {result.elapsed_s:.1f}s ({result.shutdown_reason})")
    print(f"  children left with        : {report.exit_codes}")
    print(f"  messages over the sockets : {report.wire_items_received:.0f}")
    print(f"  env steps (via STATS)     : {result.total_env_steps}")
    print(f"  rollout steps consumed    : {result.total_trained_steps}")
    print(f"  training sessions         : {result.train_sessions}")
    print(f"  learner throughput        : {result.throughput_steps_per_s:.0f} steps/s")
    print(f"  learner mean wait         : {result.mean_wait_s * 1e3:.2f}ms")
    if result.average_return is not None:
        print(f"  average episode return    : {result.average_return:.1f}")


if __name__ == "__main__":
    main()
