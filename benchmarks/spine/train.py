"""``train_ppo``: the whole system, PPO on CartPole through ``XingTianSession``.

PPO is on-policy, so weights-down and rollouts-up both sit on the learner's
critical path and the share of its time spent blocked is the quantity of the
paper's Figs. 8-10.  Compute dominates; the workload is the guard that a
channel change does not take interpreter time from the workhorses.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.config import StopCondition, XingTianConfig, single_machine_config
from repro.runtime import XingTianSession

from .stats import percentile

EXPLORERS = 2
FRAGMENT_STEPS = 200
#: a run whose recent average return is below this did not learn: weights or
#: rollouts are not getting through, whatever its speed
MIN_AVERAGE_RETURN = 100.0
#: ... once it has trained this many steps (a random policy scores about 22;
#: runs here pass 300 by 120 000 steps)
MIN_RETURN_AFTER_STEPS = 60_000


def make_config(seed: int, seconds: float) -> XingTianConfig:
    return single_machine_config(
        "ppo", "CartPole", "actor_critic",
        explorers=EXPLORERS,
        fragment_steps=FRAGMENT_STEPS,
        copy_bandwidth=None,
        seed=seed,
        stop=StopCondition(max_seconds=seconds),
    )


@dataclass
class TrainResult:
    sessions: int = 0
    average_return: Optional[float] = None
    #: why the run counts as failed wholesale, if it does
    error: Optional[str] = None
    #: wall time of the run minus the trained interval: build + teardown
    overhead_s: float = 0.0
    steps_per_s: float = 0.0
    end_to_end: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, Optional[float]] = field(default_factory=dict)


def _steady_rate(series: Sequence[Tuple[float, float]]) -> float:
    """Trimmed mean of a per-second series: without the first and last bucket
    (the ramp-up, and the partial second the stop condition cut short) and
    without the lowest and highest of the rest (a neighbour's second).  A
    median of buckets would move in steps of one training session."""
    if len(series) > 3:
        series = series[1:-1]
    values = sorted(value for _, value in series)
    if len(values) > 4:
        values = values[1:-1]
    return statistics.fmean(values) if values else 0.0


def collect(cluster: Any, elapsed_s: float) -> TrainResult:
    """Read the run's numbers off the learner and explorers it deployed."""
    learner = cluster.learner
    result = TrainResult(
        sessions=learner.train_sessions,
        average_return=cluster.center.collector.average_return(),
    )
    result.steps_per_s = _steady_rate(learner.consumed_meter.series(bucket=1.0))
    waits = learner.wait_recorder.samples()
    trains = learner.train_recorder.samples()
    delivery = learner.endpoint.delivery_latency.samples()
    if not (waits and trains and delivery and result.steps_per_s):
        result.error = "the learner never trained"
        return result
    received = _steady_rate(learner.endpoint.received_meter.series(bucket=1.0))
    result.end_to_end = {
        "msgs_per_s": result.steps_per_s / FRAGMENT_STEPS,
        "mb_per_s": received / 1e6,
        # The mean, Table 1's "transmission time": under one interpreter
        # lock a rollout lands either at once or a switch interval later, and
        # the median sits between the two modes and jumps from run to run.
        "oneway_us": statistics.fmean(delivery) * 1e6,
        "wait_fraction": sum(waits) / (sum(waits) + sum(trains)),
    }
    env_steps = sum(explorer.steps_meter.total for explorer in cluster.explorers)
    result.layers = {
        "learner.steps_per_s": result.steps_per_s,
        "learner.wait_ms_mean": statistics.fmean(waits) * 1e3,
        "learner.wait_ms_p99": percentile(waits, 0.99) * 1e3,
        "learner.train_ms_mean": statistics.fmean(trains) * 1e3,
        "learner.sessions": float(learner.train_sessions),
        "learner.broadcasts": float(learner.broadcasts),
        "explorer.env_steps_per_s": env_steps / elapsed_s,
        "endpoint.delivery_ms_mean": statistics.fmean(delivery) * 1e3,
        "learner.wait_over_transmission": (
            statistics.fmean(waits) / statistics.fmean(delivery)
        ),
    }
    trained = learner.consumed_meter.total
    if trained >= MIN_RETURN_AFTER_STEPS and (
        result.average_return is None or result.average_return < MIN_AVERAGE_RETURN
    ):
        result.error = (
            f"average return {result.average_return} after {trained:.0f} steps "
            f"is below {MIN_AVERAGE_RETURN}: the policy did not learn"
        )
    return result


def run(seed: int, seconds: float) -> TrainResult:
    """One untraced training run of ``seconds``."""
    session = XingTianSession(make_config(seed, seconds))
    started = time.perf_counter()
    try:
        outcome = session.run()
    except Exception as exc:  # noqa: BLE001 - a worker error fails the run, not the benchmark
        return TrainResult(error=f"{type(exc).__name__}: {exc}")
    wall = time.perf_counter() - started
    result = collect(session.cluster, outcome.elapsed_s)
    result.overhead_s = wall - outcome.elapsed_s
    return result


def run_traced(seed: int, seconds: float, instrument: Any) -> Tuple[TrainResult, Any]:
    """The same deployment with ``instrument(cluster)`` called before start.

    ``XingTianSession.run`` builds and starts in one call, so the traced run
    drives the cluster it builds through the same public steps the session
    takes.  Returns the result and the (stopped) cluster.
    """
    from repro.cluster import build_cluster

    cluster = build_cluster(make_config(seed, seconds))
    instrument(cluster)
    started = time.perf_counter()
    cluster.start()
    try:
        cluster.center.wait()
        result = collect(cluster, time.perf_counter() - started)
        # Read while everything still runs: a header routed to an endpoint
        # that has just closed is routine at shutdown, not a lost message.
        router = cluster.machines[0].broker.router
        result.layers.update({
            "router.routed_local": float(router.routed_local),
            "router.routed_remote": float(router.routed_remote),
            "router.dropped": float(router.dropped),
        })
        if router.dropped:
            result.error = f"the router dropped {router.dropped} header(s) mid-run"
    finally:
        cluster.stop()
    try:
        cluster.raise_worker_errors()
    except Exception as exc:  # noqa: BLE001 - see run()
        result.error = f"{type(exc).__name__}: {exc}"
    return result, cluster


def endpoints_of(cluster: Any) -> List[Any]:
    return [cluster.learner.endpoint] + [e.endpoint for e in cluster.explorers]
