"""One-call run API: build a cluster from a config, run it, return results.

``XingTianSession`` is what the examples and benchmarks use::

    config = single_machine_config("ppo", "CartPole", "actor_critic",
                                   explorers=4,
                                   stop=StopCondition(total_trained_steps=20_000))
    result = XingTianSession(config).run()
    print(result.throughput_steps_per_s, result.average_return)
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from .cluster import Cluster, build_cluster
from .core.config import XingTianConfig
from . import algorithms as _algorithms  # noqa: F401 - populate the registry
from . import envs as _envs  # noqa: F401 - populate the registry


@dataclass
class RunResult:
    """Everything the paper's figures need from one run."""

    elapsed_s: float
    shutdown_reason: str
    total_env_steps: int
    total_trained_steps: int
    train_sessions: int
    average_return: Optional[float]
    episode_count: int
    returns: List[float] = field(default_factory=list)
    #: learner-consumed rollout steps/s — the paper's throughput metric
    throughput_steps_per_s: float = 0.0
    #: (t, steps/s) series for throughput-over-time plots (Figs. 8-10a)
    throughput_series: List[Tuple[float, float]] = field(default_factory=list)
    #: trainer blocked-on-data time stats (Figs. 8-10b, 8c)
    mean_wait_s: float = 0.0
    wait_cdf: List[Tuple[float, float]] = field(default_factory=list)
    mean_train_s: float = 0.0
    extra: Dict[str, float] = field(default_factory=dict)
    #: ``repro.obs`` JSON snapshot when ``config.telemetry`` is set
    metrics: Dict[str, Any] = field(default_factory=dict)


class XingTianSession:
    """Owns a cluster for the duration of one run."""

    def __init__(
        self, config: XingTianConfig, *, data_fabric: Optional[Any] = None,
        hosted: Optional[Iterable[str]] = None,
    ):
        config.validate()
        self.config = config
        #: substitute data fabric handed to :func:`build_cluster` (the wire
        #: mode supplies the ``SocketFabric`` it reports on)
        self._data_fabric = data_fabric
        #: the machines this OS process hosts (``None``: all of them); the
        #: learner's must be one — the session runs around its controller
        self._hosted = hosted
        self.cluster: Optional[Cluster] = None
        self.telemetry: Optional[Any] = None
        self.flow_controller: Optional[Any] = None

    def build(self) -> Cluster:
        """Build the deployment; :meth:`run` starts it (and builds it
        itself when nobody has)."""
        self.cluster = build_cluster(
            self.config, data_fabric=self._data_fabric, hosted=self._hosted
        )
        return self.cluster

    def run(self, poll_interval: float = 0.05) -> RunResult:
        """Start the deployment, wait for the stop condition, tear down."""
        cluster = self.cluster
        if cluster is None or cluster.started:
            cluster = self.build()
        # Both observers only read the cluster; neither needs the other.
        telemetry = controller = None
        spec = self.config.telemetry
        flow = self.config.flow_control
        if flow is not None:
            from .obs.flowcontroller import FlowController

            controller = FlowController(flow)
            controller.attach_cluster(cluster)
        if spec is not None:
            from .obs import Telemetry

            telemetry = Telemetry.from_spec(spec)
            telemetry.attach_cluster(cluster)
            if controller is not None:
                telemetry.attach_flow_controller(controller)
        self.telemetry = telemetry
        self.flow_controller = controller
        supervisor = cluster.center.supervisor
        started = time.monotonic()
        try:
            # Inside the try: a start that raises must not leave the
            # observers' threads and hop-log readers behind.
            if telemetry is not None:
                telemetry.start()  # reading before the first message is sent
            if controller is not None:
                controller.start()
            cluster.start()
            while True:
                reason = cluster.center.should_stop()
                if reason is not None:
                    cluster.center.shutdown_reason = reason
                    break
                if supervisor is not None:
                    # A workhorse crash may be restartable; let the
                    # supervisor decide.  It raises TrainingFailedError
                    # only once the run is unrecoverable.
                    supervisor.check()
                else:
                    cluster.raise_worker_errors()
                time.sleep(poll_interval)
        finally:
            elapsed = time.monotonic() - started
            result = self._collect(cluster, elapsed)
            if controller is not None:
                controller.stop()
            if telemetry is not None:
                telemetry.stop()  # final sample before queues drain away
            cluster.stop()
            if telemetry is not None:
                result.metrics = telemetry.snapshot(
                    meta={"elapsed_s": round(elapsed, 6)}
                )
            if supervisor is None:
                cluster.raise_worker_errors()
        return result

    def _collect(self, cluster: Cluster, elapsed: float) -> RunResult:
        learner = cluster.learner
        collector = cluster.center.collector
        meter = learner.consumed_meter
        extra: Dict[str, float] = {}
        if cluster.center.supervisor is not None:
            extra["failures"] = float(collector.failures)
            extra["restarts"] = float(collector.restarts)
        return RunResult(
            elapsed_s=elapsed,
            shutdown_reason=cluster.center.shutdown_reason or "",
            total_env_steps=collector.total_env_steps,
            total_trained_steps=int(meter.total),
            train_sessions=learner.train_sessions,
            average_return=collector.average_return(),
            episode_count=collector.episode_count(),
            returns=collector.returns(),
            throughput_steps_per_s=meter.total / max(elapsed, 1e-9),
            throughput_series=meter.series(bucket=1.0),
            mean_wait_s=learner.wait_recorder.mean(),
            wait_cdf=learner.wait_recorder.cdf(),
            mean_train_s=learner.train_recorder.mean(),
            extra=extra,
        )


def run_config(config: XingTianConfig) -> RunResult:
    """Convenience wrapper: build, run, and tear down in one call."""
    return XingTianSession(config).run()
