"""Cluster builder: config → machines, brokers, fabrics, processes.

Mirrors the paper's launch sequence (§3.2.2): a center controller starts a
controller per machine over a fully-connected control fabric, brokers are
created per machine and joined by a data fabric with the learner's machine
as the center for data transmission, and finally the learner and explorers
are attached to their local brokers.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Set

import numpy as np

from ..api.agent import Agent
from ..api.algorithm import Algorithm
from ..api.registry import registry
from ..core.broker import Broker
from ..core.checkpoint import Checkpointer
from ..core.compression import CompressionPolicy
from ..core.config import SupervisionSpec, XingTianConfig
from ..core.controller import CenterController, Controller
from ..core.errors import ConfigError
from ..core.explorer import ExplorerProcess
from ..core.learner import LearnerProcess
from ..core.object_store import InMemoryObjectStore
from ..core.supervision import RestartPolicy, Supervisor
from ..transport.fabric import Fabric
from ..transport.tcp import SocketFabric
from .machine import SimulatedMachine

LEARNER_NAME = "learner"


def broker_name(machine: str) -> str:
    """The fabric node of ``machine``'s broker, hosted here or elsewhere."""
    return f"{machine}.broker"


class Cluster:
    """The machines of a deployment this OS process hosts, ready to start
    (``center`` is ``None`` where the learner's is hosted elsewhere)."""

    def __init__(
        self,
        config: XingTianConfig,
        machines: List[SimulatedMachine],
        center: Optional[CenterController],
        data_fabric: Fabric,
        control_fabric: Fabric,
    ):
        self.config = config
        self.machines = machines
        self.center = center
        self.data_fabric = data_fabric
        self.control_fabric = control_fabric
        #: ``run_process_session``'s handle on the OS processes hosting the
        #: other machines: ``check()`` raises once one died, ``reap()`` waits
        self.children: Optional[Any] = None
        self.started = False

    # -- lookups ---------------------------------------------------------------
    def processes(self) -> List[Any]:
        """The learner and explorers deployed *now*: the supervisor swaps a
        replacement in under the dead process's name, so whoever reads the
        cluster periodically (telemetry, flow control) follows restarts
        without being told about them."""
        return [
            process for machine in self.machines for process in machine.processes
        ]

    def endpoints(self) -> List[Any]:
        """The endpoint of every deployed process and of the controller."""
        center = [] if self.center is None else [self.center.endpoint]
        return [process.endpoint for process in self.processes()] + center

    @property
    def learner(self) -> LearnerProcess:
        for process in self.processes():
            if isinstance(process, LearnerProcess):
                return process
        raise LookupError("no learner deployed")

    @property
    def explorers(self) -> List[ExplorerProcess]:
        return [
            process
            for process in self.processes()
            if isinstance(process, ExplorerProcess)
        ]

    # -- lifecycle ---------------------------------------------------------------
    def start(self) -> None:
        if self.started:
            return
        self.started = True
        for machine in self.machines:
            machine.controller.start_all()

    def stop(self) -> None:
        # The center broadcasts shutdown; other controllers follow (§3.2.2).
        if self.center is not None:
            self.center.stop_all()
        for machine in self.machines:
            machine.controller.stop_all()
        if self.children is not None:
            # The listener outlives them: what a child sends on its way
            # out finds a socket, not a reset connection.
            self.children.reap()
        self.data_fabric.close()
        self.control_fabric.close()

    def raise_worker_errors(self) -> None:
        """Surface any exception captured in a workhorse thread, and the
        death of an OS process hosting another machine."""
        if self.children is not None:
            self.children.check()
        for process in self.processes():
            error = getattr(process.workhorse, "error", None)
            if error is not None:
                raise error


def check_hosted(config: XingTianConfig, hosted: Optional[Iterable[str]]) -> Set[str]:
    """The machines of ``config`` this OS process hosts (``None``: all).
    Spread over processes it needs real sockets and, for now, no supervisor
    (a restart closure rebuilds a process in the supervisor's address space)."""
    names = {spec.name for spec in config.machines}
    chosen = names if hosted is None else set(hosted)
    if chosen - names:
        raise ConfigError(f"hosted names no machine of the config: {chosen - names}")
    if chosen != names and (config.transport != "wire" or config.supervision):
        raise ConfigError("hosting some machines needs transport='wire', supervision=None")
    return chosen


def build_cluster(
    config: XingTianConfig,
    *,
    data_fabric: Optional[Fabric] = None,
    control_fabric: Optional[Fabric] = None,
    hosted: Optional[Iterable[str]] = None,
) -> Cluster:
    """Construct the deployment described by ``config``: all of it, or the
    machines ``hosted`` names when other OS processes (or hosts) build the
    rest from the same config.  A machine hosted elsewhere is not built:
    its address goes on the wire fabric and the same routes are registered.

    ``data_fabric``/``control_fabric`` may be supplied to substitute an
    instrumented fabric — e.g. a :class:`repro.testing.faults.FaultyFabric`
    that drops or delays inter-machine traffic.
    """
    config.validate()
    hosted = check_hosted(config, hosted)
    probe_env = registry.get("environment", config.environment)(dict(config.env_config))
    model_config = _fill_model_config(config, probe_env)
    probe_env.close()

    if data_fabric is None:
        # The wire transport swaps the simulated data plane for real TCP
        # sockets; the control fabric stays in-proc (commands are tiny and
        # this process hosts every controller either way).
        data_fabric = (
            SocketFabric("data") if config.transport == "wire" else Fabric("data")
        )
    control_fabric = control_fabric if control_fabric is not None else Fabric("control")
    compression = CompressionPolicy(
        enabled=config.compression_enabled, threshold=config.compression_threshold
    )

    learner_machine_name = config.learner_machine.name
    machines: List[SimulatedMachine] = []
    brokers: Dict[str, Broker] = {}
    center: Optional[CenterController] = None
    supervision = config.supervision

    for spec in config.machines:
        if spec.name not in hosted:
            continue
        store = InMemoryObjectStore(
            copy_on_fetch=config.copy_on_fetch,
            compression=compression,
            copy_bandwidth=config.copy_bandwidth,
        )
        broker = Broker(
            broker_name(spec.name),
            store=store,
            fabric=data_fabric,
            # Under supervision a worker may legitimately be gone for the
            # length of a restart backoff; in-flight messages to it are
            # dropped (and counted) rather than poisoning the router.
            on_unroutable="drop" if supervision is not None else "raise",
            coalescing=config.coalescing,
            flow=config.flow_control,
        )
        brokers[spec.name] = broker
        if spec.name == learner_machine_name:
            controller: Controller = CenterController(
                f"{spec.name}.controller",
                broker,
                config.stop,
                control_fabric=control_fabric,
            )
            center = controller
        else:
            controller = Controller(f"{spec.name}.controller", broker, control_fabric)
        machines.append(SimulatedMachine(spec.name, broker, controller))

    _wire_fabrics(config, brokers, data_fabric, control_fabric, learner_machine_name)
    _register_routes(config, brokers, learner_machine_name)

    # Deploy processes.  Each process gets a zero-argument build closure so
    # the supervisor can rebuild a dead one from scratch (fresh endpoint,
    # fresh agent/algorithm) and re-register it with the local broker.
    explorer_names = config.explorer_names()
    controller_endpoint = CenterController.ENDPOINT_NAME
    heartbeat = supervision.heartbeat_interval if supervision is not None else None
    checkpointer: Optional[Checkpointer] = None
    if supervision is not None and supervision.checkpoint_dir is not None:
        checkpointer = Checkpointer(
            supervision.checkpoint_dir,
            every_train_steps=supervision.checkpoint_every,
            keep=supervision.checkpoint_keep,
        )
    supervisor: Optional[Supervisor] = None
    if supervision is not None:
        assert center is not None  # supervised means all hosted here
        supervisor = Supervisor(
            suspect_after=supervision.suspect_after,
            dead_after=supervision.dead_after,
            policy=RestartPolicy(
                max_restarts=supervision.max_restarts,
                backoff_base=supervision.backoff_base,
                backoff_max=supervision.backoff_max,
                jitter=supervision.jitter,
            ),
            collector=center.collector,
            allow_degraded=supervision.allow_degraded,
            seed=supervision.seed,
        )
        center.attach_supervisor(supervisor)

    seed_base = config.seed if config.seed is not None else 0
    explorer_index = 0
    by_name = {machine.name: machine for machine in machines}
    for spec in config.machines:
        if spec.name not in hosted:
            # Seeds follow the config, not who hosts what.  No controller
            # of this machine is on the control fabric: the center tells
            # its explorers to shut down by message.
            explorer_index += spec.explorers
            if center is not None:
                center.remote_processes += [
                    f"{spec.name}.explorer-{i}" for i in range(spec.explorers)
                ]
            continue
        machine, broker = by_name[spec.name], brokers[spec.name]
        if spec.has_learner:

            def build_learner(broker=broker):
                return LearnerProcess(
                    LEARNER_NAME,
                    broker,
                    _algorithm_factory(config, model_config),
                    explorer_names,
                    controller_name=controller_endpoint,
                    stats_interval=config.stats_interval,
                    heartbeat_interval=heartbeat,
                    checkpointer=checkpointer,
                )

            learner = build_learner()
            machine.deploy(learner)
            if supervisor is not None:
                supervisor.watch(
                    LEARNER_NAME,
                    learner,
                    kind="learner",
                    restart=_make_restart(
                        machine, broker, LEARNER_NAME, build_learner,
                        checkpointer=checkpointer,
                    ),
                )
        for local_index in range(spec.explorers):
            name = f"{spec.name}.explorer-{local_index}"

            def build_explorer(
                broker=broker, name=name, seed=seed_base + explorer_index
            ):
                return ExplorerProcess(
                    name,
                    broker,
                    _agent_factory(config, model_config, seed),
                    learner_name=LEARNER_NAME,
                    controller_name=controller_endpoint,
                    fragment_steps=config.fragment_steps,
                    stats_interval=config.stats_interval,
                    heartbeat_interval=heartbeat,
                )

            explorer = build_explorer()
            machine.deploy(explorer)
            if supervisor is not None:
                supervisor.watch(
                    name,
                    explorer,
                    kind="explorer",
                    restart=_make_restart(machine, broker, name, build_explorer),
                )
            explorer_index += 1
    return Cluster(config, machines, center, data_fabric, control_fabric)


def _make_restart(
    machine: SimulatedMachine,
    broker: Broker,
    name: str,
    build: Callable[[], Any],
    *,
    checkpointer: Optional[Checkpointer] = None,
):
    """Restart recipe for one process: tear down, rebuild, re-register.

    The dead process's ID queue is unregistered from the broker so the
    replacement's :class:`~repro.core.endpoint.ProcessEndpoint` gets a fresh
    one via ``Broker.register_process`` (a closed queue is unusable).  A
    restarted learner restores the latest checkpoint before starting, so it
    resumes from the last snapshot rather than from scratch.
    """

    def restart(old: Any) -> Any:
        try:
            old.stop(timeout=1.0)
        except Exception:  # noqa: BLE001 - a half-dead process must not block restart
            pass
        broker.communicator.unregister(name)
        replacement = build()
        if checkpointer is not None:
            checkpointer.restore_latest(replacement.algorithm)
        machine.replace(old, replacement)
        replacement.start()
        return replacement

    return restart


def _fill_model_config(config: XingTianConfig, probe_env) -> Dict:
    """Derive obs/action dimensions from the environment when unset."""
    model_config = dict(config.model_config)
    obs_space = probe_env.observation_space
    action_space = probe_env.action_space
    model_config.setdefault("obs_dim", int(np.prod(obs_space.shape)) or 1)
    if hasattr(action_space, "n"):
        model_config.setdefault("num_actions", int(action_space.n))
    else:
        model_config.setdefault("action_dim", int(np.prod(action_space.shape)))
        model_config.setdefault("action_bound", float(np.max(np.abs(action_space.high))))
    if config.seed is not None:
        model_config.setdefault("seed", config.seed)
    return model_config


def _wire_fabrics(
    config: XingTianConfig,
    brokers: Dict[str, Broker],
    data_fabric: Fabric,
    control_fabric: Fabric,
    learner_machine: str,
) -> None:
    """Star data fabric centered on the learner's machine; fully-connected
    control fabric (commands are tiny, links stay direct).

    ``sim`` transport models each inter-machine link as a throttled NIC.
    ``wire`` transport opens one TCP listener per machine (at its
    configured ``address``, or loopback with an ephemeral port) and
    connects the same star over real sockets — bandwidth comes from the
    kernel, not a model.  A machine hosted elsewhere contributes its
    ``address`` (the launcher adds an ephemeral one) and is connected to lazily.
    """
    names = [spec.name for spec in config.machines]
    wire = config.transport == "wire" and isinstance(data_fabric, SocketFabric)
    if wire and len(names) > 1:
        for spec in config.machines:
            if spec.name not in brokers:
                if spec.address is not None:
                    data_fabric.add_address(broker_name(spec.name), spec.address)
            elif spec.address is not None:
                host, _, port = spec.address.rpartition(":")
                data_fabric.listen(brokers[spec.name].name, host, int(port))
            else:
                data_fabric.listen(brokers[spec.name].name)
    for name in names:
        if name == learner_machine or not {name, learner_machine} <= set(brokers):
            continue
        if wire:
            data_fabric.connect_bidirectional(
                brokers[name].name, brokers[learner_machine].name
            )
        else:
            data_fabric.connect_bidirectional(
                brokers[name].name,
                brokers[learner_machine].name,
                bandwidth=config.nic_bandwidth if len(names) > 1 else None,
                latency=config.nic_latency,
            )


def _register_routes(
    config: XingTianConfig, brokers: Dict[str, Broker], learner_machine: str
) -> None:
    """Teach each broker where every non-local process lives.

    All cross-machine data flows through the learner machine's broker (the
    center for data transmission, Fig. 2b), so non-center brokers route
    every remote name there, and the center broker routes per machine.
    """
    home: Dict[str, str] = {LEARNER_NAME: learner_machine}
    home[CenterController.ENDPOINT_NAME] = learner_machine
    for spec in config.machines:
        for index in range(spec.explorers):
            home[f"{spec.name}.explorer-{index}"] = spec.name
    for spec in config.machines:
        if spec.name not in brokers:
            continue
        broker = brokers[spec.name]
        for process_name, machine_name in home.items():
            if machine_name == spec.name:
                continue
            if spec.name == learner_machine:
                target = broker_name(machine_name)
            else:
                target = broker_name(learner_machine)
            broker.add_remote_route(process_name, target)


def _algorithm_factory(
    config: XingTianConfig, model_config: Dict
) -> Callable[[], Algorithm]:
    algorithm_cls = registry.get("algorithm", config.algorithm)
    model_cls = registry.get("model", config.model)
    algorithm_config = dict(config.algorithm_config)
    algorithm_config.setdefault("num_explorers", config.num_explorers)
    if config.seed is not None:
        algorithm_config.setdefault("seed", config.seed)

    def factory() -> Algorithm:
        return algorithm_cls(model_cls(dict(model_config)), algorithm_config)

    return factory


def _agent_factory(
    config: XingTianConfig, model_config: Dict, seed: int
) -> Callable[[], Agent]:
    algorithm_cls = registry.get("algorithm", config.algorithm)
    model_cls = registry.get("model", config.model)
    agent_cls = registry.get("agent", config.agent_name)
    env_cls = registry.get("environment", config.environment)

    def factory() -> Agent:
        env_config = dict(config.env_config)
        env_config["seed"] = seed
        environment = env_cls(env_config)
        algorithm_config = dict(config.algorithm_config)
        algorithm_config.setdefault("num_explorers", config.num_explorers)
        # Explorer-side algorithm copies never train; shrink buffers.
        algorithm_config["buffer_size"] = 1
        algorithm_config["learn_start"] = 1
        algorithm = algorithm_cls(model_cls(dict(model_config)), algorithm_config)
        agent_config = dict(config.agent_config)
        agent_config.setdefault("seed", seed)
        return agent_cls(algorithm, environment, agent_config)

    return factory
