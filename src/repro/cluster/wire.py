"""The ``wire`` deployment mode: machines joined by real TCP sockets.

The transport that joins machines across OS processes and hosts: the
cluster's data fabric becomes a :class:`~repro.transport.tcp.SocketFabric`
whose inter-machine star is real TCP connections, addressed by each
:class:`~repro.core.config.MachineSpec`'s ``host:port`` ``address`` (or
auto-bound loopback listeners when unset).  Everything above the fabric —
brokers, routers, coalescing, flow control, tracing — is unchanged, which
is the point: the two-machine benchmarks stop *modelling* a NIC and start
*measuring* one.

:func:`run_wire_session` is the one-call loopback entry point the
wire-smoke CI job and ``bench_fig5_two_machines.py --transport wire`` use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.config import MachineSpec, StopCondition, XingTianConfig
from ..core.tracing import Tracer
from ..transport.tcp import SocketFabric


def two_machine_wire_config(
    *,
    algorithm: str = "dqn",
    environment: str = "CartPole",
    model: str = "qnet",
    local_explorers: int = 1,
    remote_explorers: int = 2,
    addresses: Optional[Sequence[str]] = None,
    stop: Optional[StopCondition] = None,
    seed: Optional[int] = 0,
    **overrides: Any,
) -> XingTianConfig:
    """A two-machine config on the ``wire`` transport.

    Machine 0 hosts the learner (the data-transmission center, Fig. 2b)
    plus ``local_explorers``; machine 1 hosts ``remote_explorers`` whose
    rollouts cross a real socket.  ``addresses`` pins the two listeners to
    explicit ``host:port`` endpoints for an actual two-host deployment;
    unset, both bind loopback ephemerals — same code path, one host.
    """
    if addresses is not None and len(addresses) != 2:
        raise ValueError("addresses must name exactly two machines")
    machines = [
        MachineSpec(
            "m0",
            explorers=local_explorers,
            has_learner=True,
            address=addresses[0] if addresses else None,
        ),
        MachineSpec(
            "m1",
            explorers=remote_explorers,
            address=addresses[1] if addresses else None,
        ),
    ]
    return XingTianConfig(
        algorithm=algorithm,
        environment=environment,
        model=model,
        machines=machines,
        transport="wire",
        stop=stop or StopCondition(max_seconds=5.0),
        seed=seed,
        **overrides,
    )


@dataclass
class WireRunReport:
    """A wire-mode run plus what actually crossed the sockets."""

    result: Any  #: the :class:`~repro.runtime.RunResult`
    #: per-link wire counters from :meth:`SocketFabric.link_stats`
    link_stats: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: the run's hop-log event dicts (message lifecycles plus the
    #: wire_send/wire_deliver stage pairs) when ``trace`` was asked for,
    #: ready to merge with other per-process trace files
    trace_events: List[Dict[str, Any]] = field(default_factory=list)
    #: a process session's ``(machine, events)`` per OS process, as
    #: :func:`repro.obs.trace.merge.merge` takes them
    traces: List[Tuple[str, List[Dict[str, Any]]]] = field(default_factory=list)
    #: how each child of a process session left, by machine
    exit_codes: Dict[str, Optional[int]] = field(default_factory=dict)

    @property
    def wire_bytes_sent(self) -> float:
        return sum(
            stats.get("bytes_sent", 0.0)
            for name, stats in self.link_stats.items()
            if not name.startswith("listen:")
        )

    @property
    def wire_items_received(self) -> float:
        return sum(
            stats.get("items_received", 0.0)
            for name, stats in self.link_stats.items()
            if name.startswith("listen:")
        )


def run_wire_session(
    config: Optional[XingTianConfig] = None,
    *,
    trace: bool = False,
    require_traffic: bool = True,
) -> WireRunReport:
    """Run a wire-transport session end to end and report link activity.

    Runs the one session lifecycle — telemetry, supervision and all —
    around an explicitly-constructed :class:`SocketFabric`, whose link
    counters stay readable after teardown; asserts the session actually
    pushed bytes through sockets when ``require_traffic`` — a wire smoke
    that silently fell back to in-proc links must fail, not pass.
    """
    # Local import: runtime imports this package, and pulls in the
    # algorithm/environment registries the cluster is built from.
    from ..runtime import XingTianSession

    if config is None:
        config = two_machine_wire_config()
    if config.transport != "wire":
        raise ValueError("run_wire_session needs config.transport == 'wire'")
    fabric = SocketFabric("data")
    tracer = Tracer(capacity=1 << 20)
    if trace:
        tracer.attach()
    try:
        result = XingTianSession(config, data_fabric=fabric).run()
    finally:
        tracer.detach()
    fabric.raise_errors()
    report = WireRunReport(
        result=result,
        link_stats=fabric.link_stats(),
        trace_events=tracer.dicts(),
    )
    if require_traffic and report.wire_bytes_sent <= 0:
        raise RuntimeError(
            "wire session moved no bytes over sockets — the data plane "
            "fell back to in-proc links"
        )
    return report
