"""Configuration (paper §3.2.2, §4.2).

The configuration file combines the registered Environment / Model /
Algorithm / Agent implementations into a specific DRL algorithm, and
describes the deployment: which machines, where the learner lives, how many
explorers per machine.  We represent it as a dataclass tree, loadable from a
plain dict (JSON-compatible) via :meth:`XingTianConfig.from_dict`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, List, Optional

from .errors import ConfigError


@dataclass
class MachineSpec:
    """One machine in the deployment: a name, an explorer count, and
    whether the learner runs here (exactly one machine must host it).

    ``address`` is the machine's ``host:port`` wire endpoint, used only by
    the ``wire`` transport (docs/NETWORKING.md); ``None`` binds a loopback
    listener on an ephemeral port — the two-machine-on-one-host topology
    the wire-smoke CI job measures.
    """

    name: str
    explorers: int = 1
    has_learner: bool = False
    address: Optional[str] = None

    def validate(self) -> None:
        if not self.name:
            raise ConfigError("machine name must be non-empty")
        if self.explorers < 0:
            raise ConfigError(f"machine {self.name!r}: explorers must be >= 0")
        if self.address is not None:
            host, sep, port = self.address.rpartition(":")
            if not sep or not host or not port.isdigit():
                raise ConfigError(
                    f"machine {self.name!r}: address must be host:port, "
                    f"got {self.address!r}"
                )


@dataclass
class StopCondition:
    """When the center controller shuts the run down (§3.2.2): enough
    rollout steps consumed, a target return reached, or a time budget."""

    total_env_steps: Optional[int] = None
    total_trained_steps: Optional[int] = None
    target_return: Optional[float] = None
    max_seconds: Optional[float] = None

    def validate(self) -> None:
        values = (
            self.total_env_steps,
            self.total_trained_steps,
            self.target_return,
            self.max_seconds,
        )
        if all(v is None for v in values):
            raise ConfigError("stop condition must set at least one criterion")
        for name in ("total_env_steps", "total_trained_steps", "max_seconds"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ConfigError(f"stop.{name} must be positive, got {value}")


@dataclass
class SupervisionSpec:
    """Fault-tolerance knobs (see docs/FAULT_TOLERANCE.md).

    When attached to a config, every explorer/learner sends heartbeats to
    the center controller, whose :class:`~repro.core.supervision.Supervisor`
    marks a process SUSPECT after ``suspect_after`` seconds of silence and
    DEAD after ``dead_after``, then restarts it under an exponential-backoff
    budget.  ``checkpoint_dir`` enables learner snapshots every
    ``checkpoint_every`` training sessions so a restarted learner resumes
    instead of starting over.
    """

    heartbeat_interval: float = 0.1
    suspect_after: float = 1.0
    dead_after: float = 2.5
    max_restarts: int = 3
    backoff_base: float = 0.25
    backoff_max: float = 5.0
    jitter: float = 0.0
    #: keep training on surviving explorers instead of failing the run
    allow_degraded: bool = False
    checkpoint_dir: Optional[str] = None
    checkpoint_every: int = 25
    checkpoint_keep: int = 2
    seed: Optional[int] = None

    def validate(self) -> None:
        if self.heartbeat_interval <= 0:
            raise ConfigError("heartbeat_interval must be positive")
        if self.suspect_after <= self.heartbeat_interval:
            raise ConfigError("suspect_after must exceed heartbeat_interval")
        if self.dead_after <= self.suspect_after:
            raise ConfigError("dead_after must exceed suspect_after")
        if self.max_restarts < 0:
            raise ConfigError("max_restarts must be >= 0")
        if self.backoff_base < 0 or self.backoff_max < self.backoff_base:
            raise ConfigError("backoff_max must be >= backoff_base >= 0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigError("jitter must be in [0, 1]")
        if self.checkpoint_every < 1 or self.checkpoint_keep < 1:
            raise ConfigError("checkpoint_every and checkpoint_keep must be >= 1")


@dataclass(frozen=True)
class CoalescingSpec:
    """How a sender thread stages a drained wake-up (docs/PERFORMANCE.md).

    Each wake-up packs consecutive small bulk-lane messages that share
    ``(src, type, dst)`` and hold only :data:`~repro.core.message.PACKABLE_FIELDS`
    into one ``MsgType.BATCH`` envelope — one object-store insert, one
    header, one routing pass and one wire message for the whole run.
    Control traffic, larger bodies and headers with extras are staged
    alone, in order.  Receivers unpack transparently; workhorses never see
    the envelope.  ``max_batch=1`` stages one header per message.
    """

    #: only bodies at most this many bytes are packed
    max_message_bytes: int = 4096
    #: cap on sub-messages per envelope (bounds unpack latency)
    max_batch: int = 64

    def validate(self) -> None:
        if self.max_message_bytes < 0:
            raise ConfigError("coalescing.max_message_bytes must be >= 0")
        if self.max_batch < 1:
            raise ConfigError("coalescing.max_batch must be >= 1")


@dataclass
class FlowControlSpec:
    """Overload-control knobs (see docs/FLOW_CONTROL.md).

    Every broker header queue, per-destination ID queue, and endpoint
    buffer is a two-lane channel in which control traffic (weights,
    commands, heartbeats, stats) overtakes bulk experience.  Attached to a
    config, this spec bounds those lanes: bulk admission sheds the oldest
    trajectory past the watermark, and control admission blocks its
    producer up to ``control_deadline_s`` before failing loudly with
    :class:`~repro.core.errors.BackpressureError`.  A
    :class:`~repro.obs.flowcontroller.FlowController` reads the queues'
    depths and adapts coalescing/compression/admission at runtime.
    ``None`` (the default) leaves both lanes of every queue unbounded —
    nothing sheds, blocks or expires — with no adaptation.
    """

    enabled: bool = True
    #: max queued bulk entries per queue before shed-oldest kicks in
    bulk_watermark: int = 512
    #: max queued control entries before producers block (0 = unbounded)
    control_watermark: int = 256
    #: low watermark as a fraction of the high one (hysteresis: a blocked
    #: control put resumes only once the lane drains below low)
    low_fraction: float = 0.5
    #: seconds a control/weights producer may block awaiting admission
    control_deadline_s: float = 2.0
    #: arena occupancy fractions driving admission tightening
    arena_high_watermark: float = 0.85
    arena_low_watermark: float = 0.60
    #: bulk watermark multiplier applied while admission is tightened
    pressure_scale: float = 0.5
    # -- adaptation loop (FlowController) --
    adapt_interval_s: float = 0.05
    #: bulk depth (as a fraction of bulk_watermark) that counts as pressure
    queue_pressure_fraction: float = 0.5
    #: consecutive pressured / clear polls before escalating / relaxing
    escalate_after: int = 2
    relax_after: int = 10
    #: ceiling when the controller raises CoalescingSpec.max_message_bytes
    coalescing_max_bytes: int = 1 << 16
    #: floor when the controller lowers the store compression threshold
    compression_min_threshold: int = 1 << 14
    #: bodies below this never get wire-compressed (codec overhead floor)
    wire_compression_min_bytes: int = 1 << 10

    def validate(self) -> None:
        if self.bulk_watermark < 1:
            raise ConfigError("flow_control.bulk_watermark must be >= 1")
        if self.control_watermark < 0:
            raise ConfigError("flow_control.control_watermark must be >= 0")
        if not 0.0 < self.low_fraction <= 1.0:
            raise ConfigError("flow_control.low_fraction must be in (0, 1]")
        if self.control_deadline_s <= 0:
            raise ConfigError("flow_control.control_deadline_s must be positive")
        if not 0.0 < self.arena_low_watermark < self.arena_high_watermark <= 1.0:
            raise ConfigError(
                "flow_control arena watermarks need 0 < low < high <= 1"
            )
        if not 0.0 < self.pressure_scale <= 1.0:
            raise ConfigError("flow_control.pressure_scale must be in (0, 1]")
        if self.adapt_interval_s <= 0:
            raise ConfigError("flow_control.adapt_interval_s must be positive")
        if not 0.0 < self.queue_pressure_fraction <= 1.0:
            raise ConfigError(
                "flow_control.queue_pressure_fraction must be in (0, 1]"
            )
        if self.escalate_after < 1 or self.relax_after < 1:
            raise ConfigError(
                "flow_control.escalate_after and relax_after must be >= 1"
            )
        if self.coalescing_max_bytes < 1:
            raise ConfigError("flow_control.coalescing_max_bytes must be >= 1")
        if self.compression_min_threshold < 1:
            raise ConfigError(
                "flow_control.compression_min_threshold must be >= 1"
            )
        if self.wire_compression_min_bytes < 0:
            raise ConfigError(
                "flow_control.wire_compression_min_bytes must be >= 0"
            )


@dataclass
class TelemetrySpec:
    """Observability knobs (see docs/OBSERVABILITY.md).

    When attached to a config, the session builds a
    :class:`~repro.obs.telemetry.Telemetry` object: a metrics registry, a
    tracer and live message-lifecycle span aggregation reading the hop
    log, and a periodic sampler reading queue depths, object-store totals
    and the meters each process keeps about itself.  The resulting
    snapshot lands in ``RunResult.metrics``.  ``None`` (the default) keeps
    telemetry fully off; the data plane runs the same code either way.
    """

    enabled: bool = True
    sample_interval: float = 0.05
    #: events the tracer keeps — and the hop-log ring size the run asks
    #: for: what span aggregation may leave unread between two sweeps
    tracer_capacity: int = 65536
    series_capacity: int = 512
    max_pending_spans: int = 8192

    def validate(self) -> None:
        if self.sample_interval <= 0:
            raise ConfigError("telemetry.sample_interval must be positive")
        if self.tracer_capacity < 1:
            raise ConfigError("telemetry.tracer_capacity must be >= 1")
        if self.series_capacity < 1:
            raise ConfigError("telemetry.series_capacity must be >= 1")
        if self.max_pending_spans < 1:
            raise ConfigError("telemetry.max_pending_spans must be >= 1")


@dataclass
class XingTianConfig:
    """Full run configuration."""

    algorithm: str
    environment: str
    model: str
    agent: Optional[str] = None  # defaults to the algorithm name
    env_config: Dict[str, Any] = field(default_factory=dict)
    model_config: Dict[str, Any] = field(default_factory=dict)
    algorithm_config: Dict[str, Any] = field(default_factory=dict)
    agent_config: Dict[str, Any] = field(default_factory=dict)
    machines: List[MachineSpec] = field(
        default_factory=lambda: [MachineSpec("machine-0", explorers=1, has_learner=True)]
    )
    fragment_steps: int = 200
    stats_interval: float = 0.25
    # Communication channel knobs.
    compression_enabled: bool = True
    compression_threshold: int = 1 << 20  # paper default: compress >1MB
    # copy_on_fetch=True gives real serialize/deserialize copy isolation at
    # the object store (slow, GIL-bound); False passes references and relies
    # on copy_bandwidth for cost modelling (what benchmarks use).
    copy_on_fetch: bool = False
    copy_bandwidth: Optional[float] = None  # modelled memcpy bandwidth (bytes/s)
    nic_bandwidth: float = 118.04e6  # bytes/s, the paper's measured 1GbE
    nic_latency: float = 0.0002
    #: inter-machine transport: ``"sim"`` models NICs with throttled links
    #: (charging ``nic_bandwidth``); ``"wire"`` ships bytes over real TCP
    #: sockets between the machines' ``address`` endpoints — measured, not
    #: modelled (docs/NETWORKING.md)
    transport: str = "sim"
    stop: StopCondition = field(default_factory=lambda: StopCondition(max_seconds=10.0))
    seed: Optional[int] = None
    #: fault-tolerance layer; None keeps the seed behaviour (no supervision)
    supervision: Optional[SupervisionSpec] = None
    #: observability layer; None keeps telemetry fully off
    telemetry: Optional[TelemetrySpec] = None
    #: how sender threads pack small messages into BATCH envelopes
    coalescing: CoalescingSpec = field(default_factory=CoalescingSpec)
    #: adaptive overload control (priority lanes, watermarks, backpressure);
    #: None keeps the unbounded seed behaviour
    flow_control: Optional[FlowControlSpec] = None

    # -- derived -------------------------------------------------------------
    @property
    def agent_name(self) -> str:
        return self.agent or self.algorithm

    @property
    def num_explorers(self) -> int:
        return sum(machine.explorers for machine in self.machines)

    @property
    def learner_machine(self) -> MachineSpec:
        learners = [machine for machine in self.machines if machine.has_learner]
        if len(learners) != 1:
            raise ConfigError(
                f"exactly one machine must host the learner, found {len(learners)}"
            )
        return learners[0]

    def explorer_names(self) -> List[str]:
        names = []
        for machine in self.machines:
            for index in range(machine.explorers):
                names.append(f"{machine.name}.explorer-{index}")
        return names

    def validate(self) -> None:
        if not self.algorithm:
            raise ConfigError("algorithm must be set")
        if not self.environment:
            raise ConfigError("environment must be set")
        if not self.model:
            raise ConfigError("model must be set")
        if not self.machines:
            raise ConfigError("at least one machine is required")
        seen = set()
        for machine in self.machines:
            machine.validate()
            if machine.name in seen:
                raise ConfigError(f"duplicate machine name {machine.name!r}")
            seen.add(machine.name)
        _ = self.learner_machine  # raises unless exactly one
        if self.num_explorers < 1:
            raise ConfigError("at least one explorer is required")
        if self.fragment_steps < 1:
            raise ConfigError("fragment_steps must be >= 1")
        if self.nic_bandwidth <= 0:
            raise ConfigError("nic_bandwidth must be positive")
        if self.transport not in ("sim", "wire"):
            raise ConfigError(
                f"transport must be 'sim' or 'wire', got {self.transport!r}"
            )
        self.stop.validate()
        if self.supervision is not None:
            self.supervision.validate()
        if self.telemetry is not None:
            self.telemetry.validate()
        self.coalescing.validate()
        if self.flow_control is not None:
            self.flow_control.validate()

    # -- (de)serialization ------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "XingTianConfig":
        """Build (and validate) a config from a JSON-shaped dict; an unknown
        key, at the top level or inside a nested block, is a
        :class:`ConfigError` naming it."""
        data = dict(data)
        machines = [
            _build(MachineSpec, spec, "machines[]")
            for spec in data.pop("machines", [])
        ] or [MachineSpec("machine-0", explorers=1, has_learner=True)]
        built = {
            key: _build(spec_cls, data.pop(key, None), key)
            for key, spec_cls in _NESTED_SPECS.items()
        }
        # An absent or empty block takes the field's default.
        nested = {key: spec for key, spec in built.items() if spec is not None}
        config = _build(cls, {**data, "machines": machines, **nested}, "config")
        config.validate()
        return config


#: config keys holding a nested spec block, and the dataclass each builds
_NESTED_SPECS = {
    "stop": StopCondition,
    "supervision": SupervisionSpec,
    "telemetry": TelemetrySpec,
    "coalescing": CoalescingSpec,
    "flow_control": FlowControlSpec,
}


def _build(spec_cls: type, data: Any, where: str) -> Any:
    """``spec_cls(**data)``; an instance passes through, an empty block is
    ``None``, an unknown key is a :class:`ConfigError` (config files are
    outside input, not code)."""
    if isinstance(data, spec_cls):
        return data
    if not data:
        return None
    known = {spec_field.name for spec_field in fields(spec_cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigError(
            f"{where}: unknown key(s) {', '.join(map(repr, unknown))} "
            f"(known: {', '.join(sorted(known))})"
        )
    try:
        return spec_cls(**data)
    except TypeError as exc:  # a required key is missing
        raise ConfigError(f"{where}: {exc}") from None


def single_machine_config(
    algorithm: str,
    environment: str,
    model: str,
    *,
    explorers: int = 1,
    **overrides: Any,
) -> XingTianConfig:
    """Convenience constructor for the common one-machine deployment."""
    config = XingTianConfig(
        algorithm=algorithm,
        environment=environment,
        model=model,
        machines=[MachineSpec("machine-0", explorers=explorers, has_learner=True)],
        **overrides,
    )
    config.validate()
    return config
