"""The unified telemetry facade: registry + tracer + spans + sampler.

One :class:`Telemetry` object instruments one deployment: it owns the
:class:`~repro.obs.metrics.MetricsRegistry`, a
:class:`~repro.core.tracing.Tracer` — subscribed to the process's hop log
between :meth:`Telemetry.start` and :meth:`Telemetry.stop` — whose sink
feeds the :class:`~repro.obs.spans.SpanAggregator` live, and the periodic
:class:`~repro.obs.sampler.TelemetrySampler`.  Sessions build one from a
:class:`~repro.core.config.TelemetrySpec`, attach it to a cluster, start it
alongside the run, and export a snapshot into ``RunResult.metrics``.

Everything is off unless a config opts in (``telemetry=TelemetrySpec()``):
with no subscriber the hop log only packs its ring records, and the
process-level instruments stay ``None`` so the hot paths skip them.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, TYPE_CHECKING

from ..core.tracing import Tracer
from .exporters import snapshot, snapshot_to_json, to_prometheus
from .flowcontroller import FlowController
from .metrics import MetricsRegistry
from .sampler import TelemetrySampler
from .spans import SpanAggregator, SpanRecord, SpanStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.config import FlowControlSpec, TelemetrySpec


class Telemetry:
    """Bundles the observability subsystems for one run."""

    def __init__(
        self,
        *,
        registry: Optional[MetricsRegistry] = None,
        tracer_capacity: int = 65536,
        sample_interval: float = 0.05,
        series_capacity: int = 512,
        spans: bool = True,
        max_pending_spans: int = 8192,
    ):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.spans: Optional[SpanAggregator] = (
            SpanAggregator(self.registry, max_pending=max_pending_spans)
            if spans
            else None
        )
        self.tracer = Tracer(
            capacity=tracer_capacity,
            sink=self.spans.observe if self.spans is not None else None,
        )
        self.sampler = TelemetrySampler(
            self.registry,
            interval=sample_interval,
            series_capacity=series_capacity,
        )
        self._attached: List[Any] = []
        #: telemetry-driven adaptation loop; None until
        #: :meth:`enable_flow_control` (sessions call it when the config
        #: carries a FlowControlSpec)
        self.flow_controller: Optional[FlowController] = None

    @classmethod
    def from_spec(cls, spec: "TelemetrySpec") -> "Telemetry":
        return cls(
            tracer_capacity=spec.tracer_capacity,
            sample_interval=spec.sample_interval,
            series_capacity=spec.series_capacity,
            spans=spec.spans,
            max_pending_spans=spec.max_pending_spans,
        )

    # -- wiring -------------------------------------------------------------
    def enable_flow_control(self, spec: "FlowControlSpec") -> FlowController:
        """Create the adaptation loop (call before :meth:`attach_cluster`).

        The controller shares this telemetry's registry, so it reads the
        exact gauge objects the sampler writes.
        """
        if self.flow_controller is None:
            self.flow_controller = FlowController(self.registry, spec)
        return self.flow_controller

    def attach_cluster(self, cluster: Any) -> None:
        """Instrument every broker, router, and process of a built cluster."""
        for machine in cluster.machines:
            self.attach_broker(machine.broker)
        for process in [cluster.learner, *cluster.explorers]:
            self.instrument_process(process)
        center_endpoint = getattr(cluster.center, "endpoint", None)
        if center_endpoint is not None:
            self.attach_endpoint(center_endpoint)
        data_fabric = getattr(cluster, "data_fabric", None)
        if callable(getattr(data_fabric, "link_stats", None)):
            # Wire deployments: per-socket-link gauges + the zero-copy canary.
            self.sampler.add_wire_fabric(data_fabric)
        add_hook = getattr(cluster, "add_instrument_hook", None)
        if add_hook is not None:
            # Keep supervisor-restarted replacement processes instrumented.
            add_hook(self.instrument_process)
        cluster.telemetry = self

    def attach_broker(self, broker: Any) -> None:
        self.sampler.add_broker(broker)
        if self.flow_controller is not None and getattr(broker, "flow", None):
            self.flow_controller.attach_broker(broker)

    def attach_endpoint(self, endpoint: Any) -> None:
        endpoint.attach_metrics(self.registry)
        self.sampler.add_endpoint(endpoint)
        if self.flow_controller is not None and getattr(endpoint, "flow", None):
            self.flow_controller.attach_endpoint(endpoint)

    def instrument_process(self, process: Any) -> None:
        """Instrument one explorer/learner (also used after a restart)."""
        self.attach_endpoint(process.endpoint)
        attach = getattr(process, "attach_metrics", None)
        if attach is not None:
            attach(self.registry)
        self._attached.append(process)

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        self.tracer.attach()
        self.sampler.start()
        if self.flow_controller is not None:
            self.flow_controller.start()

    def stop(self) -> None:
        if self.flow_controller is not None:
            self.flow_controller.stop()
        self.sampler.stop()
        self.tracer.detach()

    # -- exports ------------------------------------------------------------
    def span_stats(self) -> Optional[SpanStats]:
        return self.spans.stats() if self.spans is not None else None

    def span_records(self) -> List[SpanRecord]:
        return self.spans.records() if self.spans is not None else []

    def export_trace(self, path: str, *, process: str = "main") -> int:
        """Write the tracer's buffer to ``path`` as a JSONL trace file.

        The output is what ``python -m repro.obs.trace`` consumes: one
        process's contribution to a merged cross-process timeline.  Returns
        the number of events written.
        """
        from .trace.events import write_events

        events = self.tracer.events()
        write_events(path, events, process=process)
        return len(events)

    def snapshot(self, meta: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        merged: Dict[str, Any] = dict(meta or {})
        if self.spans is not None:
            stats = self.spans.stats()
            merged.setdefault(
                "spans",
                {
                    "matched": stats.matched,
                    "unmatched_ends": stats.unmatched_ends,
                    "evicted_starts": stats.evicted_starts,
                    "negative_durations": stats.negative_durations,
                    "terminated": dict(stats.terminated),
                },
            )
        return snapshot(self.registry, meta=merged)

    def snapshot_json(self, meta: Optional[Dict[str, Any]] = None) -> str:
        import json

        return json.dumps(self.snapshot(meta=meta), indent=2) + "\n"

    def prometheus(self) -> str:
        return to_prometheus(self.registry)


__all__ = [
    "Telemetry",
    "FlowController",
    "MetricsRegistry",
    "SpanAggregator",
    "TelemetrySampler",
    "snapshot",
    "snapshot_to_json",
    "to_prometheus",
]
