"""The unified telemetry facade: registry + tracer + spans + sampler.

One :class:`Telemetry` object observes one deployment.  It owns the
:class:`~repro.obs.metrics.MetricsRegistry`; a
:class:`~repro.core.tracing.Tracer` and the
:class:`~repro.obs.spans.SpanAggregator`, each a reader of the process's
hop log between :meth:`Telemetry.start` and :meth:`Telemetry.stop`; and
the periodic :class:`~repro.obs.sampler.TelemetrySampler`, whose sweep
polls the aggregator and reads the meters, recorders and queue depths the
data plane keeps anyway.  Sessions build one from a
:class:`~repro.core.config.TelemetrySpec`, point it at a cluster, start it
alongside the run, and export a snapshot into ``RunResult.metrics``.

Everything is off unless a config opts in (``telemetry=TelemetrySpec()``).
Nothing is attached *to* the data plane either way: a hop packs its ring
record and what a process records about itself it records once, whether
or not anybody reads it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, TYPE_CHECKING

from ..core.tracing import Tracer
from .exporters import snapshot, to_prometheus
from .flowcontroller import FlowController
from .metrics import MetricsRegistry
from .sampler import TelemetrySampler
from .spans import SpanAggregator, SpanRecord, SpanStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.config import TelemetrySpec


class Telemetry:
    """Bundles the observability subsystems for one run."""

    def __init__(
        self,
        *,
        registry: Optional[MetricsRegistry] = None,
        tracer_capacity: int = 65536,
        sample_interval: float = 0.05,
        series_capacity: int = 512,
        max_pending_spans: int = 8192,
    ):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.spans = SpanAggregator(self.registry, max_pending=max_pending_spans)
        #: its capacity is also the ring size this run asks the hop log for:
        #: what the aggregator may leave unread between two sweeps
        self.tracer = Tracer(capacity=tracer_capacity)
        self.sampler = TelemetrySampler(
            self.registry,
            interval=sample_interval,
            series_capacity=series_capacity,
        )
        self.sampler.add_probe(lambda _timestamp: self.spans.poll())

    @classmethod
    def from_spec(cls, spec: "TelemetrySpec") -> "Telemetry":
        return cls(
            tracer_capacity=spec.tracer_capacity,
            sample_interval=spec.sample_interval,
            series_capacity=spec.series_capacity,
            max_pending_spans=spec.max_pending_spans,
        )

    # -- wiring -------------------------------------------------------------
    def attach_cluster(self, cluster: Any) -> None:
        """Read every broker, process and controller endpoint of a built
        cluster — whichever processes it holds at each sweep, so the
        supervisor's replacements need no re-attachment."""
        for machine in cluster.machines:
            self.attach_broker(machine.broker)
        self.sampler.add_processes(cluster.processes)
        self.attach_endpoint(cluster.center.endpoint)
        data_fabric = getattr(cluster, "data_fabric", None)
        if callable(getattr(data_fabric, "link_stats", None)):
            # Wire deployments: per-socket-link gauges + the zero-copy canary.
            self.sampler.add_wire_fabric(data_fabric)

    def attach_broker(self, broker: Any) -> None:
        self.sampler.add_broker(broker)

    def attach_endpoint(self, endpoint: Any) -> None:
        self.sampler.add_endpoint(endpoint)

    def attach_flow_controller(self, controller: FlowController) -> None:
        """Export a running controller's decisions as the ``flow_*`` metrics."""
        self.sampler.add_flow_controller(controller)

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        self.tracer.attach()
        self.spans.attach()
        self.sampler.start()

    def stop(self) -> None:
        self.sampler.stop()
        self.spans.detach()
        self.tracer.detach()

    # -- exports ------------------------------------------------------------
    def span_stats(self) -> SpanStats:
        return self.spans.stats()

    def span_records(self) -> List[SpanRecord]:
        return self.spans.records()

    def export_trace(self, path: str, *, process: str = "main") -> int:
        """Write the tracer's buffer to ``path`` as a JSONL trace file.

        The output is what ``python -m repro.obs.trace`` consumes: one
        process's contribution to a merged cross-process timeline.  Returns
        the number of events written.
        """
        from .trace.events import write_events

        events = self.tracer.dicts()
        write_events(path, events, process=process)
        return len(events)

    def snapshot(self, meta: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        merged: Dict[str, Any] = dict(meta or {})
        stats = self.spans.stats()
        merged.setdefault(
            "spans",
            {
                "matched": stats.matched,
                "unmatched_ends": stats.unmatched_ends,
                "evicted_starts": stats.evicted_starts,
                "negative_durations": stats.negative_durations,
                "terminated": stats.terminated,
                # Records the ring overwrote before a sweep read them.
                "missed": self.spans.missed,
            },
        )
        self.sampler.read_totals()
        return snapshot(self.registry, meta=merged)

    def prometheus(self) -> str:
        self.sampler.read_totals()
        return to_prometheus(self.registry)


__all__ = ["Telemetry"]
