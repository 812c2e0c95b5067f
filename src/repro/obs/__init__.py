"""Unified telemetry layer (docs/OBSERVABILITY.md).

* :mod:`repro.obs.metrics` — thread-safe Counter/Gauge registry; its
  histograms are the data plane's own
  :class:`~repro.core.stats.LatencyRecorder` objects;
* :mod:`repro.obs.spans` — message-lifecycle span correlation
  (sent → routed → delivered → consumed) into per-stage histograms;
* :mod:`repro.obs.sampler` — a supervised thread periodically reading
  queue depths, store occupancy, backpressure accounting and the meters
  each process keeps about itself;
* :mod:`repro.obs.exporters` — Prometheus text exposition and
  deterministic JSON snapshots (schema ``repro.obs/v1``);
* :mod:`repro.obs.telemetry` — the :class:`Telemetry` facade sessions use.
"""

from .exporters import (
    SNAPSHOT_SCHEMA,
    parse_prometheus,
    snapshot,
    snapshot_to_json,
    to_prometheus,
    validate_snapshot,
)
from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Metric,
    MetricsRegistry,
)
from .flowcontroller import FlowController
from .sampler import TelemetrySampler
from .spans import STAGES, SpanAggregator, SpanRecord, SpanStats
from .telemetry import Telemetry

__all__ = [
    "SNAPSHOT_SCHEMA",
    "DEFAULT_LATENCY_BUCKETS",
    "STAGES",
    "Counter",
    "FlowController",
    "Gauge",
    "Metric",
    "MetricsRegistry",
    "SpanAggregator",
    "SpanRecord",
    "SpanStats",
    "Telemetry",
    "TelemetrySampler",
    "parse_prometheus",
    "snapshot",
    "snapshot_to_json",
    "to_prometheus",
    "validate_snapshot",
]
