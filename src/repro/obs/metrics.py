"""Thread-safe metrics primitives: Counter, Gauge and the registry.

The unified telemetry layer (docs/OBSERVABILITY.md) hangs off one
:class:`MetricsRegistry` per run.  Instruments are identified by a metric
name plus a frozen label set — asking the registry for the same
(name, labels) pair twice returns the same instrument.  Histograms are
:class:`~repro.core.stats.LatencyRecorder` objects: the registry makes one
on request (:meth:`MetricsRegistry.histogram`) or exports one a process
already feeds (:meth:`MetricsRegistry.expose`) — the data plane records
once, the registry only names what it reads.

Design constraints, in order:

* **nothing on the hot path** — the sampler and the exporters read the
  data plane's own meters and recorders; only ``repro.obs`` code (span
  aggregation, the sampler) ever calls ``inc``/``set``/``record`` here;
* **deterministic export** — :func:`repro.obs.exporters.snapshot` and the
  Prometheus exposition sort by (name, labels) so two identical runs
  produce byte-identical artifacts modulo the recorded values;
* **no dependencies** — stdlib only, mirroring the rest of ``repro.core``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from ..core.concurrency import make_lock
from ..core.stats import DEFAULT_LATENCY_BUCKETS, LatencyRecorder

Labels = Tuple[Tuple[str, str], ...]
"""Canonical (sorted, frozen) label representation used as part of keys."""

def canonical_labels(labels: Optional[Dict[str, str]]) -> Labels:
    """Freeze a label dict into the registry's canonical key form."""
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing sum."""

    def __init__(self, name: str = ""):
        self.name = name
        self._lock = make_lock(f"obs.counter.{name}")
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """A point-in-time value, optionally keeping a bounded sample series.

    The periodic sampler stores queue depths here; ``series()`` returns the
    retained ``(timestamp, value)`` samples (newest ``series_capacity``)
    for the queue-depth-over-time exports.
    """

    def __init__(self, name: str = "", series_capacity: int = 0):
        self.name = name
        self._lock = make_lock(f"obs.gauge.{name}")
        self._value = 0.0
        self._series: Optional[Deque[Tuple[float, float]]] = (
            deque(maxlen=series_capacity) if series_capacity > 0 else None
        )

    def set(self, value: float, timestamp: Optional[float] = None) -> None:
        with self._lock:
            self._value = float(value)
            if self._series is not None and timestamp is not None:
                self._series.append((timestamp, float(value)))

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def series(self) -> List[Tuple[float, float]]:
        with self._lock:
            return list(self._series) if self._series is not None else []


@dataclass(frozen=True)
class Metric:
    """One exported series: the name the registry gives an instrument.

    ``instrument`` is a :class:`Counter`, a :class:`Gauge`, or — for
    ``kind == "histogram"`` — a :class:`~repro.core.stats.LatencyRecorder`.
    """

    name: str
    labels: Labels
    help: str
    kind: str
    instrument: Any


class MetricsRegistry:
    """Process-local registry handing out (and retaining) instruments.

    ``namespace`` is prefixed to every metric name at export time
    (``xt_message_stage_seconds``), keeping recording sites short.
    """

    def __init__(self, namespace: str = "xt"):
        self.namespace = namespace
        self._lock = make_lock("obs.registry")
        self._metrics: Dict[Tuple[str, Labels], Metric] = {}

    def _get(self, kind: str, name: str, labels: Labels, help: str, factory) -> Any:
        with self._lock:
            metric = self._metrics.get((name, labels))
            if metric is None:
                for other in self._metrics.values():
                    if other.name == name and other.kind != kind:
                        raise ValueError(
                            f"metric {name!r} already registered as {other.kind}"
                        )
                metric = Metric(name, labels, help, kind, factory())
                self._metrics[(name, labels)] = metric
            elif metric.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {metric.kind}"
                )
            return metric.instrument

    def counter(
        self, name: str, labels: Optional[Dict[str, str]] = None, help: str = ""
    ) -> Counter:
        return self._get(
            "counter", name, canonical_labels(labels), help, lambda: Counter(name)
        )

    def gauge(
        self,
        name: str,
        labels: Optional[Dict[str, str]] = None,
        help: str = "",
        series_capacity: int = 0,
    ) -> Gauge:
        return self._get(
            "gauge", name, canonical_labels(labels), help,
            lambda: Gauge(name, series_capacity),
        )

    def histogram(
        self,
        name: str,
        labels: Optional[Dict[str, str]] = None,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> LatencyRecorder:
        return self._get(
            "histogram", name, canonical_labels(labels), help,
            lambda: LatencyRecorder(name, buckets=buckets),
        )

    def expose(
        self,
        name: str,
        labels: Optional[Dict[str, str]],
        recorder: LatencyRecorder,
        help: str = "",
    ) -> None:
        """Export ``recorder`` — one its owner already feeds — as the
        histogram ``name{labels}``, replacing whatever held that name (a
        supervised replacement process brings a fresh recorder)."""
        frozen = canonical_labels(labels)
        with self._lock:
            self._metrics[(name, frozen)] = Metric(
                name, frozen, help, "histogram", recorder
            )

    def collect(self) -> List[Metric]:
        """Every registered metric, sorted by (name, labels)."""
        with self._lock:
            metrics = list(self._metrics.values())
        return sorted(metrics, key=lambda metric: (metric.name, metric.labels))

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)
