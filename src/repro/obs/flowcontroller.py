"""Adaptation under overload: the flow-control feedback loop.

One supervised thread reads the data plane's own backpressure accounting —
``communicator.flow_stats()`` (header queue and every local ID queue),
each endpoint's send buffer, the store's ``arena_stats()`` — and actuates
three degradation levers when the pipeline falls behind:

* **coalescing** — raise each endpoint's ``CoalescingSpec`` size threshold
  so more small messages ride per BATCH envelope (fewer headers, fewer
  routing decisions) while queues are pressured;
* **wire compression** — enable the broker's
  :class:`~repro.core.compression.WireCompressor` so bulk bodies cross
  throttled links compressed (CPU for bandwidth);
* **admission + at-rest compression** — when arena occupancy trips its
  watermark, tighten bulk admission (scaled watermarks shed earlier) and
  lower the store's compression threshold so large bodies move off the
  arena into compressed overflow segments.

The queue signal is the deepest bulk lane anywhere upstream of a receiver
thread: the header queue backs up behind a slow link, an ID queue behind a
receiver that cannot keep up, a send buffer behind a sender thread that
cannot — so overload escalates on one broker as it does across two.

Escalation needs ``escalate_after`` consecutive pressured polls; full
relaxation back to the configured baseline needs ``relax_after`` clear
polls (asymmetric on purpose: degrade fast, recover cautiously).  The
controller needs no telemetry to run; it counts its own decisions
(``escalations`` / ``relaxations`` / ``polls``), and a telemetry sampler
that is given the controller exports them as the ``flow_*`` metrics, so
snapshots show *when* and *why* the system degraded.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Any, Callable, Dict, Iterable, List, Optional

from ..core.concurrency import make_lock, spawn_thread
from ..core.config import FlowControlSpec


class FlowController:
    """Polls backpressure depths; retunes coalescing/compression/admission."""

    def __init__(self, spec: FlowControlSpec, *, name: str = "flow-controller"):
        self.spec = spec
        self.name = name
        self._lock = make_lock(f"{name}.state")
        self._brokers: List[Any] = []
        #: each yields the endpoints to manage *now* (a cluster's change
        #: when the supervisor replaces a process)
        self._endpoint_sources: List[Callable[[], Iterable[Any]]] = []
        #: store -> the compression policy it was deployed with
        self._stores: Dict[Any, Any] = {}
        #: endpoint name -> the coalescing spec it was deployed with
        self._original_coalescing: Dict[str, Any] = {}
        self._pressured_polls = 0
        self._clear_polls = 0
        self._escalated = False
        self._admission_tight = False
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self.error: Optional[BaseException] = None
        #: decisions taken so far (read by the telemetry sampler)
        self.escalations = 0
        self.relaxations = 0
        self.polls = 0

    # -- attachment -----------------------------------------------------------
    def attach_cluster(self, cluster: Any) -> None:
        """Watch every broker and manage every endpoint of a built cluster,
        including the ones the supervisor deploys later."""
        for machine in cluster.machines:
            self.attach_broker(machine.broker)
        with self._lock:
            self._endpoint_sources.append(cluster.endpoints)

    def attach_broker(self, broker: Any) -> None:
        """Watch a broker's queues and arena; manage its store's codec."""
        with self._lock:
            self._brokers.append(broker)
            store = broker.communicator.object_store
            if getattr(store, "set_compression", None) is not None:
                self._stores[store] = store.compression

    def attach_endpoint(self, endpoint: Any) -> None:
        """Watch an endpoint's send buffer; manage its coalescing spec
        (``max_batch=1``: nothing to retune)."""
        with self._lock:
            self._endpoint_sources.append(lambda: (endpoint,))

    # -- signals --------------------------------------------------------------
    def _queue_pressured(self, endpoints: List[Any]) -> bool:
        threshold = self.spec.queue_pressure_fraction * self.spec.bulk_watermark
        queues = [
            stats
            for broker in self._brokers
            for stats in broker.communicator.flow_stats().values()
        ]
        queues += [endpoint.send_buffer.flow_stats() for endpoint in endpoints]
        return any(stats["bulk_depth"] >= threshold for stats in queues)

    def _arena_pressured(self) -> bool:
        for broker in self._brokers:
            arena_stats = getattr(
                broker.communicator.object_store, "arena_stats", None
            )
            if arena_stats is not None and arena_stats().get("pressure", 0) > 0:
                return True
        return False

    # -- actuation ------------------------------------------------------------
    def _escalate(self, endpoints: List[Any], arena_pressured: bool) -> None:
        """Apply the degradation levers (controller thread only)."""
        self._escalated = True
        for endpoint in endpoints:
            current = endpoint.coalescing
            if current.max_batch == 1:  # one header per message, by choice
                continue
            raised = min(
                self.spec.coalescing_max_bytes, current.max_message_bytes * 2
            )
            if raised != current.max_message_bytes:
                # Atomic reference swap; the sender loop re-reads the spec
                # every wakeup, so the new threshold applies immediately.
                endpoint.coalescing = dataclasses.replace(
                    current, max_message_bytes=raised
                )
        for broker in self._brokers:
            wire = getattr(broker, "wire", None)
            if wire is not None:
                wire.set_enabled(True)
        if arena_pressured and not self._admission_tight:
            self._admission_tight = True
            for broker in self._brokers:
                broker.communicator.set_pressure(True)
            for store in self._stores:
                current = store.compression
                lowered = max(
                    self.spec.compression_min_threshold,
                    (current.threshold or self.spec.compression_min_threshold)
                    // 2,
                )
                store.set_compression(
                    dataclasses.replace(
                        current, enabled=True, threshold=lowered
                    )
                )

    def _relax(self, endpoints: List[Any]) -> None:
        """Restore the configured baseline (controller thread only)."""
        self._escalated = False
        for endpoint in endpoints:
            endpoint.coalescing = self._original_coalescing[endpoint.name]
        for broker in self._brokers:
            wire = getattr(broker, "wire", None)
            if wire is not None:
                wire.set_enabled(False)
        if self._admission_tight:
            self._admission_tight = False
            for broker in self._brokers:
                broker.communicator.set_pressure(False)
            for store, original in self._stores.items():
                store.set_compression(original)

    # -- control loop ---------------------------------------------------------
    def poll_once(self) -> None:
        """One observe-decide-act step (also the unit tests' entry point)."""
        with self._lock:
            endpoints = [
                endpoint for source in self._endpoint_sources for endpoint in source()
            ]
            for endpoint in endpoints:
                # A replacement is deployed with the spec of the process it
                # replaces, so the first sighting of a name is its baseline.
                self._original_coalescing.setdefault(
                    endpoint.name, endpoint.coalescing
                )
            queue_pressured = self._queue_pressured(endpoints)
            arena_pressured = self._arena_pressured()
            if queue_pressured or arena_pressured:
                self._pressured_polls += 1
                self._clear_polls = 0
            else:
                self._clear_polls += 1
                self._pressured_polls = 0
            if self._pressured_polls >= self.spec.escalate_after:
                self.escalations += 1
                self._escalate(endpoints, arena_pressured)
                self._pressured_polls = 0  # re-arm (repeat escalations
                # keep doubling coalescing up to the configured cap)
            elif self._clear_polls >= self.spec.relax_after and (
                self._escalated or self._admission_tight
            ):
                self.relaxations += 1
                self._relax(endpoints)
                self._clear_polls = 0
            self.polls += 1

    @property
    def degraded(self) -> bool:
        with self._lock:
            return self._escalated

    @property
    def admission_tightened(self) -> bool:
        with self._lock:
            return self._admission_tight

    def _run(self) -> None:
        try:
            while not self._stop.wait(self.spec.adapt_interval_s):
                self.poll_once()
        except BaseException as exc:  # noqa: BLE001 - surfaced like a workhorse
            self.error = exc

    # -- lifecycle ------------------------------------------------------------
    def start(self) -> None:
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = spawn_thread(self.name, self._run)

    def stop(self, timeout: float = 2.0) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()


__all__ = ["FlowController"]
