"""Periodic telemetry sampler: the one reader of the data plane's meters.

A single supervised thread (spawned through
:func:`repro.core.concurrency.spawn_thread`, like every other framework
workhorse) wakes every ``interval`` seconds and reads what the data plane
already keeps about itself — nothing is attached to it and nothing is
recorded a second time on its hot paths:

* **brokers** — header-queue depth, per-process ID-queue depths, object
  store occupancy (objects, bytes, outstanding refcount shares);
* **endpoints** — send-buffer backlog (sender backpressure: the workhorse
  is producing faster than the sender thread drains) and receive-buffer
  backlog (consumer lag), the sent/received meters, the delivery-latency
  recorder;
* **explorers and the learner** — step meters, session and broadcast
  counts, the wait and train recorders.

Point-in-time values land in a :class:`~repro.obs.metrics.Gauge` with a
bounded sample series, so snapshots carry queue-depth-over-time without
unbounded growth.  Running totals are *delta-accumulated* into registry
counters: each sweep adds what the owner's total grew by, so a process
the supervisor swaps in continues the dead one's counter instead of
restarting it at zero (at most the dead one's last interval is missed).
Latency recorders are not copied: the registry exports the recorder
itself.  A probe that raises (a queue torn down mid-sample) increments
``sampler_errors_total`` and the loop carries on — sampling must never
take a run down.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.concurrency import make_lock, spawn_thread
from .metrics import Gauge, MetricsRegistry

Probe = Callable[[float], None]
"""A sampling callback receiving the sample timestamp."""

Totals = Sequence[Tuple[str, Callable[[Any], float]]]
"""Running totals an object keeps: ``(metric, read(owner))`` rows."""

_ENDPOINT_TOTALS: Totals = (
    ("endpoint_messages_sent_total", lambda endpoint: endpoint.sent_meter.count),
    ("endpoint_bytes_sent_total", lambda endpoint: endpoint.sent_meter.total),
    ("endpoint_messages_received_total", lambda endpoint: endpoint.received_meter.count),
    ("endpoint_bytes_received_total", lambda endpoint: endpoint.received_meter.total),
)
_EXPLORER_TOTALS: Totals = (
    ("explorer_env_steps_total", lambda explorer: explorer.steps_meter.total),
    ("explorer_fragments_total", lambda explorer: explorer.fragments_sent),
    ("explorer_weight_updates_total", lambda explorer: explorer.weight_updates),
)
_LEARNER_TOTALS: Totals = (
    ("trainer_train_sessions_total", lambda learner: learner.train_sessions),
    ("trainer_trained_steps_total", lambda learner: learner.consumed_meter.total),
    ("trainer_broadcasts_total", lambda learner: learner.broadcasts),
)
#: latency recorders exported as they are: metric -> the owner's attribute
_ENDPOINT_RECORDERS = {
    "endpoint_delivery_latency_seconds": "delivery_latency",
    "endpoint_coalesce_batch_size": "coalesce_sizes",
}
_LEARNER_RECORDERS = {
    "trainer_wait_seconds": "wait_recorder",
    "trainer_train_seconds": "train_recorder",
}

#: per-lane ``flow_stats`` keys -> the backpressure family
_FLOW_METRICS = {
    "depth": "backpressure_lane_depth",
    "shed": "backpressure_shed_total",
    "blocked": "backpressure_blocked_total",
    "block_seconds": "backpressure_block_seconds_total",
    "expired": "backpressure_expired_total",
}
_ARENA_STATS = (
    "allocated_blocks", "allocated_bytes", "slab_bytes", "free_blocks",
    "capacity_bytes",
)
#: SocketLink/SocketListener stats mirrored into per-link wire gauges
_WIRE_LINK_STATS = (
    "bytes_sent", "items_sent", "syscalls_total", "syscalls_per_message",
    "segments_per_message", "partial_writes", "send_errors", "bytes_received",
    "items_received", "reads_total", "reads_per_message", "protocol_errors",
    "delivery_errors", "connections_total", "lane_shipments", "lane_bytes",
    "lane_fallbacks", "lane_outstanding", "lane_arrivals", "credits_sent",
)

#: every metric the sampler exports, and what it means
_HELP = {
    "broker_header_queue_depth": "headers waiting for the router",
    "broker_id_queue_depth": "headers parked in one destination ID queue",
    "object_store_objects": "live object-store entries",
    "object_store_bytes": "bytes held by live entries",
    "object_store_refcounts": "outstanding refcount shares across live entries",
    "store_overflow_puts_total":
        "puts forced onto per-message overflow segments by arena exhaustion "
        "(running total)",
    "arena_allocated_blocks": "live arena blocks",
    "arena_allocated_bytes": "bytes held by live arena blocks",
    "arena_slab_bytes": "total shared memory mapped by arena slabs",
    "arena_free_blocks": "recycled blocks parked on arena free lists",
    "arena_capacity_bytes": "arena occupancy bound",
    "backpressure_lane_depth": "entries queued in one priority lane",
    "backpressure_shed_total":
        "oldest bulk entries dropped at the watermark (running total)",
    "backpressure_blocked_total":
        "control puts that had to wait at the watermark (running total)",
    "backpressure_block_seconds_total":
        "cumulative seconds control producers spent blocked",
    "backpressure_expired_total":
        "control puts abandoned at their deadline (running total)",
    "backpressure_send_expired_total":
        "control-lane sends the sender thread abandoned at their admission "
        "deadline (running total)",
    "serialization_copies_total":
        "contiguous-bytes frame materializations in this process (zero-copy "
        "send paths keep this flat)",
    "wire_link_bytes_sent": "bytes written to the socket (running total)",
    "wire_link_items_sent": "messages written to the socket (running total)",
    "wire_link_syscalls_total": "sendmsg/sendall syscalls issued (running total)",
    "wire_link_syscalls_per_message":
        "write syscalls per message (running ratio; below 1 when messages "
        "drained together cross in one gather write)",
    "wire_link_segments_per_message": "mean scatter-gather segments per message",
    "wire_link_partial_writes":
        "writes, of one message or a gathered group, whose first syscall "
        "was short",
    "wire_link_send_errors":
        "sends that failed on a connection error, the one that killed the "
        "link and every one offered to it since",
    "wire_link_bytes_received": "bytes read off the socket (running total)",
    "wire_link_items_received": "messages delivered to the broker",
    "wire_link_reads_total": "recv syscalls that brought bytes (running total)",
    "wire_link_reads_per_message":
        "reads per message received (running ratio; below 1 when one read "
        "brings several small messages, 3 for a message read into its own "
        "buffer)",
    "wire_link_protocol_errors": "poisoned streams dropped by the listener",
    "wire_link_delivery_errors":
        "hand-ups of received messages that raised in the broker",
    "wire_link_connections_total": "peer connections accepted",
    "wire_link_lane_shipments":
        "bodies written to same-host lane blocks (running total)",
    "wire_link_lane_bytes": "body frame bytes shipped on the lane (running total)",
    "wire_link_lane_fallbacks":
        "lane bodies sent as bytes because the lane arena was exhausted",
    "wire_link_lane_outstanding": "lane blocks not credited back yet",
    "wire_link_lane_arrivals": "lane handles received (running total)",
    "wire_link_credits_sent": "lane blocks credited back to the link",
    "endpoint_send_backlog":
        "messages staged but not yet pushed by the sender thread (sender "
        "backpressure)",
    "endpoint_receive_backlog":
        "messages delivered but not yet consumed by the workhorse",
    "endpoint_messages_sent_total": "messages the sender thread pushed onward",
    "endpoint_bytes_sent_total": "payload bytes the sender thread pushed onward",
    "endpoint_messages_received_total": "messages landed in the local receive buffer",
    "endpoint_bytes_received_total": "payload bytes landed in the local receive buffer",
    "endpoint_delivery_latency_seconds": "message age when the receiver thread lands it",
    "endpoint_coalesce_batch_size": "sub-messages per coalesced BATCH envelope",
    "explorer_env_steps_total": "environment steps generated",
    "explorer_fragments_total": "rollout fragments staged for the learner",
    "explorer_weight_updates_total": "weight broadcasts applied",
    "trainer_train_sessions_total": "completed training sessions",
    "trainer_trained_steps_total": "rollout steps consumed by training",
    "trainer_broadcasts_total": "weight broadcasts staged for explorers",
    "trainer_wait_seconds": "actual wait: idle time before a training session starts",
    "trainer_train_seconds": "wall time of one training session",
    "flow_adaptations_total": "degradation / recovery steps taken by the flow controller",
    "flow_polls_total": "completed flow-controller polls",
    "flow_degradation_level": "0 at baseline, 1 while degraded (coalescing raised)",
}


class TelemetrySampler:
    """Polls registered probes on a fixed interval from one thread."""

    def __init__(
        self,
        registry: MetricsRegistry,
        *,
        interval: float = 0.05,
        series_capacity: int = 512,
        clock: Callable[[], float] = time.monotonic,
        name: str = "telemetry-sampler",
    ):
        if interval <= 0:
            raise ValueError("sample interval must be positive")
        self.registry = registry
        self.interval = interval
        self.series_capacity = series_capacity
        self.name = name
        self._clock = clock
        self._probes: List[Probe] = []
        #: probes that only read running totals: swept after the others,
        #: and again by :meth:`read_totals` when a snapshot is taken
        self._readers: List[Probe] = []
        self._probes_lock = make_lock(f"{name}.probes")
        #: one sweep at a time: the sampler thread's, or an export's
        #: read_totals() — two would add the same delta twice
        self._sweep_lock = make_lock(f"{name}.sweep")
        #: (metric, *label values) -> its series gauge, resolved once
        self._gauges: Dict[tuple, Gauge] = {}
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self.error: Optional[BaseException] = None
        self._samples = registry.counter(
            "sampler_ticks_total", help="completed sampling sweeps"
        )
        self._errors = registry.counter(
            "sampler_errors_total", help="probes that raised during sampling"
        )

    # -- probe registration -------------------------------------------------
    def add_probe(self, probe: Probe, *, totals: Optional[Probe] = None) -> None:
        with self._probes_lock:
            self._probes.append(probe)
            if totals is not None:
                self._readers.append(totals)

    def _set(
        self, metric: str, labels: Dict[str, str], value: float, timestamp: float
    ) -> None:
        """Sample ``value`` into the series gauge ``metric{labels}`` (made on
        first use: queues and links appear as processes register)."""
        key = (metric, *labels.values())
        gauge = self._gauges.get(key)
        if gauge is None:
            with self._probes_lock:
                gauge = self._gauges[key] = self.registry.gauge(
                    metric, labels, help=_HELP[metric],
                    series_capacity=self.series_capacity,
                )
        gauge.set(value, timestamp)

    def _totals_reader(self, *sources: Tuple[Any, Totals, Optional[Dict[str, str]]]) -> Probe:
        """Adds what the running totals of each ``(owner, rows, labels)``
        source grew by since the last read to the registry counters."""
        reads = [
            (self.registry.counter(metric, labels, help=_HELP[metric]), total_of, owner)
            for owner, rows, labels in sources
            for metric, total_of in rows
        ]
        last = [0.0] * len(reads)

        def read(_timestamp: float) -> None:
            for index, (counter, total_of, owner) in enumerate(reads):
                total = total_of(owner)
                counter.inc(total - last[index])
                last[index] = total

        return read

    def _expose(self, owner: Any, recorders: Dict[str, str], labels: Dict[str, str]) -> None:
        for metric, attribute in recorders.items():
            self.registry.expose(
                metric, labels, getattr(owner, attribute), help=_HELP[metric]
            )

    def _sample_flow(
        self, component: str, queues: Dict[str, Dict[str, float]], timestamp: float
    ) -> None:
        """Mirror per-lane backpressure accounting — ``{queue: flow_stats}``,
        see :meth:`repro.core.flowcontrol.LaneChannel.flow_stats`."""
        for queue, stats in queues.items():
            labels = {"component": component, "queue": queue}
            for lane in ("control", "bulk"):
                for stat, metric in _FLOW_METRICS.items():
                    self._set(
                        metric, {**labels, "lane": lane},
                        stats[f"{lane}_{stat}"], timestamp,
                    )

    def add_broker(self, broker: Any) -> None:
        """Sample a :class:`repro.core.broker.Broker`'s communicator+store."""
        communicator = broker.communicator
        store = communicator.object_store
        labels = {"broker": broker.name}

        def probe(timestamp: float) -> None:
            self._set(
                "broker_header_queue_depth", labels,
                communicator.header_queue.qsize(), timestamp,
            )
            self._set("object_store_objects", labels, len(store), timestamp)
            self._set(
                "object_store_bytes", labels, getattr(store, "used_bytes", 0), timestamp
            )
            outstanding = getattr(store, "outstanding_refcounts", None)
            if outstanding is None:  # O(n) fallback for third-party stores
                outstanding = sum(count for _, count, _ in store.leak_report())
            self._set("object_store_refcounts", labels, outstanding, timestamp)
            # Shared-memory stores only (repro.core.arena.SlabArena.stats).
            if getattr(store, "arena_stats", None) is not None:
                arena = store.arena_stats()
                for stat in _ARENA_STATS:
                    self._set(f"arena_{stat}", labels, arena.get(stat, 0), timestamp)
            if getattr(store, "total_overflow_put", None) is not None:
                self._set(
                    "store_overflow_puts_total", labels,
                    store.total_overflow_put, timestamp,
                )
            if getattr(communicator, "flow", None) is not None:
                self._sample_flow(broker.name, communicator.flow_stats(), timestamp)
            for process_name, depth in communicator.queue_depths().items():
                self._set(
                    "broker_id_queue_depth",
                    {"broker": broker.name, "process": process_name},
                    depth, timestamp,
                )

        self.add_probe(probe)

    def add_wire_fabric(self, fabric: Any) -> None:
        """Sample a :class:`repro.transport.tcp.SocketFabric`'s links.

        Mirrors every counter in :meth:`SocketFabric.link_stats` into a
        ``wire_link_*`` gauge labelled by link (``"src->dst"`` senders,
        ``"listen:node"`` receivers), plus the process-wide zero-copy
        regression canary
        :func:`~repro.core.serialization.serialization_copies_total` — a
        send path that starts materializing contiguous buffers shows up
        here before it shows up in a benchmark.
        """
        from ..core.serialization import serialization_copies_total

        def probe(timestamp: float) -> None:
            self._set(
                "serialization_copies_total", {}, serialization_copies_total(), timestamp
            )
            for link_name, stats in fabric.link_stats().items():
                for stat in _WIRE_LINK_STATS:
                    if stat in stats:
                        self._set(
                            f"wire_link_{stat}", {"link": link_name},
                            stats[stat], timestamp,
                        )

        self.add_probe(probe)

    def _endpoint_probe(self, endpoint: Any) -> Probe:
        """Expose one endpoint's recorders; returns the probe of its buffers."""
        labels = {"endpoint": endpoint.name}
        self._expose(endpoint, _ENDPOINT_RECORDERS, {"process": endpoint.name})

        def probe(timestamp: float) -> None:
            self._set(
                "endpoint_send_backlog", labels, endpoint.send_buffer.qsize(), timestamp
            )
            self._set(
                "endpoint_receive_backlog", labels,
                endpoint.receive_buffer.qsize(), timestamp,
            )
            if getattr(endpoint, "flow", None) is not None:
                self._sample_flow(
                    endpoint.name,
                    {
                        "send": endpoint.send_buffer.flow_stats(),
                        "recv": endpoint.receive_buffer.flow_stats(),
                    },
                    timestamp,
                )
                self._set(
                    "backpressure_send_expired_total", labels,
                    endpoint.backpressure_expired, timestamp,
                )

        return probe

    def add_endpoint(self, endpoint: Any) -> None:
        """Read a :class:`repro.core.endpoint.ProcessEndpoint`."""
        self.add_probe(
            self._endpoint_probe(endpoint),
            totals=self._totals_reader(
                (endpoint, _ENDPOINT_TOTALS, {"process": endpoint.name})
            ),
        )

    def _view_process(self, process: Any) -> Tuple[Probe, Probe]:
        """An explorer or learner: ``(probe, totals reader)`` over its
        endpoint and its own totals and recorders."""
        labels = {"process": process.name}
        probe = self._endpoint_probe(process.endpoint)
        own_totals = _EXPLORER_TOTALS
        if hasattr(process, "wait_recorder"):
            self._expose(process, _LEARNER_RECORDERS, labels)
            own_totals = _LEARNER_TOTALS
        return probe, self._totals_reader(
            (process.endpoint, _ENDPOINT_TOTALS, labels), (process, own_totals, labels)
        )

    def add_processes(self, deployed: Callable[[], Iterable[Any]]) -> None:
        """Read every explorer/learner ``deployed()`` yields, asked anew on
        each sweep: a process the supervisor swapped in under a dead one's
        name is picked up with no hook, and its totals continue the dead
        one's counters (see the module docstring)."""
        views: Dict[str, Tuple[Any, Probe, Probe]] = {}

        def sweep(part: int, timestamp: float) -> None:
            for process in deployed():
                view = views.get(process.name)
                if view is None or view[0] is not process:
                    view = views[process.name] = (process, *self._view_process(process))
                view[part](timestamp)

        self.add_probe(
            lambda timestamp: sweep(1, timestamp),
            totals=lambda timestamp: sweep(2, timestamp),
        )

    def add_flow_controller(self, controller: Any) -> None:
        """Export a :class:`~repro.obs.flowcontroller.FlowController`'s
        decisions: what it counted, and the level it holds now."""
        escalations = [("flow_adaptations_total", lambda c: c.escalations)]
        relaxations = [("flow_adaptations_total", lambda c: c.relaxations)]
        polls = [("flow_polls_total", lambda c: c.polls)]

        def probe(timestamp: float) -> None:
            self._set("flow_degradation_level", {}, controller.degraded, timestamp)

        self.add_probe(probe, totals=self._totals_reader(
            (controller, escalations, {"direction": "escalate"}),
            (controller, relaxations, {"direction": "relax"}),
            (controller, polls, None),
        ))

    # -- sampling -----------------------------------------------------------
    def _sweep(self, *, totals_only: bool) -> None:
        timestamp = self._clock()
        with self._probes_lock:
            probes = self._readers if totals_only else self._probes + self._readers
            probes = list(probes)
        with self._sweep_lock:
            for probe in probes:
                try:
                    probe(timestamp)
                except Exception:  # noqa: BLE001 - sampling must not kill the run
                    self._errors.inc()

    def sample_once(self) -> None:
        """One sweep over all probes (also the unit tests' entry point)."""
        self._sweep(totals_only=False)
        self._samples.inc()

    def read_totals(self) -> None:
        """Bring the counters up to the owners' running totals, leaving the
        gauges and their series as last sampled — what an export does, so
        a snapshot's totals are the data plane's own at that moment."""
        self._sweep(totals_only=True)

    def _run(self) -> None:
        try:
            while not self._stop.wait(self.interval):
                self.sample_once()
        except BaseException as exc:  # noqa: BLE001 - surfaced like a workhorse
            self.error = exc

    # -- lifecycle ----------------------------------------------------------
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
        # A final sweep captures the end-of-run state deterministically.
        self.sample_once()

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()
