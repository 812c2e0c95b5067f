"""The broker process (§3.2.1).

A broker owns the shared-memory communicator and the algorithm-agnostic
router.  It is "totally different from the data management buffer in
existing DRL frameworks": it never interprets or stores data on behalf of
the algorithm — it only pushes messages to their destinations as fast as
possible.  Brokers in different machines are connected by a data fabric;
for PBT, brokers carry a ``rank`` and only same-rank brokers are connected
(§4.3).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple

from ..transport.fabric import Fabric
from .communicator import HeaderQueue, ShareMemCommunicator
from .compression import WireCompressor, wire_decode
from .concurrency import make_lock, runtime_checks_enabled
from .config import CoalescingSpec
from .errors import LifecycleError
from .flowcontrol import release_header_shares
from .object_store import ObjectStore
from .ownership import receives_ownership
from .router import AlgorithmAgnosticRouter, Shipment
from .tracing import dump_all


class Broker:
    """Communicator + router, optionally attached to an inter-machine fabric."""

    def __init__(
        self,
        name: str = "broker",
        *,
        store: Optional[ObjectStore] = None,
        fabric: Optional[Fabric] = None,
        rank: int = 0,
        on_unroutable: str = "raise",
        coalescing: CoalescingSpec = CoalescingSpec(),
        flow: Optional[Any] = None,
    ):
        self.name = name
        self.rank = rank
        #: how every endpoint registered against this broker packs its
        #: wake-ups (an endpoint may override it)
        self.coalescing = coalescing
        #: :class:`~repro.core.config.FlowControlSpec` (or None); when set,
        #: the lanes of the communicator's queues, and of the buffers of
        #: endpoints registered against this broker, have watermarks
        self.flow = flow if flow is not None and flow.enabled else None
        self.communicator = ShareMemCommunicator(
            f"{name}.comm", store=store, flow=self.flow
        )
        #: adaptive fabric-boundary codec the FlowController toggles; None
        #: without flow control (and a no-op until enabled even with it)
        self.wire: Optional[WireCompressor] = (
            WireCompressor(
                name, min_bytes=self.flow.wire_compression_min_bytes
            )
            if self.flow is not None
            else None
        )
        if self.flow is not None:
            arena = getattr(self.communicator.object_store, "arena", None)
            if arena is not None and hasattr(arena, "set_watermarks"):
                arena.set_watermarks(
                    self.flow.arena_high_watermark, self.flow.arena_low_watermark
                )
        self._fabric = fabric
        self.router = AlgorithmAgnosticRouter(
            self.communicator,
            name=f"{name}.router",
            remote_send=self._remote_send if fabric is not None else None,
            on_unroutable=on_unroutable,
        )
        if fabric is not None:
            fabric.register(
                self.name, self._on_fabric_receive, self._on_fabric_receive_many
            )
        self._started = False
        self._stopped = False
        self._lock = make_lock(f"{name}.lifecycle")

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        with self._lock:
            if self._started:
                raise LifecycleError(f"broker {self.name!r} already started")
            self._started = True
        self.router.start()

    def stop(self) -> None:
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
        self.router.stop()
        # Sender threads insert into the ID queues themselves: close those
        # too, so an endpoint that outlives its broker has its inserts
        # refused (and reclaimed) instead of parking headers behind the
        # drain below.
        self.communicator.close_queues()
        # Closing the header queue woke any sender blocked on control-lane
        # admission; wait for them to finish their queue-side reclaims, so
        # the refcount audit below cannot race a woken producer.
        self.communicator.header_queue.join_producers(timeout=2.0)
        self._release_undispatched()
        try:
            if runtime_checks_enabled():
                # Refcount audit (see repro.analysis.runtime): endpoints
                # released their undrained ID queues at their own stop();
                # whatever is left in the store now is a leak.  Must run
                # before the communicator close below, which frees the
                # store's remaining entries.
                try:
                    self.communicator.object_store.assert_balanced(
                        context=f"broker {self.name!r} shutdown"
                    )
                except Exception:
                    # The channel misbehaved: preserve the last seconds of
                    # message flow for post-mortem before re-raising.
                    dump_all("refcount_audit")
                    raise
        finally:
            self.communicator.close()
            if self._fabric is not None:
                self._fabric.unregister(self.name)

    @receives_ownership("drains shares parked by stopped senders")
    def _release_undispatched(self) -> None:
        """Release refcounts of headers the router never got to dispatch.

        A header parked on the header queue at shutdown still holds one
        share of its body per (remote) destination it names.
        """
        store = self.communicator.object_store
        for header in self.communicator.header_queue.drain():
            release_header_shares(store, header)
        # Headers already routed into an ID queue nobody drained (e.g. a
        # registered sink with no endpoint) hold one share each.
        for header in self.communicator.drain_parked():
            release_header_shares(store, header, shares=1)

    # -- registration -------------------------------------------------------
    def register_process(self, process_name: str) -> HeaderQueue:
        """Register a local explorer/learner; returns its ID queue."""
        return self.communicator.register(process_name)

    def add_remote_route(self, process_name: str, remote_broker: str) -> None:
        """Teach the router that ``process_name`` lives behind another broker."""
        self.router.remote_table[process_name] = remote_broker

    # -- fabric plumbing ----------------------------------------------------
    def _remote_send(
        self, remote_broker: str, shipments: Sequence[Shipment]
    ) -> None:
        """Ship what the router drained for ``remote_broker``, in order, in
        one fabric call."""
        assert self._fabric is not None
        if self.wire is not None:
            shipments = [self._wire_encode(shipment) for shipment in shipments]
        self._fabric.send_many(self.name, remote_broker, shipments)

    def _wire_encode(self, shipment: Shipment) -> Shipment:
        """Adaptive wire compression, message by message: trade sender CPU
        for link bytes when the FlowController decides throughput is
        sagging.  The reduced byte count is what a throttled NIC model
        charges."""
        assert self.wire is not None
        (header, body), nbytes = shipment
        if not self.wire.wants(header, body, nbytes):
            return shipment
        header, body, nbytes = self.wire.encode(header, body, nbytes)
        return (header, body), nbytes

    def _on_fabric_receive(self, item: Tuple[Dict[str, Any], Any]) -> None:
        self._on_fabric_receive_many((item,))

    def _on_fabric_receive_many(
        self, items: Sequence[Tuple[Dict[str, Any], Any]]
    ) -> None:
        """Everything one read of a fabric link brought, in order."""
        # Always decode by header, not by local wire state: the *sending*
        # broker decides whether a body was compressed on the wire.
        self.router.on_remote_receive_many(
            [wire_decode(header, body) for header, body in items]
        )
