"""The algorithm-agnostic router (§3.2.1).

For every header the router resolves the destination list:

* **local destinations** — the header (already carrying the body's object
  ID) is dropped into each destination's ID queue; the body never moves.
* **remote destinations** — the router fetches the body once per remote
  machine, ships (header, body) over the broker fabric, and the remote
  router re-inserts the body into *its* object store before fanning out the
  header to local ID queues.  Workhorse threads "will not perceive any
  difference" (§3.2.1).

Routing runs in two stages on two threads.  Sender threads call
:meth:`AlgorithmAgnosticRouter.route_local` on the batch they just staged:
local destinations are served right there, one ID-queue insert per
destination per wake-up.  Only what is left of a header — its remote
destinations — crosses the communicator's header queue to the router
thread, which monitors that queue and ships what one wake-up drained in
one fabric call per remote broker.  Arrivals are handled the same way:
what one read of a fabric link brought is resolved in one pass
(:meth:`AlgorithmAgnosticRouter.on_remote_receive_many`).  A
destination whose registration does not change while its messages are in
flight is reached by exactly one of the two paths, so per-(sender,
destination, lane) FIFO holds for any mix of local and remote names.  (A
name that registers locally after a sender found it remote or unroutable
is still served — the router thread resolves the remainder again — but
that message can be overtaken by later ones routed on the sender.)

The router never inspects bodies — it is algorithm agnostic.
"""

from __future__ import annotations

import logging
import threading
from typing import (
    Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple,
)

from .communicator import HeaderQueue, ShareMemCommunicator
from .concurrency import make_lock, spawn_thread
from .errors import UnknownDestinationError
from .flowcontrol import release_header_shares
from .message import COMPRESSED, DST, OBJECT_ID, ROUTED, message_count
from .tracing import emit, emit_many

_LOG = logging.getLogger(__name__)

Shipment = Tuple[Tuple[Dict[str, Any], Any], int]
"""One message bound for another broker, as a link takes it:
``((header, body), nbytes)``."""

RemoteSend = Callable[[str, Sequence[Shipment]], None]
"""(remote_broker, shipments) -> ship over the fabric, in order, in one call.
An error raised after some went out carries their number as ``sent``
(:meth:`repro.transport.link.Link.send_many`)."""


class _Remainder(NamedTuple):
    """What dispatching its local destinations leaves of a header."""

    #: position of the header in the batch that was routed
    index: int
    #: the header, cut down to the destinations that are not local (and to
    #: the store shares that belong to them)
    header: Dict[str, Any]
    #: its remote destinations, grouped by the broker they live behind
    remote_groups: Dict[str, List[str]]
    #: its destinations with no route at all
    unroutable: List[str]


#: one destination's share of a routed batch: (its ID queue, its headers)
_Delivery = Tuple[HeaderQueue, List[Dict[str, Any]]]
#: a resolved destination list: (local ``(name, ID queue)`` pairs, remote
#: names grouped by the broker they live behind, names with no route)
_Partition = Tuple[
    List[Tuple[str, HeaderQueue]], Dict[str, List[str]], List[str]
]

#: headers drained from the header queue per router wakeup — amortizes the
#: queue lock without starving shutdown checks
_ROUTE_DRAIN = 128


class AlgorithmAgnosticRouter:
    """Routes headers to local ID queues and, over the fabric, to remote ones.

    ``remote_table`` maps destination process names to remote broker names;
    ``remote_send`` performs the actual cross-machine transfer.  Both are
    optional for single-machine deployments.
    """

    def __init__(
        self,
        communicator: ShareMemCommunicator,
        *,
        name: str = "router",
        remote_table: Optional[Dict[str, str]] = None,
        remote_send: Optional[RemoteSend] = None,
        on_unroutable: str = "raise",
    ):
        if on_unroutable not in ("raise", "drop"):
            raise ValueError("on_unroutable must be 'raise' or 'drop'")
        self.name = name
        self.communicator = communicator
        self.remote_table: Dict[str, str] = dict(remote_table or {})
        self._remote_send = remote_send
        self._on_unroutable = on_unroutable
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        # Counters are mutated from the router thread *and* from fabric
        # delivery threads (``on_remote_receive``), so they take a lock.
        # They count messages: a BATCH envelope counts its sub-messages.
        self._counters_lock = make_lock(f"{name}.counters")
        self._routed_local = 0
        self._routed_remote = 0
        self._dropped = 0

    # -- counters ------------------------------------------------------------
    @property
    def routed_local(self) -> int:
        with self._counters_lock:
            return self._routed_local

    @property
    def routed_remote(self) -> int:
        with self._counters_lock:
            return self._routed_remote

    @property
    def dropped(self) -> int:
        with self._counters_lock:
            return self._dropped

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = spawn_thread(self.name, self._run)

    def stop(self, timeout: float = 5.0) -> None:
        self._stop.set()
        self.communicator.header_queue.close()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None

    # -- routing ------------------------------------------------------------
    def _run(self) -> None:
        header_queue = self.communicator.header_queue
        while not self._stop.is_set():
            headers = header_queue.get_many(_ROUTE_DRAIN, timeout=0.25)
            if not headers:
                if header_queue.closed:
                    return
                continue
            # The drained batch is settled whole — every destination
            # delivered, shipped or rejected — in one pass; an unroutable
            # name surfaces ("raise" mode) only once it is.
            self._route_remainders(self._dispatch_local(headers))

    def route(self, header: Dict[str, Any]) -> None:
        """Dispatch one header to all destinations: the router thread's
        work on a batch of one, also called directly by tests."""
        self._route_remainders(self._dispatch_local((header,)))

    def route_local(
        self, headers: Sequence[Dict[str, Any]]
    ) -> List[Tuple[int, Dict[str, Any]]]:
        """Dispatch every local destination of ``headers``; return what is left.

        The first stage of routing, as sender threads run it on the batch
        they just staged.  A header with destinations that are not local
        comes back as ``(its position in headers, the header cut down to
        those destinations and their store shares)`` for the header queue;
        the router thread resolves it from there.
        """
        return [
            (remainder.index, remainder.header)
            for remainder in self._dispatch_local(headers)
        ]

    def _dispatch_local(
        self, headers: Sequence[Dict[str, Any]]
    ) -> List[_Remainder]:
        """Resolve ``headers`` and serve their local destinations.

        Each distinct destination list is resolved once, the local
        deliveries of the whole batch are grouped by destination, and each
        ID queue takes its group in one insert.  ``headers`` are owned by
        the caller and handed on: the last local destination of a header
        gets the header itself, the others a copy.  What is not local is
        returned, resolved, for :meth:`_route_remainders`.
        """
        #: destination list -> its resolution, once per batch
        resolved: Dict[Tuple[str, ...], _Partition] = {}
        routed: List[Dict[str, Any]] = []
        deliveries: Dict[str, _Delivery] = {}
        remainders: List[_Remainder] = []
        for index, header in enumerate(headers):
            key = tuple(header[DST])
            partition = resolved.get(key)
            if partition is None:
                partition = resolved[key] = self._partition(key)
            local, remote_groups, unroutable = partition
            if remote_groups or unroutable:
                rest = header
                if local:
                    names = {name for name, _ in local}
                    rest = dict(header)
                    rest[DST] = [name for name in key if name not in names]
                    # Its local part is dispatched (and traced) right here.
                    rest[ROUTED] = True
                remainders.append(_Remainder(index, rest, remote_groups, unroutable))
            if not local:
                continue
            # The marker is this router's bookkeeping (a remainder whose
            # destination has registered here since): never delivered.
            if not header.pop(ROUTED, False):
                routed.append(header)
            last = len(local) - 1
            for position, (destination, id_queue) in enumerate(local):
                delivery = deliveries.get(destination)
                if delivery is None:
                    delivery = deliveries[destination] = (id_queue, [])
                delivery[1].append(header if position == last else dict(header))
        # One "routed" per message (the log expands a BATCH envelope into its
        # sub-messages), from whichever thread first dispatches it.
        emit_many("routed", self.name, routed)
        for destination, (id_queue, batch) in deliveries.items():
            self._deliver_local(destination, batch, id_queue)
        return remainders

    def _route_remainders(self, remainders: Sequence[_Remainder]) -> None:
        """Second stage: ship each remainder's remote groups over the fabric
        and reject what has no route.

        The shipments of the whole batch are grouped by remote broker, in
        header order, and each group goes down in one call.  Everything
        handed in is settled — every destination forwarded, or rejected
        with its share released — before ``on_unroutable="raise"`` surfaces
        the unknown destinations.
        """
        if not remainders:
            return
        emit_many("routed", self.name, [
            remainder.header for remainder in remainders
            if not remainder.header.get(ROUTED)
        ])
        store = self.communicator.object_store
        shipments: Dict[str, List[Shipment]] = {}
        #: one entry per share a remote destination never consumes
        shares: List[Any] = []
        lost: List[str] = []
        for _, header, remote_groups, unroutable in remainders:
            if remote_groups:
                object_id = header.get(OBJECT_ID)
                body = store.get(object_id) if object_id is not None else None
                self._stage_shipments(shipments, header, remote_groups, body)
                if object_id is not None:
                    shares.extend(
                        [object_id] * sum(map(len, remote_groups.values()))
                    )
            for destination in unroutable:
                release_header_shares(store, header, shares=1)
                self._reject(destination, header)
            lost.extend(unroutable)
        for remote_broker, group in shipments.items():
            self._ship(remote_broker, group)
        # Bodies stay in the store until their send has returned.
        for object_id in shares:
            store.release(object_id)
        if lost and self._on_unroutable == "raise":
            stranded = [name for name in lost if name in self.remote_table]
            raise UnknownDestinationError(
                f"router {self.name!r}: no route to {lost}"
                + (
                    f" (remote destinations {stranded} but no fabric attached)"
                    if stranded else ""
                )
            )

    def _reject(self, destination: str, header: Dict[str, Any]) -> None:
        """Count and trace one destination ``header`` will never reach.

        A terminal outcome: this (seq, dst) will never be delivered, so
        span accounting closes its pending state instead of leaking it.
        """
        with self._counters_lock:
            self._dropped += message_count(header)
        emit("rejected", self.name, header, dst=destination)

    def _deliver_local(
        self,
        destination: str,
        headers: List[Dict[str, Any]],
        id_queue: HeaderQueue,
    ) -> None:
        """Put ``headers`` (one share each) on the ID queue :meth:`_partition`
        found for ``destination``, in order.

        A destination that is gone (queue closed or unregistered mid-route —
        routine when the supervisor is tearing a dead process down) is
        counted and traced as rejected; the closed queue reclaims the shares
        of what it does not enqueue itself.
        """
        if len(headers) == 1:
            delivered = id_queue.put(headers[0])
        else:
            delivered = id_queue.put_many(headers)
        if delivered:
            count = sum(map(message_count, headers[:delivered]))
            with self._counters_lock:
                self._routed_local += count
        for header in headers[delivered:]:
            self._reject(destination, header)

    def _partition(self, destinations: Sequence[str]) -> _Partition:
        """Resolve each destination: local, remote or without a route."""
        local: List[Tuple[str, HeaderQueue]] = []
        remote_groups: Dict[str, List[str]] = {}
        unroutable: List[str] = []
        for destination in destinations:
            id_queue = self.communicator.local_queue(destination)
            if id_queue is not None:
                local.append((destination, id_queue))
            elif destination in self.remote_table and self._remote_send is not None:
                remote_groups.setdefault(
                    self.remote_table[destination], []
                ).append(destination)
            else:
                unroutable.append(destination)
        return local, remote_groups, unroutable

    @staticmethod
    def _stage_shipments(
        shipments: Dict[str, List[Shipment]],
        header: Dict[str, Any],
        groups: Dict[str, List[str]],
        body: Any,
    ) -> None:
        """Add to ``shipments``, per broker a group of ``groups`` lives
        behind, ``header`` cut down to that group, with ``body``."""
        for remote_broker, group in groups.items():
            remote_header = dict(header)
            remote_header[DST] = list(group)
            remote_header[OBJECT_ID] = None
            remote_header.pop(ROUTED, None)  # this broker's bookkeeping
            shipments.setdefault(remote_broker, []).append(
                ((remote_header, body), header.get("body_size", 0))
            )

    def _ship(self, remote_broker: str, shipments: List[Shipment]) -> None:
        """Send ``shipments`` to ``remote_broker`` in one call.

        A send that fails on the fabric (a reset connection, an unknown
        node, an oversized body) is a terminal outcome for the message it
        failed on, not for the thread routing it: what the error says went
        out before it counts as shipped, every destination of the failed
        message is rejected — counted and traced — and the rest is offered
        again.  (A link that died fails each of them in turn.)
        """
        assert self._remote_send is not None  # _partition found the group
        while shipments:
            try:
                self._remote_send(remote_broker, shipments)
                sent = len(shipments)
            except Exception as exc:  # noqa: BLE001 - the routing thread must keep running
                sent = min(getattr(exc, "sent", 0), len(shipments) - 1)
                (header, _), _ = shipments[sent]
                _LOG.warning(
                    "router %s: send to %s for %s failed; rejected",
                    self.name, remote_broker, header[DST], exc_info=True,
                )
                for destination in header[DST]:
                    self._reject(destination, header)
            shipped = sum(
                len(header[DST]) * message_count(header)
                for (header, _), _ in shipments[:sent]
            )
            with self._counters_lock:
                self._routed_remote += shipped
            shipments = shipments[sent + 1:]

    def on_remote_receive(self, header: Dict[str, Any], body: Any) -> None:
        """Handle one (header, body) pair arriving from another machine."""
        self.on_remote_receive_many(((header, body),))

    def on_remote_receive_many(
        self, arrivals: Sequence[Tuple[Dict[str, Any], Any]]
    ) -> None:
        """Handle the (header, body) pairs one read of a fabric link
        brought, in one pass.

        Local destinations get the body re-inserted into the local object
        store and the header fanned out to their ID queues, each queue
        taking its share of the batch in one insert.  Destinations homed
        behind *other* brokers are forwarded onward, one call per onward
        broker — the learner machine's broker is the data-transmission
        center (Fig. 2b), so edge-to-edge traffic transits through it.
        Each distinct destination list is resolved once.  Everything
        routable is served and forwarded, and what has no route rejected,
        before ``on_unroutable="raise"`` surfaces the unknown destinations.
        """
        store = self.communicator.object_store
        resolved: Dict[Tuple[str, ...], _Partition] = {}
        deliveries: Dict[str, _Delivery] = {}
        shipments: Dict[str, List[Shipment]] = {}
        lost: List[str] = []
        for header, body in arrivals:
            key = tuple(header[DST])
            partition = resolved.get(key)
            if partition is None:
                partition = resolved[key] = self._partition(key)
            local, transit_groups, unroutable = partition
            self._stage_shipments(shipments, header, transit_groups, body)
            if local:
                object_id = (
                    store.put(
                        body,
                        refcount=len(local),
                        nbytes=header.get("body_size", 0),
                    )
                    if body is not None
                    else None
                )
                for destination, id_queue in local:
                    local_header = dict(header)
                    local_header[DST] = [destination]
                    local_header[OBJECT_ID] = object_id
                    local_header[COMPRESSED] = False
                    delivery = deliveries.get(destination)
                    if delivery is None:
                        delivery = deliveries[destination] = (id_queue, [])
                    delivery[1].append(local_header)
            for destination in unroutable:
                self._reject(destination, header)
            lost.extend(unroutable)
        for remote_broker, group in shipments.items():
            self._ship(remote_broker, group)
        for destination, (id_queue, batch) in deliveries.items():
            self._deliver_local(destination, batch, id_queue)
        if lost and self._on_unroutable == "raise":
            raise UnknownDestinationError(
                f"router {self.name!r}: remote message for {lost} "
                "has no local destination or onward route"
            )
