"""The shared-memory communicator (§3.2.1).

The broker process creates a shared-memory communicator holding:

* a **header queue** — senders push here, the instant a body has been
  inserted into the object store, the headers that still have remote
  destinations; the router thread ships them over the fabric;
* an **object store** — message bodies live here for zero-copy transfer;
* one **ID queue per explorer/learner process** — the router (run by the
  sender thread for local destinations) drops headers, carrying the body's
  object ID, into the queues of all destinations.

All queues expose a blocking ``get`` so monitoring threads run event-driven:
the moment a header lands, the blocked ``get`` returns and transmission
continues immediately (§4.1).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from .concurrency import make_lock, runtime_checks_enabled
from .config import FlowControlSpec
from .errors import RoutingError
from .flowcontrol import (
    TERMINAL_REJECTED,
    LaneChannel,
    lane_of,
    never_blocking,
    release_header_shares,
)
from .message import TYPE
from .object_store import InMemoryObjectStore, ObjectStore
from .tracing import emit_many


class HeaderQueue:
    """A closeable blocking queue of message headers, on a two-lane channel.

    Queued control headers (WEIGHTS/COMMAND/HEARTBEAT/STATS) are handed out
    before queued bulk ones; each lane is FIFO.  ``spec`` sets the lanes'
    watermarks (docs/FLOW_CONTROL.md); without one nothing is ever shed,
    blocked or expired.

    One ownership contract: the queue owns every header it is handed.  A
    header it does not enqueue — shed at the bulk watermark, expired at the
    control deadline, or rejected because the queue is closed — is passed
    to ``reclaim`` (outside the channel lock), which releases the
    object-store shares the header carries; ``put``/``put_many`` return how
    many headers were enqueued and callers release nothing.
    """

    def __init__(
        self,
        name: str = "",
        spec: Optional[FlowControlSpec] = None,
        *,
        reclaim: Optional[Callable[[Dict[str, Any]], None]] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.name = name
        self._reclaim = reclaim
        self._deadline = None if spec is None else spec.control_deadline_s
        self._channel = LaneChannel.from_spec(
            name, spec, on_drop=self._dropped, clock=clock
        )

    def _dropped(self, outcome: str, headers: Sequence[Dict[str, Any]]) -> None:
        # A shed or expired header gets its terminal event here, so span
        # accounting sees a definite outcome instead of a forever-pending
        # entry.  A put bounced off a closed queue is traced by its caller,
        # who knows which destination (of a fan-out) the header was for.
        if outcome != TERMINAL_REJECTED:
            emit_many(outcome, self.name, headers)
        if self._reclaim is not None:
            for header in headers:
                self._reclaim(header)

    def put(self, header: Dict[str, Any]) -> int:
        """Admit one header; 0 when it was not enqueued (queue closed)."""
        return int(self._channel.offer(
            header, lane_of(header.get(TYPE)), deadline_s=self._deadline
        ))

    def put_many(self, headers: Sequence[Dict[str, Any]]) -> int:
        """Admit several headers in order under one lock acquisition;
        returns how many were enqueued.

        Admission stops when the queue closes mid-batch (the count is
        returned) or a control header's deadline expires (the raised
        :class:`~repro.core.errors.BackpressureError` carries the count as
        ``accepted``); either way the unenqueued remainder has already been
        reclaimed when this returns or raises.
        """
        return self._channel.offer_many(
            headers,
            [lane_of(header.get(TYPE)) for header in headers],
            deadline_s=self._deadline,
        )

    def get(self, timeout: Optional[float] = None) -> Optional[Dict[str, Any]]:
        """Blocking get; returns ``None`` on timeout or once closed."""
        return self._channel.take(timeout=timeout)

    def get_many(
        self, max_items: int, timeout: Optional[float] = None
    ) -> List[Dict[str, Any]]:
        """One blocking get plus a same-lock drain up to ``max_items`` —
        consumers (router, receiver threads) amortize the queue lock over a
        whole wakeup's worth of headers."""
        return self._channel.take_many(max_items, timeout=timeout)

    def drain(self) -> List[Dict[str, Any]]:
        """Pop and return every queued header without blocking.

        Used at shutdown to recover headers nobody will consume so their
        object-store refcounts can be released.
        """
        return self._channel.drain()

    def close(self) -> None:
        self._channel.close()

    def join_producers(self, timeout: float = 2.0) -> bool:
        """After :meth:`close`: wait until every producer it woke has
        finished reclaiming (see :meth:`LaneChannel.join_producers`)."""
        return self._channel.join_producers(timeout)

    @property
    def closed(self) -> bool:
        return self._channel.closed

    def qsize(self) -> int:
        return self._channel.qsize()

    def lane_depths(self) -> Dict[str, int]:
        return self._channel.lane_depths()

    def flow_stats(self) -> Dict[str, float]:
        return self._channel.flow_stats()


class ShareMemCommunicator:
    """Header queue + object store + per-destination ID queues.

    The communicator is algorithm-agnostic: it never inspects bodies, only
    headers (§3.2.1).  Destination processes register to receive an ID
    queue; the router resolves header destinations to these queues.
    """

    def __init__(
        self,
        name: str = "communicator",
        store: Optional[ObjectStore] = None,
        *,
        flow: Optional[FlowControlSpec] = None,
    ):
        self.name = name
        self.flow = flow
        self.object_store: ObjectStore = store if store is not None else InMemoryObjectStore()
        # Under a spec senders of remote-bound headers feel backpressure
        # here: control blocks with a deadline, bulk sheds its oldest
        # headers.  Whatever the queue does not enqueue it reclaims —
        # admission must not leak shares.
        self.header_queue = HeaderQueue(
            f"{name}.headers", self.flow, reclaim=self._reclaim_header
        )
        self._id_flow = never_blocking(self.flow)
        self._id_queues: Dict[str, HeaderQueue] = {}
        self._lock = make_lock(f"{name}.registry")

    # -- reclaim -------------------------------------------------------------
    def _reclaim_header(self, header: Dict[str, Any]) -> None:
        """Release every share of a header that never crossed the router."""
        release_header_shares(self.object_store, header)

    def _reclaim_routed_header(self, header: Dict[str, Any]) -> None:
        """Release the single share of a header dropped at an ID queue."""
        release_header_shares(self.object_store, header, shares=1)

    # -- registration -----------------------------------------------------
    def register(self, process_name: str) -> HeaderQueue:
        """Create (or return) the ID queue for a local process."""
        with self._lock:
            id_queue = self._id_queues.get(process_name)
            if id_queue is None:
                id_queue = HeaderQueue(
                    f"{self.name}.id.{process_name}",
                    self._id_flow,
                    reclaim=self._reclaim_routed_header,
                )
                self._id_queues[process_name] = id_queue
            return id_queue

    def unregister(self, process_name: str) -> None:
        with self._lock:
            id_queue = self._id_queues.pop(process_name, None)
        if id_queue is not None:
            id_queue.close()

    def id_queue(self, process_name: str) -> HeaderQueue:
        with self._lock:
            try:
                return self._id_queues[process_name]
            except KeyError:
                raise RoutingError(
                    f"no ID queue registered for {process_name!r} on {self.name!r}"
                ) from None

    def local_queue(self, process_name: str) -> Optional[HeaderQueue]:
        """The ID queue of ``process_name``, or ``None`` when it is not a
        local process — routing's "is it local, and where" in one registry
        lookup."""
        with self._lock:
            return self._id_queues.get(process_name)

    def local_names(self) -> List[str]:
        with self._lock:
            return list(self._id_queues)

    def queue_depths(self) -> Dict[str, int]:
        """Current depth of every per-process ID queue (telemetry probe)."""
        with self._lock:
            queues = dict(self._id_queues)
        return {name: id_queue.qsize() for name, id_queue in queues.items()}

    def lane_depths(self) -> Dict[str, Dict[str, int]]:
        """Per-lane depth of every queue (telemetry probe)."""
        with self._lock:
            queues = dict(self._id_queues)
        depths = {"headers": self.header_queue.lane_depths()}
        for name, id_queue in queues.items():
            depths[f"id.{name}"] = id_queue.lane_depths()
        return depths

    def flow_stats(self) -> Dict[str, Dict[str, float]]:
        """Backpressure counters of every queue."""
        with self._lock:
            queues = dict(self._id_queues)
        stats = {"headers": self.header_queue.flow_stats()}
        for name, id_queue in queues.items():
            stats[f"id.{name}"] = id_queue.flow_stats()
        return stats

    def drain_parked(self) -> List[Dict[str, Any]]:
        """Pop every header still parked in any ID queue (shutdown path).

        Each returned header holds one object-store refcount share that its
        destination will never fetch-and-release; the broker releases them
        so the shutdown refcount audit measures real accounting bugs, not
        teardown order.
        """
        with self._lock:
            queues = list(self._id_queues.values())
        headers: List[Dict[str, Any]] = []
        for id_queue in queues:
            headers.extend(id_queue.drain())
        return headers

    # -- shutdown ----------------------------------------------------------
    def close_queues(self) -> None:
        """Close the header queue and every ID queue: whatever a sender or
        router thread offers from now on is refused and reclaimed."""
        self.header_queue.close()
        with self._lock:
            queues = list(self._id_queues.values())
        for id_queue in queues:
            id_queue.close()

    def close(self) -> None:
        self.close_queues()
        # OS-backed stores hold segments / arena slabs that outlive their
        # entries; in-memory stores make this a no-op.  Under runtime checks
        # the close also audits the arena's block accounting.
        self.object_store.close(audit=runtime_checks_enabled())
