"""Point-to-point links between machines.

The paper's multi-machine experiments are bounded by a 1 GbE NIC measured at
118.04 MB/s (Fig. 5).  We model a NIC as a serial resource: one worker drains
an inbox, charging ``nbytes / bandwidth`` of real time per item plus a fixed
one-way latency, then delivers to the peer's inbox.  Intra-machine transfers
use :class:`DirectLink` (no throttling), so the "intra-machine transfer is
shadowed by inter-machine transfer" effect emerges naturally.
"""

from __future__ import annotations

import queue
import threading
from typing import Any, Callable, Optional, Sequence, Tuple

from ..core.concurrency import make_lock, spawn_thread


class Link:
    """One-directional link interface carrying (item, nbytes) pairs."""

    def send(self, item: Any, nbytes: int = 0) -> None:
        raise NotImplementedError

    def send_many(self, items: Sequence[Tuple[Any, int]]) -> None:
        """Send ``(item, nbytes)`` pairs in order: what one wake-up of the
        caller drained for this link.

        The default is a loop over :meth:`send`, so a link whose unit of
        work (and of injected faults) is one item keeps it; a link that can
        move a group at once overrides this.  Whichever it is, an error
        raised after some items went out carries their number as ``sent``
        (no such attribute: none did) — the item at that position is the
        one that failed, and nothing after it was tried.
        """
        for sent, (item, nbytes) in enumerate(items):
            try:
                self.send(item, nbytes)
            except Exception as exc:
                exc.sent = sent  # type: ignore[attr-defined]
                raise

    def close(self) -> None:
        raise NotImplementedError


class DirectLink(Link):
    """Unthrottled link: delivers synchronously to a callback."""

    def __init__(self, deliver: Callable[[Any], None]):
        self._deliver = deliver
        self._closed = False
        # send() may be entered concurrently (router thread + transit
        # deliveries), so the counters take a lock; delivery happens outside
        # it — holding a lock across the synchronous callback would stall
        # every concurrent sender behind one slow consumer.
        self._counters_lock = make_lock("link.direct.counters")
        self.bytes_sent = 0
        self.items_sent = 0

    def send(self, item: Any, nbytes: int = 0) -> None:
        if self._closed:
            return
        with self._counters_lock:
            self.bytes_sent += nbytes
            self.items_sent += 1
        self._deliver(item)

    def close(self) -> None:
        self._closed = True


class ThrottledLink(Link):
    """Bandwidth- and latency-modelled link (a simulated NIC).

    ``bandwidth`` is in bytes/second; ``latency`` is the one-way propagation
    delay in seconds.  Sends enqueue immediately (the sender does not block),
    a single worker thread serializes wire occupancy — concurrent senders
    share the NIC and queue behind each other, exactly the bottleneck the
    two-machine experiments exercise.
    """

    def __init__(
        self,
        deliver: Callable[[Any], None],
        *,
        bandwidth: float = 118.04e6,
        latency: float = 0.0002,
        name: str = "link",
    ):
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if latency < 0:
            raise ValueError("latency must be non-negative")
        self.name = name
        self.bandwidth = bandwidth
        self.latency = latency
        self._deliver = deliver
        self._inbox: "queue.Queue[Optional[Tuple[Any, int]]]" = queue.Queue()
        self._closed = threading.Event()
        self._counters_lock = make_lock(f"link.{name}.counters")
        self.bytes_sent = 0
        self.items_sent = 0
        self._worker = spawn_thread(f"{name}-nic", self._run)

    def send(self, item: Any, nbytes: int = 0) -> None:
        if self._closed.is_set():
            return
        self._inbox.put((item, max(0, int(nbytes))))

    def _run(self) -> None:
        # A closed link delivers nothing, so it stops at once: the waits
        # below wake on close() instead of sleeping out the backlog.
        closed = self._closed
        while not closed.is_set():
            entry = self._inbox.get()
            if entry is None:
                return
            item, nbytes = entry
            # Wire occupancy: the NIC is busy for nbytes/bandwidth seconds.
            busy = nbytes / self.bandwidth
            if busy > 0 and closed.wait(busy):
                return
            if self.latency > 0 and closed.wait(self.latency):
                return
            with self._counters_lock:
                self.bytes_sent += nbytes
                self.items_sent += 1
            if not self._closed.is_set():
                try:
                    self._deliver(item)
                except Exception:
                    # A dying peer must not kill the NIC worker.
                    pass

    def pending(self) -> int:
        return self._inbox.qsize()

    def close(self) -> None:
        if not self._closed.is_set():
            self._closed.set()
            self._inbox.put(None)

    def join(self, timeout: Optional[float] = None) -> None:
        self._worker.join(timeout=timeout)
