"""Fabrics connecting brokers (data) and controllers (commands) (§3.2.2).

A :class:`Fabric` is a set of named nodes with point-to-point links between
them.  XingTian creates two fabrics: a fully-connected control fabric among
controllers, and a data fabric among brokers where the learner's machine is
the center for data transmission.  Links may be throttled to model NICs.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.concurrency import make_lock
from .link import DirectLink, Link, ThrottledLink


def _each(handler: Callable[[Any], None]) -> Callable[[List[Any]], None]:
    """The batch form of a per-item ``handler``: every item is handed over
    before the first failure, if any, is raised."""

    def handle_many(items: List[Any]) -> None:
        failure: Optional[Exception] = None
        for item in items:
            try:
                handler(item)
            except Exception as exc:  # noqa: BLE001 - the rest is still owed
                failure = failure or exc
        if failure is not None:
            raise failure

    return handle_many


class Fabric:
    """Named nodes + directed links with per-pair bandwidth/latency.

    Nodes register a delivery callback; ``connect`` wires a directed link.
    ``send(src, dst, item, nbytes)`` pushes through the (src, dst) link,
    creating a :class:`DirectLink` lazily if none was configured — so
    single-machine deployments need no explicit wiring.  ``send_many`` is
    the same for everything one wake-up drained for that link.
    """

    def __init__(self, name: str = "fabric"):
        self.name = name
        self._handlers: Dict[str, Callable[[Any], None]] = {}
        #: node -> what takes a whole read's worth of arrivals at once
        self._batch_handlers: Dict[str, Callable[[List[Any]], None]] = {}
        self._links: Dict[Tuple[str, str], Link] = {}
        self._lock = make_lock(f"fabric.{name}")

    def register(
        self,
        node: str,
        handler: Callable[[Any], None],
        handler_many: Optional[Callable[[List[Any]], None]] = None,
    ) -> None:
        """``handler(item)`` takes one arrival; ``handler_many(items)``,
        everything a link's reader decoded in one read (default:
        ``handler`` on each)."""
        with self._lock:
            self._handlers[node] = handler
            self._batch_handlers[node] = handler_many or _each(handler)

    def unregister(self, node: str) -> None:
        with self._lock:
            self._handlers.pop(node, None)
            self._batch_handlers.pop(node, None)

    def connect(
        self,
        src: str,
        dst: str,
        *,
        bandwidth: Optional[float] = None,
        latency: float = 0.0,
    ) -> Link:
        """Create the src→dst link.

        With ``bandwidth=None`` the link is direct (same-machine); otherwise
        a :class:`ThrottledLink` models a NIC at that bandwidth (bytes/s).
        """
        with self._lock:
            handler = self._handlers.get(dst)
            if handler is None:
                raise KeyError(f"fabric {self.name!r}: unknown node {dst!r}")
            if bandwidth is None:
                link: Link = DirectLink(handler)
            else:
                link = ThrottledLink(
                    handler,
                    bandwidth=bandwidth,
                    latency=latency,
                    name=f"{self.name}:{src}->{dst}",
                )
            link = self._decorate_link(link, src, dst)
            self._links[(src, dst)] = link
            return link

    def connect_bidirectional(
        self,
        a: str,
        b: str,
        *,
        bandwidth: Optional[float] = None,
        latency: float = 0.0,
    ) -> None:
        self.connect(a, b, bandwidth=bandwidth, latency=latency)
        self.connect(b, a, bandwidth=bandwidth, latency=latency)

    def send(self, src: str, dst: str, item: Any, nbytes: int = 0) -> None:
        self._link_for(src, dst).send(item, nbytes)

    def send_many(
        self, src: str, dst: str, items: Sequence[Tuple[Any, int]]
    ) -> None:
        """Push ``(item, nbytes)`` pairs through the (src, dst) link in
        order, in one call (see :meth:`Link.send_many` for a failure)."""
        self._link_for(src, dst).send_many(items)

    def _link_for(self, src: str, dst: str) -> Link:
        """The (src, dst) link, created direct if none was configured."""
        with self._lock:
            link = self._links.get((src, dst))
            if link is None:
                handler = self._handlers.get(dst)
                if handler is None:
                    raise KeyError(f"fabric {self.name!r}: unknown node {dst!r}")
                link = self._decorate_link(DirectLink(handler), src, dst)
                self._links[(src, dst)] = link
        return link

    def _decorate_link(self, link: Link, src: str, dst: str) -> Link:
        """Hook for subclasses to wrap every link as it is created (used by
        :class:`repro.testing.faults.FaultyFabric` to inject drop/delay)."""
        return link

    def nodes(self) -> Dict[str, Callable[[Any], None]]:
        with self._lock:
            return dict(self._handlers)

    def link(self, src: str, dst: str) -> Optional[Link]:
        with self._lock:
            return self._links.get((src, dst))

    def close(self) -> None:
        with self._lock:
            links = list(self._links.values())
            self._links.clear()
            self._handlers.clear()
            self._batch_handlers.clear()
        for link in links:
            link.close()
