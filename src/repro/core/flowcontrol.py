"""Adaptive overload control: priority lanes, watermarks, backpressure.

The broker degrades *gracefully* instead of silently when producers outrun
consumers (docs/FLOW_CONTROL.md).  :class:`LaneChannel` is the two-lane
primitive every queue and buffer of the data plane is built on
(:class:`~repro.core.communicator.HeaderQueue` for header dicts,
:class:`~repro.core.buffers.MessageBuffer` for whole messages).  The
**control** lane (weights, commands, heartbeats, stats) drains first and
blocks its producer with a deadline at the high watermark; the **bulk**
lane (rollouts, generic data, batch envelopes) sheds its *oldest* entry
past the watermark — in DRL the freshest trajectory is the most on-policy
one, so old experience is the right thing to lose.  Within a lane FIFO
order is untouched, so ordering is per-(destination, lane) FIFO.  A lane
without a watermark is unbounded: with no
:class:`~repro.core.config.FlowControlSpec` neither lane has one, so
nothing ever sheds, blocks or expires.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import replace
from enum import Enum
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from .concurrency import make_lock
from .config import FlowControlSpec
from .errors import BackpressureError
from .message import DST, OBJECT_ID, MsgType
from .tracing import TERMINAL_EXPIRED, TERMINAL_REJECTED, TERMINAL_SHED

class Lane(str, Enum):
    """Priority lanes: control overtakes bulk under load."""

    CONTROL = "control"
    BULK = "bulk"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


_CONTROL = Lane.CONTROL
_BULK = Lane.BULK

#: Message types that ride the control lane.  Weight broadcasts are control
#: traffic: a stale-weights explorer produces off-policy rollouts, which is
#: strictly worse than a late trajectory.
CONTROL_TYPES = frozenset(
    {MsgType.WEIGHTS, MsgType.COMMAND, MsgType.HEARTBEAT, MsgType.STATS}
)


def lane_of(msg_type: Any) -> Lane:
    """The lane a message type rides (unknown types default to bulk).

    Takes the raw header value: ``MsgType`` members hash and compare as
    their string values, so no enum construction is needed per message.
    """
    try:
        return _CONTROL if msg_type in CONTROL_TYPES else _BULK
    except TypeError:  # unhashable garbage in a header's type field
        return _BULK


def never_blocking(spec: Optional[FlowControlSpec]) -> Optional[FlowControlSpec]:
    """``spec`` with an unbounded control lane (``control_watermark == 0``).

    For queues whose producer must never wait: per-destination ID queues
    (one slow destination must not stall whoever is routing — a sender
    thread or the router thread — for every other one) and receive buffers
    (the receiver thread delivers every lane).  Their control volume is
    already bounded upstream, at the send buffers (and, for what arrives
    from other brokers, at the header queue of the sending side).
    """
    return None if spec is None else replace(spec, control_watermark=0)


class _LaneCounters:
    """Per-lane accounting, mutated only under the channel lock."""

    __slots__ = ("put", "got", "shed", "blocked", "block_seconds", "expired")

    def __init__(self) -> None:
        self.put = 0
        self.got = 0
        self.shed = 0
        self.blocked = 0
        self.block_seconds = 0.0
        self.expired = 0


#: ``on_drop(outcome, entries)``: entries a channel refused or discarded
Drop = Callable[[str, Sequence[Any]], None]


class LaneChannel:
    """Two-lane channel with watermark admission control.

    A watermark of 0 leaves its lane unbounded.

    Every entry handed to :meth:`offer`/:meth:`offer_many` is either
    enqueued or given back through ``on_drop`` with its terminal outcome
    (shed, expired, rejected) — outside the channel lock, because owners
    release object-store shares and record trace events there, and counted
    as in flight until the hook returns (see :meth:`join_producers`).
    """

    def __init__(
        self,
        name: str,
        *,
        bulk_watermark: int = 0,
        control_watermark: int = 0,
        low_fraction: float = 0.5,
        on_drop: Optional[Drop] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.name = name
        self._clock = clock
        self._on_drop = on_drop
        self._bulk_high = max(0, int(bulk_watermark))
        self._control_high = max(0, int(control_watermark))
        # The release point must sit strictly below the gate point or the
        # hysteresis latch opens the instant it closes (degenerate at
        # control_watermark == 1, where the low watermark must be 0).
        self._control_low = min(
            max(0, self._control_high - 1),
            int(self._control_high * low_fraction),
        )
        self._lock = make_lock(f"flow.{name}")
        self._not_empty = threading.Condition(self._lock)
        self._not_full = threading.Condition(self._lock)
        self._idle = threading.Condition(self._lock)
        self._control: Deque[Any] = deque()
        self._bulk: Deque[Any] = deque()
        self._counters = {_CONTROL: _LaneCounters(), _BULK: _LaneCounters()}
        self._gated = False  # control-lane hysteresis latch
        self._closed = False
        #: producers waiting for admission or still inside ``on_drop``
        self._inflight = 0

    @classmethod
    def from_spec(
        cls,
        name: str,
        spec: Optional[FlowControlSpec],
        *,
        on_drop: Optional[Drop] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> "LaneChannel":
        """The channel ``spec`` describes; no spec means no watermarks."""
        if spec is None:
            return cls(name, on_drop=on_drop, clock=clock)
        return cls(
            name,
            bulk_watermark=spec.bulk_watermark,
            control_watermark=spec.control_watermark,
            low_fraction=spec.low_fraction,
            on_drop=on_drop,
            clock=clock,
        )

    # -- admission -----------------------------------------------------------
    def _control_gated(self) -> bool:
        """Hysteresis: gate at the high watermark, release below the low."""
        depth = len(self._control)
        if self._gated:
            if depth <= self._control_low:
                self._gated = False
        elif depth >= self._control_high:
            self._gated = True
        return self._gated

    def _await_control(self, deadline_s: Optional[float]) -> bool:
        """Wait (lock held) for the control gate to open or the channel to
        close; ``False`` once ``deadline_s`` has elapsed."""
        counters = self._counters[_CONTROL]
        counters.blocked += 1
        wait_start = self._clock()
        try:
            while not self._closed and self._control_gated():
                if deadline_s is None:
                    self._not_full.wait(1.0)
                    continue
                remaining = wait_start + deadline_s - self._clock()
                if remaining <= 0:
                    counters.expired += 1
                    return False
                self._not_full.wait(remaining)
            return True
        finally:
            counters.block_seconds += self._clock() - wait_start

    def _hand_back(self, drops: List[Tuple[str, Sequence[Any]]]) -> None:
        """Run ``on_drop`` for entries the caller counted in flight while it
        held the lock."""
        if not drops:
            return
        try:
            for outcome, entries in drops:
                self._on_drop(outcome, entries)
        finally:
            with self._lock:
                self._inflight -= 1
                self._idle.notify_all()

    def offer(
        self, item: Any, lane: Lane, *, deadline_s: Optional[float] = None
    ) -> bool:
        """Admit one entry; ``False`` when the channel is closed.

        The common case — an open channel and a lane with room — appends
        under the lock and returns; anything that sheds, waits at the
        control gate or is refused takes :meth:`offer_many`'s path.
        """
        with self._lock:
            if not self._closed:
                if lane is _BULK:
                    high = self._bulk_high
                    if not high or len(self._bulk) < high:
                        self._bulk.append(item)
                        self._counters[_BULK].put += 1
                        self._not_empty.notify()
                        return True
                elif not self._control_high:
                    self._control.append(item)
                    self._counters[_CONTROL].put += 1
                    self._not_empty.notify()
                    return True
        return self.offer_many((item,), (lane,), deadline_s=deadline_s) == 1

    def offer_many(
        self,
        items: Sequence[Any],
        lanes: Sequence[Lane],
        *,
        deadline_s: Optional[float] = None,
    ) -> int:
        """Admit ``items[i]`` to ``lanes[i]`` in order, under one lock
        acquisition and one consumer wake-up; returns how many were enqueued.

        Bulk admission always succeeds on an open channel but may shed the
        oldest queued bulk entries.  Control admission waits until the lane
        drains below its low watermark, the channel closes, or
        ``deadline_s`` elapses — then :class:`BackpressureError` is raised
        with the enqueued prefix length as ``accepted``.  Admission stops at
        the first entry that is not enqueued; it and everything after it go
        to ``on_drop`` (the expired one as such, the rest as rejected).
        """
        shed: List[Any] = []
        admitted = announced = 0
        expired = False
        with self._lock:
            control, bulk = self._control, self._bulk
            control_put = 0
            high = self._bulk_high
            for item, lane in zip(items, lanes):
                if self._closed:
                    break
                if lane is _BULK:
                    if high:
                        while len(bulk) >= high:
                            shed.append(bulk.popleft())
                    bulk.append(item)
                else:
                    if self._control_high and self._control_gated():
                        # Consumers must learn of what this call already
                        # queued, or nobody drains the gate open.
                        if admitted > announced:
                            self._not_empty.notify(admitted - announced)
                            announced = admitted
                        # wait() releases the lock, so join_producers()
                        # must see this producer; a joiner woken below looks
                        # again only once this call lets go of the lock, when
                        # the count says whether a hand-back is still owed.
                        self._inflight += 1
                        opened = self._await_control(deadline_s)
                        self._inflight -= 1
                        self._idle.notify_all()
                        if not opened:
                            expired = True
                            break
                        if self._closed:
                            break
                    control.append(item)
                    control_put += 1
                admitted += 1
            self._counters[_CONTROL].put += control_put
            counters = self._counters[_BULK]
            counters.put += admitted - control_put
            counters.shed += len(shed)
            if admitted > announced:
                self._not_empty.notify(admitted - announced)
            drops: List[Tuple[str, Sequence[Any]]] = []
            if self._on_drop is not None and (shed or admitted < len(items)):
                if shed:
                    drops.append((TERMINAL_SHED, shed))
                refused = items[admitted:]
                if expired:
                    drops.append((TERMINAL_EXPIRED, refused[:1]))
                    refused = refused[1:]
                if refused:
                    drops.append((TERMINAL_REJECTED, refused))
                self._inflight += 1  # until _hand_back() has run on_drop
            depth = len(control)
        self._hand_back(drops)
        if expired:
            raise BackpressureError(
                f"channel {self.name!r}: control-lane admission deadline "
                f"({deadline_s}s) expired at depth {depth}",
                accepted=admitted,
            )
        return admitted

    # -- consumption ---------------------------------------------------------
    def _await_entry(self, timeout: Optional[float]) -> bool:
        """Wait (lock held) until either lane holds an entry; ``False`` on
        timeout or once the channel is closed and drained."""
        control, bulk = self._control, self._bulk
        deadline: Optional[float] = None
        while not control and not bulk:
            if self._closed:
                return False
            if timeout is None:
                self._not_empty.wait(1.0)
                continue
            if deadline is None:
                deadline = self._clock() + timeout
                remaining = timeout
            else:
                remaining = deadline - self._clock()
            if remaining <= 0:
                return False
            self._not_empty.wait(remaining)
        return True

    def take(self, timeout: Optional[float] = None) -> Optional[Any]:
        """Blocking control-first pop; None on timeout or once closed+empty."""
        with self._lock:
            if not self._await_entry(timeout):
                return None
            if self._control:
                item = self._control.popleft()
                self._counters[_CONTROL].got += 1
                if self._control_high:
                    self._not_full.notify_all()
                return item
            self._counters[_BULK].got += 1
            return self._bulk.popleft()

    def take_many(
        self, max_items: int, timeout: Optional[float] = None
    ) -> List[Any]:
        """Block for the first entry, then pop up to ``max_items`` that are
        already queued (control first) under the same lock acquisition;
        empty on timeout or once closed and drained."""
        with self._lock:
            if not self._await_entry(timeout):
                return []
            control, bulk = self._control, self._bulk
            items: List[Any] = []
            max_items = max(1, max_items)
            for lane, queue in ((_CONTROL, control), (_BULK, bulk)):
                count = min(len(queue), max_items - len(items))
                if count <= 0:
                    continue
                if count == len(queue):
                    items.extend(queue)
                    queue.clear()
                else:
                    items.extend(queue.popleft() for _ in range(count))
                self._counters[lane].got += count
                if lane is _CONTROL and self._control_high:
                    self._not_full.notify_all()
            return items

    def drain(self) -> List[Any]:
        """Pop everything without blocking (control lane first)."""
        with self._lock:
            items = list(self._control) + list(self._bulk)
            self._control.clear()
            self._bulk.clear()
            self._not_full.notify_all()
            return items

    # -- lifecycle ------------------------------------------------------------
    def close(self) -> None:
        """Close and wake every blocked producer and consumer."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._not_empty.notify_all()
            self._not_full.notify_all()

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def join_producers(self, timeout: float = 2.0) -> bool:
        """Wait until no producer is blocked on admission or still inside
        ``on_drop``.

        Called by ``Broker.stop()`` after :meth:`close`: once this returns
        ``True``, every producer woken by the close has finished reclaiming
        its rejected entries, so a refcount audit cannot race them.
        """
        deadline = self._clock() + timeout
        with self._lock:
            while self._inflight:
                remaining = deadline - self._clock()
                if remaining <= 0:
                    return False
                self._idle.wait(remaining)
        return True

    # -- introspection --------------------------------------------------------
    def qsize(self) -> int:
        with self._lock:
            return len(self._control) + len(self._bulk)

    def lane_depths(self) -> Dict[str, int]:
        with self._lock:
            return {"control": len(self._control), "bulk": len(self._bulk)}

    def flow_stats(self) -> Dict[str, float]:
        """Backpressure accounting for the telemetry sampler."""
        with self._lock:
            stats: Dict[str, float] = {}
            for lane, depth in (
                (_CONTROL, len(self._control)), (_BULK, len(self._bulk))
            ):
                counters = self._counters[lane]
                prefix = lane.value
                stats[f"{prefix}_depth"] = float(depth)
                stats[f"{prefix}_put"] = float(counters.put)
                stats[f"{prefix}_got"] = float(counters.got)
                stats[f"{prefix}_shed"] = float(counters.shed)
                stats[f"{prefix}_blocked"] = float(counters.blocked)
                stats[f"{prefix}_block_seconds"] = counters.block_seconds
                stats[f"{prefix}_expired"] = float(counters.expired)
            return stats


def release_header_shares(
    store: Any, header: Dict[str, Any], *, shares: Optional[int] = None
) -> None:
    """Release ``shares`` object-store refcounts held by ``header``.

    ``shares=None`` releases one share per destination the header names (a
    header on the header queue names exactly the destinations not routed
    yet); ID queues pass ``shares=1`` (the router already split the fan-out).
    Already-released bodies are tolerated — reclamation races shutdown.
    """
    object_id = header.get(OBJECT_ID)
    if object_id is None:
        return
    if shares is None:
        shares = max(1, len(header.get(DST) or ()))
    for _ in range(shares):
        try:
            store.release(object_id)
        except Exception:  # noqa: BLE001 - already freed (late shed/shutdown)
            break
