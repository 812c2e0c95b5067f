"""Channel workloads: closed-loop producers, the real data plane, verifying consumers.

A workload builds brokers, stores, endpoints and (for ``wire_remote``) a
socket fabric through their public constructors, then runs its phases on
that one plane.  Every phase is a closed loop: each producer keeps at most
``window`` messages un-consumed and gets a credit back when the consumer
has *verified* the message, so a slower channel receives less load and a
payload buffer is never re-stamped while a message that carries it is in
flight (the in-memory store passes bodies by reference).

Nothing here sleeps to model a cost, and nothing reaches into a private
attribute of the data plane: a timed run uses ``Broker``,
``ProcessEndpoint.send/receive``, ``make_message``, the two store
constructors and ``SocketFabric`` only.
"""

from __future__ import annotations

import statistics
import struct
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.broker import Broker
from repro.core.concurrency import spawn_thread
from repro.core.endpoint import ProcessEndpoint
from repro.core.message import MsgType, make_message
from repro.core.object_store import InMemoryObjectStore, SharedMemoryObjectStore
from repro.transport.tcp import SocketFabric

from .stats import calm_quantile, chunk_medians, percentile, window_rates

KIB = 1 << 10
MIB = 1 << 20

#: (producer, index) stamp at the head of every body
_STAMP = struct.Struct("<QQ")
#: full content equality is checked on every Nth message of a producer
_FULL_CHECK_EVERY = 64
#: throughput and blocked share are taken over windows this long
_RATE_WINDOW_S = 0.5
#: one-way latency is taken over chunks of this many consecutive messages
_LATENCY_CHUNK = 250
#: a phase that cannot drain within this long counts its messages as timed out
_DRAIN_TIMEOUT_S = 20.0

LEARNER = "learner"


@dataclass(frozen=True)
class Phase:
    """One closed-loop measurement on a built plane."""

    name: str
    body_bytes: int
    #: messages a producer may have un-consumed
    window: int
    #: how many of the plane's producers generate in this phase
    producers: int
    #: share of ``--seconds`` this phase measures
    share: float
    #: end-to-end metrics this phase is the source of
    reports: Tuple[str, ...]
    #: completions between two consumer stamps (≈ a few milliseconds)
    stamp_every: int
    #: warm-up messages per producer, sent (and verified) during set-up
    warmup: int


@dataclass(frozen=True)
class ChannelWorkload:
    name: str
    #: "memory": ``InMemoryObjectStore`` (what ``build_cluster`` deploys);
    #: "shm": ``SharedMemoryObjectStore`` with its slab arena
    store: str
    #: producers sit behind a second broker reached over loopback TCP
    wire: bool
    producers: int
    #: more than one: every message is one broadcast to all of them
    consumers: int
    msg_type: MsgType
    phases: Tuple[Phase, ...]


_THROUGHPUT = ("msgs_per_s", "mb_per_s", "wait_fraction")
_LATENCY = ("oneway_us",)

WORKLOADS: Dict[str, ChannelWorkload] = {
    "local_small": ChannelWorkload(
        "local_small", "memory", False, 2, 1, MsgType.DATA,
        (
            Phase("sat", KIB, 32, 2, 0.5, _THROUGHPUT, 128, 2000),
            Phase("idle", KIB, 1, 1, 0.5, _LATENCY, 1, 500),
        ),
    ),
    "local_large_shm": ChannelWorkload(
        "local_large_shm", "shm", False, 2, 1, MsgType.DATA,
        (
            Phase("sat", MIB, 4, 2, 0.5, _THROUGHPUT, 8, 48),
            Phase("idle", MIB, 1, 1, 0.5, _LATENCY, 1, 16),
        ),
    ),
    "fanout_weights": ChannelWorkload(
        "fanout_weights", "shm", False, 1, 4, MsgType.WEIGHTS,
        (
            Phase("sat", MIB, 2, 1, 0.5, _THROUGHPUT, 4, 24),
            Phase("idle", MIB, 1, 1, 0.5, _LATENCY, 1, 8),
        ),
    ),
    "wire_remote": ChannelWorkload(
        "wire_remote", "memory", True, 2, 1, MsgType.DATA,
        (
            Phase("bulk", 256 * KIB, 4, 2, 0.4, ("mb_per_s",), 8, 64),
            Phase("small", KIB, 32, 2, 0.3, ("msgs_per_s", "wait_fraction"), 32, 500),
            Phase("idle", KIB, 1, 1, 0.3, _LATENCY, 1, 200),
        ),
    ),
}


@dataclass
class PhaseResult:
    phase: Phase
    sent: int = 0
    completed: int = 0
    lost: int = 0
    duplicated: int = 0
    reordered: int = 0
    corrupt: int = 0
    timed_out: int = 0
    #: completions per second, one value per rate window
    rates: List[float] = field(default_factory=list)
    #: consumer-blocked share, one value per rate window
    blocked: List[float] = field(default_factory=list)
    #: make_message -> receive() return, seconds (one-in-flight phases only)
    latencies: List[float] = field(default_factory=list)
    #: consumer -> (seq, t_send, t_receive) of each delivery; traced runs only
    journeys: Dict[str, List[Tuple[int, float, float]]] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return (
            self.lost + self.duplicated + self.reordered + self.corrupt
            + self.timed_out
        )

    def metrics(self, fanout: int) -> Dict[str, float]:
        """This phase's end-to-end metrics (only those it ``reports``).

        Rates are the upper quartile over windows and latency the lower
        decile over chunk medians: see ``stats.calm_quantile``.  The decile,
        because a 1 MiB message's time is mostly ``memcpy`` and the box's
        memory slows by 20-50 % for seconds at a time when a neighbour uses
        it; most runs still see a tenth of their chunks undisturbed, far
        fewer a quarter.
        """
        out: Dict[str, float] = {}
        wanted = self.phase.reports
        if self.rates:
            rate = calm_quantile(self.rates, better="higher") * fanout
            if "msgs_per_s" in wanted:
                out["msgs_per_s"] = rate
            if "mb_per_s" in wanted:
                out["mb_per_s"] = rate * self.phase.body_bytes / 1e6
            if "wait_fraction" in wanted:
                out["wait_fraction"] = statistics.median(self.blocked)
        if self.latencies and "oneway_us" in wanted:
            out["oneway_us"] = 1e6 * calm_quantile(
                chunk_medians(self.latencies, _LATENCY_CHUNK), better="lower", parts=10
            )
        return out

    def tails(self) -> Dict[str, float]:
        """Whole-phase latency percentiles, printed with their sample count
        and never gated: on this box a tail is a neighbour's as often as ours."""
        if not self.latencies:
            return {}
        return {
            "n": len(self.latencies),
            "p50_us": percentile(self.latencies, 0.5) * 1e6,
            "p99_us": percentile(self.latencies, 0.99) * 1e6,
            "p99.9_us": percentile(self.latencies, 0.999) * 1e6,
        }


class Plane:
    """The built data plane of one channel workload."""

    def __init__(self, workload: ChannelWorkload, seed: int):
        self.workload = workload
        self.fabric: Optional[SocketFabric] = None
        make_store = (
            SharedMemoryObjectStore if workload.store == "shm" else InMemoryObjectStore
        )
        if workload.wire:
            self.stores: List[Any] = [make_store(), make_store()]
            self.fabric = SocketFabric("spine")
            near = Broker("near.broker", store=self.stores[0], fabric=self.fabric)
            far = Broker("far.broker", store=self.stores[1], fabric=self.fabric)
            self.fabric.listen(near.name)
            self.fabric.connect_bidirectional(far.name, near.name)
            self.brokers: List[Broker] = [near, far]
        else:
            self.stores = [make_store()]
            near = far = Broker("broker", store=self.stores[0])
            self.brokers = [near]
        #: the broker producers send through / consumers receive from
        self.source_broker, self.sink_broker = far, near

        if workload.consumers == 1:
            producer_names = [f"explorer-{i}" for i in range(workload.producers)]
            consumer_names = [LEARNER]
        else:
            producer_names = [LEARNER]
            consumer_names = [f"explorer-{i}" for i in range(workload.consumers)]
        self.destinations = consumer_names
        self.producers = [ProcessEndpoint(name, far) for name in producer_names]
        self.consumers = [ProcessEndpoint(name, near) for name in consumer_names]
        if workload.wire:
            for name in consumer_names:
                far.add_remote_route(name, near.name)

        # Payloads: one seeded template per (phase, producer); the pool a
        # producer cycles through holds window + 2 stamped copies of it, so
        # the copy being re-stamped was consumed at least two sends ago.
        self.templates: Dict[Tuple[str, int], np.ndarray] = {}
        self.pools: Dict[Tuple[str, int], List[np.ndarray]] = {}
        for phase in workload.phases:
            for pid in range(phase.producers):
                rng = np.random.default_rng([seed, pid, phase.body_bytes])
                template = rng.integers(0, 256, phase.body_bytes, dtype=np.uint8)
                self.templates[phase.name, pid] = template
                self.pools[phase.name, pid] = [
                    template.copy() for _ in range(phase.window + 2)
                ]
        #: set by a traced run: journeys are recorded for the hop budget
        self.record_journeys = False

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        for broker in self.brokers:
            broker.start()
        for endpoint in self.consumers + self.producers:
            endpoint.start()

    def stop_endpoints(self) -> None:
        for endpoint in self.producers + self.consumers:
            endpoint.stop()

    def leaked(self) -> int:
        """Objects still in any store; call once endpoints have stopped and
        before the brokers do (``Broker.stop`` empties its store)."""
        return sum(len(store.leak_report()) for store in self.stores)

    def stop_brokers(self) -> None:
        for broker in self.brokers:
            broker.stop()
        if self.fabric is not None:
            self.fabric.close()

    def close_stores(self) -> None:
        for store in self.stores:
            store.close()

    # -- one phase ----------------------------------------------------------
    def run(
        self,
        phase: Phase,
        *,
        seconds: Optional[float] = None,
        messages: Optional[int] = None,
    ) -> PhaseResult:
        """Run ``phase`` for ``seconds`` (timed) or ``messages`` per producer
        (warm-up), then drain; returns what was measured and verified."""
        fanout = len(self.consumers)
        result = PhaseResult(phase)
        credits = [threading.Semaphore(phase.window) for _ in range(phase.producers)]
        stop = threading.Event()
        drained = threading.Event()
        lock = threading.Lock()
        sent = [0] * phase.producers
        #: t_send of the one message in flight (one-in-flight phases)
        in_flight_since = [0.0]
        one_in_flight = phase.window == 1 and phase.producers == 1
        #: broadcast key -> consumers that have verified it so far
        partial: Dict[Tuple[int, int], int] = {}
        blocked = [0.0] * fanout
        stamps: List[Tuple[float, int, float]] = []
        seen = [[0] * phase.producers for _ in range(fanout)]
        missing: List[Dict[Tuple[int, int], None]] = [{} for _ in range(fanout)]
        templates = [self.templates[phase.name, p] for p in range(phase.producers)]
        record_journeys = self.record_journeys and one_in_flight
        stamps.append((time.perf_counter(), 0, 0.0))

        def produce(pid: int) -> None:
            endpoint = self.producers[pid]
            pool = self.pools[phase.name, pid]
            credit = credits[pid]
            count = 0
            while messages is None or count < messages:
                if not credit.acquire(timeout=0.05):
                    if stop.is_set():
                        break
                    continue
                if stop.is_set():
                    break
                body = pool[count % len(pool)]
                _STAMP.pack_into(body, 0, pid, count)
                if one_in_flight:
                    in_flight_since[0] = time.perf_counter()
                message = make_message(
                    endpoint.name, self.destinations, self.workload.msg_type,
                    body, body_size=phase.body_bytes,
                )
                endpoint.send(message)
                count += 1
                sent[pid] = count

        def consume(cid: int) -> None:
            endpoint = self.consumers[cid]
            expected = seen[cid]
            holes = missing[cid]
            waited = 0.0
            journeys: List[Tuple[int, float, float]] = []
            if record_journeys:
                result.journeys[endpoint.name] = journeys
            while True:
                before = time.perf_counter()
                message = endpoint.receive(timeout=0.1)
                after = time.perf_counter()
                waited += after - before
                if message is None:
                    if drained.is_set():
                        return
                    continue
                body = message.body
                pid = index = -1
                if (
                    isinstance(body, np.ndarray)
                    and body.dtype == np.uint8
                    and body.nbytes == phase.body_bytes
                ):
                    pid, index = _STAMP.unpack_from(body)
                if not 0 <= pid < phase.producers:
                    with lock:
                        result.corrupt += 1
                    continue
                if index == expected[pid]:
                    expected[pid] = index + 1
                elif index > expected[pid]:
                    # A gap: lost unless the skipped ones turn up late.
                    for skipped in range(expected[pid], index):
                        holes[pid, skipped] = None
                    expected[pid] = index + 1
                elif (pid, index) in holes:
                    del holes[pid, index]
                    with lock:
                        result.reordered += 1
                else:
                    with lock:
                        result.duplicated += 1
                    continue
                if index % _FULL_CHECK_EVERY == 0 and not np.array_equal(
                    body[_STAMP.size:], templates[pid][_STAMP.size:]
                ):
                    with lock:
                        result.corrupt += 1
                blocked[cid] = waited
                if record_journeys:
                    journeys.append((message.seq, in_flight_since[0], after))
                with lock:
                    if fanout > 1:
                        arrived = partial.get((pid, index), 0) + 1
                        if arrived < fanout:
                            partial[pid, index] = arrived
                            continue
                        partial.pop((pid, index), None)
                    result.completed += 1
                    if one_in_flight:
                        result.latencies.append(after - in_flight_since[0])
                    if result.completed % phase.stamp_every == 0:
                        stamps.append(
                            (after, result.completed, sum(blocked) / fanout)
                        )
                credits[pid].release()

        consumers = [
            spawn_thread(f"spine-consumer-{cid}", consume, args=(cid,))
            for cid in range(fanout)
        ]
        producers = [
            spawn_thread(f"spine-producer-{pid}", produce, args=(pid,))
            for pid in range(phase.producers)
        ]
        if seconds is not None:
            time.sleep(seconds)
            stop.set()
        for thread in producers:
            thread.join()
        stopped = time.perf_counter()
        result.sent = sum(sent)
        deadline = stopped + _DRAIN_TIMEOUT_S
        while time.perf_counter() < deadline:
            with lock:
                if result.completed + result.duplicated >= result.sent:
                    break
            time.sleep(0.002)
        drained.set()
        for thread in consumers:
            thread.join()
        unresolved = sum(len(holes) for holes in missing)
        result.lost = unresolved
        result.timed_out = max(0, result.sent - result.completed - unresolved)
        if not one_in_flight:
            result.rates, result.blocked = window_rates(
                stamps, stopped, _RATE_WINDOW_S
            )
        return result


def measure_setup(
    workload: ChannelWorkload,
    seed: int,
    instrument: Optional[Callable[[Plane], None]] = None,
) -> Tuple[Plane, int, int]:
    """Build, start and warm a plane: everything a run pays before its first
    timed operation.  ``instrument`` sees the plane before anything starts.
    Returns (plane, warm-up messages, warm-up failures)."""
    plane = Plane(workload, seed)
    if instrument is not None:
        instrument(plane)
    plane.start()
    attempted = failed = 0
    for phase in workload.phases:
        warm = plane.run(phase, messages=phase.warmup)
        attempted += warm.sent
        failed += warm.failed
    return plane, attempted, failed


def link_counters(plane: Plane) -> Dict[str, float]:
    """Socket counters summed over the plane's links and listeners."""
    totals: Dict[str, float] = {}
    if plane.fabric is not None:
        for stats in plane.fabric.link_stats().values():
            for key, value in stats.items():
                totals[key] = totals.get(key, 0.0) + value
    return totals


def teardown(plane: Plane) -> Dict[str, float]:
    """Stop everything; returns the end-of-run census of the plane."""
    census = dict.fromkeys(
        ("arena.peak_bytes", "arena.huge_blocks", "arena.overflow_puts"), 0.0
    )
    try:
        plane.stop_endpoints()
        census["object_store.leaked"] = float(plane.leaked())
        for store in plane.stores:
            if isinstance(store, SharedMemoryObjectStore):
                arena = store.arena_stats()
                census["arena.peak_bytes"] += arena.get("slab_bytes", 0)
                census["arena.huge_blocks"] += arena.get("total_huge", 0)
                census["arena.overflow_puts"] += store.total_overflow_put
        census["tcp.protocol_errors"] = link_counters(plane).get("protocol_errors", 0.0)
        routers = [broker.router for broker in plane.brokers]
        plane.stop_brokers()
        census["router.routed_local"] = float(sum(r.routed_local for r in routers))
        census["router.routed_remote"] = float(sum(r.routed_remote for r in routers))
        census["router.dropped"] = float(sum(r.dropped for r in routers))
    finally:
        plane.close_stores()
    return census
