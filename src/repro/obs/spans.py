"""Message-lifecycle spans: the one correlator of hop-log records.

The asynchronous channel records four lifecycle hops per message (see
:mod:`repro.core.tracing`): ``sent`` at the producing endpoint, ``routed``
when a router dispatches the header, ``delivered`` when the destination
endpoint's receiver thread lands the message in the local receive buffer,
and ``consumed`` when the workhorse thread reads it.  :class:`Correlator`
joins them by trace id into stage durations — the paper's "where does
transmission time go" quantities (Figs. 4–10):

========  =======================  =====================================
stage     interval                 meaning
========  =======================  =====================================
send      sent → routed            send buffer + header queue + routing
route     routed → delivered       ID queue + receiver thread hop
deliver   sent → delivered         end-to-end transmission
consume   delivered → consumed     receive-buffer dwell (workhorse lag)
========  =======================  =====================================

``delivered`` and ``consumed`` are recorded by the destination, so the
last three stages close once per destination of a fan-out; a terminal
``shed`` / ``expired`` / ``rejected`` closes the destinations it names
(the whole message when it names none) with a counted outcome instead.

There is one matcher and two ways to run it.  :class:`SpanAggregator` runs
it **live**: bounded (at most ``max_pending`` chains in flight, FIFO
evicted and counted), incrementally, over the batches of packed records
its hop-log reader hands it at each :meth:`~SpanAggregator.poll`, feeding
registry histograms per MsgType and per ``(src_role, type, dst_role)``
edge.  :func:`repro.obs.trace.critical.analyze` runs it **offline**,
unbounded, over a merged trace.  Same records in, same spans out.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from copy import deepcopy
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Deque, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.concurrency import make_lock
from ..core.tracing import (
    HOP_LOG, LIFECYCLE_KINDS, TERMINAL_KINDS, HopLog, Reader, unpack_records,
)
from .metrics import MetricsRegistry

#: Stage name -> (start kind, end kind): the one stage table.
STAGES: Dict[str, Tuple[str, str]] = {
    "send": ("sent", "routed"),
    "route": ("routed", "delivered"),
    "deliver": ("sent", "delivered"),
    "consume": ("delivered", "consumed"),
}
#: where a chain keeps the time of each start kind: ``sent`` and ``routed``
#: once per message, ``delivered`` once per destination (slot -1: there)
_SENT, _ROUTED, _TYPE, _SRC, _DST, _SEQ, _TRACE, _MATCHED, _AT = range(9)
_START_SLOT = {"sent": _SENT, "routed": _ROUTED, "delivered": -1}
#: lifecycle kind -> (its place in the lifecycle, the (stage, start slot)
#: pairs a record of it closes)
_STEPS: Dict[str, Tuple[int, Any]] = {
    kind: (place, tuple(
        (stage, _START_SLOT[start]) for stage, (start, end) in STAGES.items()
        if end == kind
    ))
    for place, kind in enumerate(LIFECYCLE_KINDS)
}
_IS_SENT, _IS_ROUTED, _IS_DELIVERED, _IS_CONSUMED = range(4)
#: ... and a terminal kind -> (no place in it, the outcome it records)
_IS_TERMINAL = -1
_STEPS.update({kind: (_IS_TERMINAL, kind) for kind in TERMINAL_KINDS})
#: the stage an evicted never-matched chain is charged to, by its earliest
#: hop (``sent`` anchors two stages: charged once, to the end-to-end one)
_EVICTED_AS = {_SENT: "deliver", _ROUTED: "route", _AT: "consume"}

#: one record to correlate: ``(ts, kind, source, msg_type, dst, seq,
#: trace)``, the four after ``ts`` ids into the name table fed with it
Row = Tuple[Any, ...]
#: what closed stages are grouped by: ``(stage, msg_type, src, dst)``;
#: ``dst`` is ``""`` for the stage no destination records (``send``)
Edge = Tuple[str, str, str, str]


@lru_cache(maxsize=None)  # endpoint names are a small fixed set per deployment
def role_of(name: str) -> str:
    """Framework role of an endpoint name (explorer/learner/controller)."""
    from ..analysis.topology import role_for_name  # stdlib-only module

    return role_for_name(name)


def event_rows(events: Iterable[Dict[str, Any]]) -> Tuple[List[Row], List[str]]:
    """Event dicts (a trace file's, a merged trace's) as the rows and name
    table the correlator takes — what a ring's reader hands it packed."""
    ids: Dict[str, int] = {"": 0}
    rows = []
    for event in events:
        detail = event["detail"]
        rows.append((event["ts"], *(
            ids.setdefault(name, len(ids)) for name in (
                event["kind"], event["source"],
                str(detail.get("type") or ""), str(detail.get("dst") or ""),
            )
        ), detail.get("seq", -1), detail.get("trace") or 0))
    return rows, list(ids)


@dataclass(frozen=True)
class SpanRecord:
    """One observed communication edge with its measured stage latencies.

    ``src``/``dst`` are endpoint names; ``msg_type`` is the ``str(MsgType)``
    value.  ``durations`` maps stage name -> seconds for the stages that
    closed at this destination.  Conformance checking reads only (src,
    msg_type, dst) — see ``repro.analysis.topology.observed_edges``.
    """

    seq: int
    msg_type: str
    src: str
    dst: str
    durations: Tuple[Tuple[str, float], ...] = ()
    trace: int = 0

    @property
    def src_role(self) -> str:
        return role_of(self.src)

    @property
    def dst_role(self) -> str:
        return role_of(self.dst)


@dataclass
class SpanStats:
    """Aggregate correlation health, exposed in snapshots and assertions."""

    matched: Dict[str, int] = field(default_factory=dict)
    unmatched_ends: Dict[str, int] = field(default_factory=dict)
    evicted_starts: Dict[str, int] = field(default_factory=dict)
    #: terminal outcome name -> terminal events that closed pending state
    terminated: Dict[str, int] = field(default_factory=dict)
    negative_durations: int = 0

    def total_unmatched(self) -> int:
        return sum(self.unmatched_ends.values()) + sum(self.evicted_starts.values())

    def total_terminated(self) -> int:
        return sum(self.terminated.values())


class Correlator:
    """The matcher: records in, closed stage durations out, keyed by trace id.

    ``max_pending`` bounds the chains in flight (``None``: unbounded, for
    offline use), ``max_records`` the per-destination records kept for
    :meth:`records`.  Not thread-safe; the aggregator serializes.

    A pending chain is a list — ``[sent time, routed time, msg_type, src,
    dst, seq, trace, matched, at]``, type / src / dst as ``sent`` told them
    — whose ``at`` maps a destination to ``[when it was delivered there
    (``None`` once closed: consumed, or a terminal outcome), {stage:
    seconds} of the stages closed there]``.
    """

    def __init__(
        self, *, max_pending: Optional[int] = None, max_records: Optional[int] = None
    ):
        self._max_pending = max_pending
        self._pending: "OrderedDict[int, List[Any]]" = OrderedDict()
        self._stats = SpanStats(
            matched=dict.fromkeys(STAGES, 0),
            unmatched_ends=dict.fromkeys(STAGES, 0),
            evicted_starts=dict.fromkeys(STAGES, 0),
            terminated=dict.fromkeys(TERMINAL_KINDS, 0),
        )
        #: (chain, destination, the {stage: seconds} its chain fills in)
        self._records: Deque[Tuple[List[Any], str, Dict[str, float]]] = deque(
            maxlen=max_records
        )
        self._edges: set = set()

    def feed(self, rows: Iterable[Row], names: Sequence[str]) -> Dict[Edge, List[float]]:
        """Correlate ``rows`` (in recording order) against the pending
        chains; returns the durations of the stages they closed."""
        closed: Dict[Edge, List[float]] = {}
        pending, stats, bound = self._pending, self._stats, self._max_pending
        unmatched = stats.unmatched_ends
        # Resolved once per batch, by kind id: what a record of that kind
        # does (``None``: a stage or train event, not a hop of a message).
        plan = [_STEPS.get(name) for name in names]
        for ts, kind, source, msg_type, dst, seq, trace in rows:
            step = plan[kind]
            if step is None or not trace:
                continue
            chain = pending.get(trace)
            kind, closes = step
            if kind == _IS_TERMINAL:
                if chain is not None:
                    self._terminate(closes, chain, names[dst] if dst else "")
                continue
            if chain is None:
                if kind == _IS_CONSUMED:
                    unmatched["consume"] += 1
                    continue
                chain = pending[trace] = [None, None, "", "", "", seq, trace, False, None]
                if bound is not None and len(pending) > bound:
                    self._evict()
            if kind == _IS_SENT:
                if chain[_SENT] is None:
                    chain[_SENT] = ts
                    chain[_SRC] = names[source]
                    # Id 0 is "none" in these two columns, whatever names[0] is.
                    chain[_TYPE] = names[msg_type] if msg_type else ""
                    chain[_DST] = names[dst] if dst else ""
                continue
            source = names[source]
            if kind == _IS_ROUTED:
                if chain[_ROUTED] is not None:
                    continue  # a duplicating link: the earliest stands
                chain[_ROUTED] = ts
                here, where = None, ""
            else:  # recorded by the destination: ``source`` is where
                at = chain[_AT]
                if at is None:
                    at = chain[_AT] = {}
                here, where = at.get(source), source
                if kind == _IS_DELIVERED:
                    if here is not None:
                        continue
                    here = at[source] = [ts, {}]
                    self._records.append((chain, source, here[1]))
                elif here is None:
                    here = at[source] = [None, {}]
            for stage, slot in closes:
                started = chain[slot] if slot >= 0 else here[0]
                if started is None:
                    unmatched[stage] += 1
                    continue
                seconds = ts - started
                if seconds < 0:
                    stats.negative_durations += 1
                    continue
                chain[_MATCHED] = True
                edge = (stage, chain[_TYPE], chain[_SRC], where)
                try:
                    closed[edge].append(seconds)
                except KeyError:
                    closed[edge] = [seconds]
                if here is not None:
                    here[1][stage] = seconds
            if kind == _IS_CONSUMED:
                here[0] = None
                if source == chain[_DST]:  # its one destination: complete
                    del pending[trace]
        for (stage, msg_type, src, dst), seconds in closed.items():
            stats.matched[stage] += len(seconds)
            if src and dst:
                self._edges.add((src, msg_type, dst))
        return closed

    def _terminate(self, outcome: str, chain: List[Any], dst: str) -> None:
        """A shed/expired/rejected message: close the destinations the
        event names — all of them when it names none — so they are a
        counted outcome, not starts left to be evicted as unmatched."""
        if chain[_AT] is None:
            chain[_AT] = {}
        named = [name for name in dst.split(",") if name]
        states = [chain[_AT].setdefault(name, [None, {}]) for name in named]
        if states and all(state[1] is None for state in states):
            return  # the queue and the router both reported it: count once
        for state in states:
            state[:] = None, None  # closed for good: by a terminal outcome
        chain[_MATCHED] = True
        self._stats.terminated[outcome] += 1
        # A fan-out's other destinations are still in flight: only a
        # terminal that covers the message's one destination, or names
        # none, retires the chain.
        if not named or chain[_DST] in named:
            del self._pending[chain[_TRACE]]

    def _evict(self) -> None:
        _, chain = self._pending.popitem(last=False)
        if not chain[_MATCHED]:
            earliest = next(slot for slot in _EVICTED_AS if chain[slot] is not None)
            self._stats.evicted_starts[_EVICTED_AS[earliest]] += 1

    # -- reads -------------------------------------------------------------
    def stats(self) -> SpanStats:
        return deepcopy(self._stats)

    def records(self) -> List[SpanRecord]:
        """Per-destination records of closed stages (oldest first; the
        newest ``max_records`` when bounded)."""
        return [
            SpanRecord(
                seq=chain[_SEQ], msg_type=chain[_TYPE], src=chain[_SRC], dst=dst,
                durations=tuple(sorted(durations.items())), trace=chain[_TRACE],
            )
            for chain, dst, durations in self._records
        ]

    def edges(self) -> List[Tuple[str, str, str]]:
        """Observed (src, msg_type, dst) endpoint-name triples, sorted."""
        return sorted(self._edges)

    def pending(self) -> int:
        """Chains in flight (never more than ``max_pending``)."""
        return len(self._pending)


def _polled(read):
    """A read of the correlator's state that polls the log first — so it
    covers everything recorded before the call — under the lock."""
    def polled(self):
        self.poll()
        with self._lock:
            return read(self)
    return polled


class SpanAggregator(Correlator):
    """The correlator run live: polls a hop-log reader, feeds a registry.

    :meth:`attach` it to a log and :meth:`poll` it — the telemetry
    sampler's sweep does; every read here does first, so a caller sees
    everything recorded before its call — or feed recorded events to
    :meth:`ingest`.  It shares no lock with any emitter: decoding and
    matching run on the polling thread, under the aggregator's own lock.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        *,
        max_pending: int = 8192,
        max_records: int = 4096,
        latency_buckets=None,
    ):
        super().__init__(max_pending=max_pending, max_records=max_records)
        self.registry = registry
        self._lock = make_lock("obs.spans")
        self._reader: Optional[Reader] = None
        #: records the ring overwrote before a poll got to them: each one
        #: is a hop this aggregator never correlated
        self.missed = 0
        self._missed_before = 0  # by readers since detached
        self._histograms: Dict[tuple, Any] = {}
        self._hist_kwargs = (
            {} if latency_buckets is None else {"buckets": latency_buckets}
        )
        #: (what a counter family exports of the stats, its counters by label)
        self._counters = [
            (totals, {
                label: registry.counter(metric, {key: label}, help=help)
                for label in totals
            })
            for metric, key, totals, help in (
                ("message_spans_unmatched_total", "stage", self._stats.unmatched_ends,
                 "lifecycle end events with no matching start"),
                ("message_spans_evicted_total", "stage", self._stats.evicted_starts,
                 "pending starts FIFO-evicted before any end matched"),
                ("message_spans_terminal_total", "outcome", self._stats.terminated,
                 "messages closed by a terminal outcome "
                 "(flow-control shed/expired, routing rejected)"),
            )
        ]
        self._negative_counter = registry.counter(
            "message_spans_negative_total",
            help="stage durations that came out negative (clock skew/reorder)",
        )

    # -- record intake -----------------------------------------------------
    def attach(self, log: HopLog = HOP_LOG) -> "SpanAggregator":
        """Read ``log`` from here on (the ring keeps whatever size it has:
        whoever attaches this sizes it — telemetry's tracer does)."""
        self.detach()
        with self._lock:
            self._reader, self._missed_before = log.reader(), self.missed
        return self

    def detach(self) -> None:
        self.poll()
        with self._lock:
            if self._reader is not None:
                self._reader.close()
                self._reader = None

    def poll(self) -> None:
        """Correlate what the log recorded since the last poll."""
        with self._lock:
            if self._reader is not None:
                data, names = self._reader.read()
                self._correlate(unpack_records(data), names)
                self.missed = self._missed_before + self._reader.missed

    def ingest(self, events: Iterable[Dict[str, Any]]) -> SpanStats:
        """Offline path: feed recorded event dicts; returns the stats."""
        with self._lock:
            self._correlate(*event_rows(events))
        return self.stats()

    def _correlate(self, rows: Iterable[Row], names: Sequence[str]) -> None:
        """One batch through the matcher, then each histogram fed once."""
        for (stage, msg_type, src, dst), seconds in self.feed(rows, names).items():
            self._histogram(stage, msg_type).record_many(seconds)
            if dst:
                self._histogram(
                    stage, msg_type, role_of(src), role_of(dst)
                ).record_many(seconds)
        for totals, counters in self._counters:
            for label, counter in counters.items():
                counter.inc(totals[label] - counter.value)
        self._negative_counter.inc(
            self._stats.negative_durations - self._negative_counter.value
        )

    def _histogram(self, stage: str, msg_type: str, *roles: str):
        """The registry histogram of one stage and type (and, with
        ``roles``, one edge), resolved once."""
        histogram = self._histograms.get((stage, msg_type, *roles))
        if histogram is None:
            labels = {"stage": stage, "type": msg_type}
            if roles:
                labels.update(src_role=roles[0], dst_role=roles[1])
            histogram = self._histograms[(stage, msg_type, *roles)] = (
                self.registry.histogram(
                    "message_edge_stage_seconds" if roles else "message_stage_seconds",
                    labels, **self._hist_kwargs,
                    help="per-(src_role,type,dst_role) lifecycle latency" if roles
                    else "per-stage message lifecycle latency",
                )
            )
        return histogram

    stats = _polled(Correlator.stats)
    records = _polled(Correlator.records)
    edges = _polled(Correlator.edges)
    pending = _polled(Correlator.pending)
