"""Message-lifecycle spans: correlate hop-log events into stage latencies.

The asynchronous channel emits four lifecycle events per message (see
``repro.core``): ``sent`` at the producing endpoint, ``routed`` when the
broker's router dispatches the header, ``delivered`` when the destination
endpoint's receiver thread lands the message in the local receive buffer,
and ``consumed`` when the workhorse thread actually reads it.  The
:class:`SpanAggregator` correlates them by message ``seq`` into per-stage
latency histograms — the paper's "where does transmission time go"
quantities (Figs. 4–10) — broken down per MsgType and per
``(src_role, type, dst_role)`` edge aligned with ``docs/topology.json``.

Stages (named by what the duration covers):

========  =======================  =====================================
stage     interval                 meaning
========  =======================  =====================================
send      sent → routed            send buffer + header queue + routing
route     routed → delivered       ID queue + receiver thread hop
deliver   sent → delivered         end-to-end transmission
consume   delivered → consumed     receive-buffer dwell (workhorse lag)
========  =======================  =====================================

Correlation state is bounded: at most ``max_pending`` in-flight starts per
stage, FIFO-evicted (each eviction counted).  Lost end events — routine
under :class:`repro.testing.faults.FaultyLink` drops — therefore cannot
grow memory, they only increment the unmatched counters that the JSON
snapshot and Prometheus exposition report.

The aggregator can run **live** (:meth:`SpanAggregator.attach` subscribes
it to the hop log, so it sees every event of every hop) or **offline** via
:meth:`ingest` over recorded events.  Completed edges are retained as :class:`SpanRecord` entries that
:func:`repro.analysis.topology.conformance_violations` accepts directly,
so static-vs-observed topology diffing has one code path whether it is fed
raw hop-log events or span records.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..core.concurrency import make_lock
from ..core.tracing import HOP_LOG, LIFECYCLE_KINDS, TERMINAL_KINDS, HopLog
from .metrics import MetricsRegistry

#: Stage name -> (start event kind, end event kind).
STAGES: Dict[str, Tuple[str, str]] = {
    "send": ("sent", "routed"),
    "route": ("routed", "delivered"),
    "deliver": ("sent", "delivered"),
    "consume": ("delivered", "consumed"),
}


_ROLE_CACHE: Dict[str, str] = {}


def role_of(name: str) -> str:
    """Framework role of an endpoint name (explorer/learner/controller).

    Memoized: this sits on the per-message aggregation path and endpoint
    names are a small fixed set per deployment.
    """
    role = _ROLE_CACHE.get(name)
    if role is None:
        from ..analysis.topology import role_for_name  # stdlib-only module

        role = role_for_name(name)
        _ROLE_CACHE[name] = role
    return role


@dataclass(frozen=True)
class SpanRecord:
    """One observed communication edge with its measured stage latencies.

    ``src``/``dst`` are endpoint names; ``msg_type`` is the ``str(MsgType)``
    value.  ``durations`` maps stage name -> seconds for the stages that
    completed for this (seq, dst) pair.  Conformance checking reads only
    (src, msg_type, dst) — see ``repro.analysis.topology.observed_edges``.
    """

    seq: int
    msg_type: str
    src: str
    dst: str
    durations: Tuple[Tuple[str, float], ...] = ()

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
    #: terminal outcome name -> messages closed by it (shed/expired/rejected)
    terminated: Dict[str, int] = field(default_factory=dict)
    negative_durations: int = 0

    def total_unmatched(self) -> int:
        return sum(self.unmatched_ends.values()) + sum(self.evicted_starts.values())

    def total_terminated(self) -> int:
        return sum(self.terminated.values())


class _PendingMap:
    """Bounded FIFO map of correlation key -> start timestamp.

    Entries that matched at least one end event are evicted silently;
    never-matched entries bump ``evicted`` so they can be reported as
    unmatched (a fan-out ``sent`` start legitimately outlives many matches,
    so eviction itself is not a failure — only eviction before any match).
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.evicted = 0
        self._entries: "OrderedDict[Any, List[Any]]" = OrderedDict()

    def put(self, key: Any, timestamp: Any) -> None:
        if key in self._entries:
            # A duplicate start (FaultyLink duplication): keep the earliest
            # so durations err on the long side rather than negative.
            return
        self._entries[key] = [timestamp, False]
        if len(self._entries) > self.capacity:
            _, (_, matched) = self._entries.popitem(last=False)
            if not matched:
                self.evicted += 1

    def peek(self, key: Any) -> Optional[Any]:
        entry = self._entries.get(key)
        if entry is None:
            return None
        entry[1] = True
        return entry[0]

    def pop(self, key: Any) -> Optional[Any]:
        entry = self._entries.pop(key, None)
        return None if entry is None else entry[0]

    def __len__(self) -> int:
        return len(self._entries)


class SpanAggregator:
    """Correlates lifecycle hop-log events into registry histograms.

    :meth:`attach` it to the hop log for live aggregation, or feed recorded
    events to :meth:`ingest`.  Thread-safe: events may arrive from sender,
    router, and receiver threads at once.  Like any subscriber, one that
    raises is logged and detached by the log.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        *,
        max_pending: int = 8192,
        max_records: int = 4096,
        latency_buckets=None,
    ):
        self.registry = registry
        self._lock = make_lock("obs.spans")
        self._log: Optional[HopLog] = None
        # Stage start state.  "sent"/"routed" are keyed by seq (one producer
        # event fans out to N destinations, so matches peek rather than
        # pop); "delivered" is keyed by (seq, dst) and popped on match.
        self._sent = _PendingMap(max_pending)
        self._routed = _PendingMap(max_pending)
        self._delivered = _PendingMap(max_pending)
        #: seq -> (msg_type, src, dst list) from the sent event
        self._meta = _PendingMap(max_pending)
        self._stats = SpanStats(
            matched={stage: 0 for stage in STAGES},
            unmatched_ends={stage: 0 for stage in STAGES},
            evicted_starts={stage: 0 for stage in STAGES},
            terminated={outcome: 0 for outcome in TERMINAL_KINDS},
        )
        self._records: "OrderedDict[Tuple[int, str], Dict[str, float]]" = OrderedDict()
        self._record_meta: Dict[Tuple[int, str], Tuple[str, str]] = {}
        self._max_records = max_records
        self._edges: set = set()
        self._histograms: Dict[tuple, Any] = {}
        self._hist_kwargs = (
            {} if latency_buckets is None else {"buckets": latency_buckets}
        )
        self._unmatched_counter = {
            stage: registry.counter(
                "message_spans_unmatched_total",
                {"stage": stage},
                help="lifecycle end events with no matching start",
            )
            for stage in STAGES
        }
        self._evicted_counter = {
            stage: registry.counter(
                "message_spans_evicted_total",
                {"stage": stage},
                help="pending starts FIFO-evicted before any end matched",
            )
            for stage in STAGES
        }
        self._terminal_counter = {
            outcome: registry.counter(
                "message_spans_terminal_total",
                {"outcome": outcome},
                help="messages closed by a terminal outcome "
                     "(flow-control shed/expired, routing rejected)",
            )
            for outcome in TERMINAL_KINDS
        }
        self._negative_counter = registry.counter(
            "message_spans_negative_total",
            help="stage durations that came out negative (clock skew/reorder)",
        )

    # -- event intake ------------------------------------------------------
    def attach(self, log: HopLog = HOP_LOG) -> "SpanAggregator":
        """Subscribe to ``log``: aggregate every hop from now on."""
        self.detach()
        self._log = log
        log.subscribe(self.observe_many)
        return self

    def detach(self) -> None:
        if self._log is not None:
            self._log.unsubscribe(self.observe_many)
            self._log = None

    def observe(self, event: Any) -> None:
        """Take one TraceEvent-shaped object."""
        kind = getattr(event, "kind", None)
        if kind not in LIFECYCLE_KINDS:
            if kind in TERMINAL_KINDS:
                self._observe_terminal(kind, event)
            return
        detail = getattr(event, "detail", None) or {}
        seq = detail.get("seq")
        if seq is None:
            return
        timestamp = getattr(event, "timestamp", 0.0)
        source = getattr(event, "source", "") or ""
        # Histogram updates are deferred until after the correlation lock is
        # released: histograms carry their own locks, and nesting them inside
        # ours would serialize sender/router/receiver threads on the hot path.
        updates: List[Tuple[Any, float]] = []
        with self._lock:
            if kind == "sent":
                self._sent.put(seq, timestamp)
                self._meta.put(
                    seq,
                    (  # type: ignore[arg-type]
                        str(detail.get("type", "")),
                        source,
                        str(detail.get("dst", "")),
                    ),
                )
            elif kind == "routed":
                self._routed.put(seq, timestamp)
                self._close_stage("send", seq, None, timestamp, updates)
            elif kind == "delivered":
                self._delivered.put((seq, source), timestamp)
                self._close_stage("route", seq, source, timestamp, updates)
                self._close_stage("deliver", seq, source, timestamp, updates)
            elif kind == "consumed":
                self._close_stage("consume", seq, source, timestamp, updates)
            if self._sent.evicted or self._routed.evicted or self._delivered.evicted:
                self._sync_evictions()
        for histogram, duration in updates:
            histogram.record(duration)

    def observe_many(self, events: Iterable[Any]) -> None:
        """The subscriber: one ``emit``/``emit_many`` call's events."""
        for event in events:
            self.observe(event)

    def ingest(self, events: Iterable[Any]) -> SpanStats:
        """Offline path: feed recorded events; returns the current stats."""
        self.observe_many(events)
        return self.stats()

    def _observe_terminal(self, outcome: str, event: Any) -> None:
        """A shed/expired/rejected message: close its pending state.

        Without this, a bulk shed under ``FlowControlSpec`` leaves its
        ``sent`` (and possibly ``routed``/``(seq, dst)``) entries pending
        until FIFO eviction mislabels them as unmatched.  The terminal
        event instead records a definite outcome in a labeled counter.
        """
        detail = getattr(event, "detail", None) or {}
        seq = detail.get("seq")
        if seq is None:
            return
        with self._lock:
            dsts = [d for d in str(detail.get("dst") or "").split(",") if d]
            for dst in dsts:
                self._delivered.pop((seq, dst))
            meta = self._meta.peek(seq)
            sent_dsts = (
                {d for d in str(meta[2]).split(",") if d} if meta else None
            )
            # A router reject is per-destination: when other destinations of
            # the same fan-out are still in flight, the sent/routed starts
            # must survive to match their deliveries.  peek() marks them
            # matched, so a later FIFO eviction stays silent.
            partial = (
                sent_dsts is not None and dsts and set(dsts) < sent_dsts
            )
            if partial:
                known = (
                    self._sent.peek(seq) is not None
                    or self._routed.peek(seq) is not None
                )
            else:
                known = self._sent.pop(seq) is not None
                known = (self._routed.pop(seq) is not None) or known
                self._meta.pop(seq)
            if not known:
                # Duplicate terminal (e.g. queue and router both report the
                # same rejected header) or untraced sender: count once.
                return
            self._stats.terminated[outcome] = (
                self._stats.terminated.get(outcome, 0) + 1
            )
            self._terminal_counter[outcome].inc()

    # -- correlation internals (call with lock held) -----------------------
    def _close_stage(
        self,
        stage: str,
        seq: int,
        dst: Optional[str],
        end_timestamp: float,
        updates: List[Tuple[Any, float]],
    ) -> None:
        start_kind = STAGES[stage][0]
        if start_kind == "sent":
            started = self._sent.peek(seq)
        elif start_kind == "routed":
            started = self._routed.peek(seq)
        else:  # delivered: per-destination, consumed exactly once
            started = self._delivered.pop((seq, dst))
        if started is None:
            self._stats.unmatched_ends[stage] += 1
            self._unmatched_counter[stage].inc()
            return
        duration = end_timestamp - started
        if duration < 0:
            self._stats.negative_durations += 1
            self._negative_counter.inc()
            return
        self._stats.matched[stage] += 1
        meta = self._meta.peek(seq)
        msg_type, src = (meta[0], meta[1]) if meta else ("", "")
        updates.append((
            self._histogram(
                "message_stage_seconds", "per-stage message lifecycle latency",
                stage=stage, type=msg_type,
            ),
            duration,
        ))
        if dst is not None:
            updates.append((
                self._histogram(
                    "message_edge_stage_seconds",
                    "per-(src_role,type,dst_role) lifecycle latency",
                    stage=stage, src_role=role_of(src), type=msg_type,
                    dst_role=role_of(dst),
                ),
                duration,
            ))
            self._note_record(seq, msg_type, src, dst, stage, duration)

    def _histogram(self, metric: str, help: str, **labels: str):
        """The registry histogram ``metric{labels}``, resolved once."""
        key = (metric, *labels.values())
        histogram = self._histograms.get(key)
        if histogram is None:
            histogram = self._histograms[key] = self.registry.histogram(
                metric, labels, help=help, **self._hist_kwargs
            )
        return histogram

    def _note_record(
        self, seq: int, msg_type: str, src: str, dst: str, stage: str, duration: float
    ) -> None:
        key = (seq, dst)
        durations = self._records.get(key)
        if durations is None:
            durations = {}
            self._records[key] = durations
            self._record_meta[key] = (msg_type, src)
            if len(self._records) > self._max_records:
                old_key, _ = self._records.popitem(last=False)
                self._record_meta.pop(old_key, None)
        durations[stage] = duration
        self._edges.add((src, msg_type, dst))

    def _sync_evictions(self) -> None:
        """Fold _PendingMap evictions into per-stage counters.

        An evicted ``sent`` start breaks both sent-anchored stages; the
        accounting charges it to ``deliver`` (the end-to-end stage) to avoid
        double counting.
        """
        for pending, stage in (
            (self._sent, "deliver"),
            (self._routed, "route"),
            (self._delivered, "consume"),
        ):
            while pending.evicted > 0:
                pending.evicted -= 1
                self._stats.evicted_starts[stage] += 1
                self._evicted_counter[stage].inc()

    # -- reads -------------------------------------------------------------
    def stats(self) -> SpanStats:
        with self._lock:
            return SpanStats(
                matched=dict(self._stats.matched),
                unmatched_ends=dict(self._stats.unmatched_ends),
                evicted_starts=dict(self._stats.evicted_starts),
                terminated=dict(self._stats.terminated),
                negative_durations=self._stats.negative_durations,
            )

    def records(self) -> List[SpanRecord]:
        """Completed spans (bounded, newest-first eviction order)."""
        with self._lock:
            out = []
            for (seq, dst), durations in self._records.items():
                msg_type, src = self._record_meta.get((seq, dst), ("", ""))
                out.append(
                    SpanRecord(
                        seq=seq,
                        msg_type=msg_type,
                        src=src,
                        dst=dst,
                        durations=tuple(sorted(durations.items())),
                    )
                )
            return out

    def edges(self) -> List[Tuple[str, str, str]]:
        """Observed (src, msg_type, dst) endpoint-name triples, sorted."""
        with self._lock:
            return sorted(self._edges)

    def pending_counts(self) -> Dict[str, int]:
        with self._lock:
            return {
                "sent": len(self._sent),
                "routed": len(self._routed),
                "delivered": len(self._delivered),
            }
