"""The hop log: one process-wide event stream for every message hop.

Each hop of a message's life is observed by exactly one call —
:func:`emit` (or :func:`emit_many` for a whole wake-up's batch) — which
takes the header(s) the hop already holds; every field a consumer reads
(``seq``, ``trace``, ``span``, ``src``, ``dst``, ``type``, ``body_size``)
is in the header.  The kinds are ``sent``, ``routed``, ``delivered``,
``consumed``, the terminal outcomes ``shed`` / ``expired`` / ``rejected``
and explicit ``stage_begin`` / ``stage_end`` pairs
(docs/OBSERVABILITY.md has the kind × thread × consumer table).

The log feeds two views of the same stream:

* the **ring** — always on: a preallocated ``bytearray`` of fixed 32-byte
  struct-packed records (timestamp, interned kind and source ids, seq,
  trace id).  Emitting is one clock read and one ``pack_into`` per record
  under one lock per call: no allocation, no serialization.  On
  ``TrainingFailedError``, a ``BackpressureError`` escalation, a broker
  shutdown-audit failure or ``SIGUSR2`` the ring is dumped to
  ``flightrec/*.bin`` (override with ``REPRO_FLIGHTREC_DIR``) for
  ``python -m repro.obs.trace`` to merge; ``REPRO_FLIGHTREC=0`` disables
  the ring, ``REPRO_FLIGHTREC_CAPACITY`` sizes it.
* **subscribers** — only while one is attached does the log also build the
  detailed :class:`TraceEvent` of each record and hand the call's batch
  over.  :class:`Tracer` is the stock subscriber (a bounded buffer);
  telemetry attaches one, and its span aggregator, for the length of a run.

A coalesced BATCH envelope stands for its sub-messages: the log expands
its ``BATCH_SEQS`` into one record per sub-message, so every view sees the
seqs that were ``sent`` and will be ``delivered``, never the envelope's.
Stage events describe the one transfer that carried the envelope and are
not expanded.

Stdlib plus :mod:`repro.core.message` constants only, so every layer can
import it.
"""

from __future__ import annotations

import json
import logging
import os
import signal
import struct
import threading
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Deque, Dict, Iterable, List, Optional, Sequence, Tuple,
)

from .concurrency import make_lock
from .message import BATCH_SEQS, BODY_SIZE, DST, SEQ, SPAN, SRC, TRACE, TYPE

_LOGGER = logging.getLogger(__name__)

#: dump-file magic + schema tag (bump together when the record layout changes)
MAGIC = b"FREC1\n"
FLIGHTREC_SCHEMA = "repro.flightrec/v1"

#: one record: ts (f64 monotonic), kind id (u32), source id (u32),
#: seq (i64, -1 when absent), trace id (u64, 0 when absent)
RECORD = struct.Struct("<dIIqQ")
RECORD_SIZE = RECORD.size

#: default ring capacity in records (8192 * 32 B = 256 KiB per process)
DEFAULT_CAPACITY = 8192

#: the interned-name table is bounded; overflow maps to id 0 ("?")
_MAX_INTERNED = 4096
_U64 = 0xFFFFFFFFFFFFFFFF

#: the hops of a message that arrives, in causal order ...
LIFECYCLE_KINDS = ("sent", "routed", "delivered", "consumed")
#: ... and the outcomes of one that will not: it never sees "delivered" /
#: "consumed", so span aggregation and the trace merger close its chain
#: instead of leaking it
TERMINAL_KINDS = TERMINAL_SHED, TERMINAL_EXPIRED, TERMINAL_REJECTED = (
    "shed", "expired", "rejected",
)
#: kinds that describe one transfer, not one message: never BATCH-expanded
_STAGE_KINDS = frozenset({"stage_begin", "stage_end"})

_ENV_ENABLE = "REPRO_FLIGHTREC"
_ENV_CAPACITY = "REPRO_FLIGHTREC_CAPACITY"
_ENV_DIR = "REPRO_FLIGHTREC_DIR"


@dataclass
class TraceEvent:
    """One hop as subscribers see it."""

    timestamp: float
    kind: str
    source: str
    detail: Dict[str, Any] = field(default_factory=dict)


#: called with the events of one ``emit``/``emit_many`` call, on the
#: emitting thread; must be thread-safe and cheap
Subscriber = Callable[[List[TraceEvent]], None]


def _detail(header: Dict[str, Any], extra: Dict[str, Any]) -> Dict[str, Any]:
    """A hop's detail: the header's identifying fields, then ``extra``."""
    if not header:
        return dict(extra)
    dst = header.get(DST)
    detail = {
        "seq": header.get(SEQ),
        "trace": header.get(TRACE),
        "span": header.get(SPAN),
        "src": header.get(SRC),
        "dst": ",".join(dst) if dst else "",
        "type": str(header.get(TYPE)),
        "nbytes": header.get(BODY_SIZE, 0),
    }
    if extra:
        detail.update(extra)
    return detail


class _Ring:
    """The record ring and its interned-name table; replaced whole on
    reconfiguration so an emitter never sees half of two rings."""

    __slots__ = ("capacity", "buf", "head", "lock", "names", "name_ids")

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.buf = bytearray(capacity * RECORD_SIZE)
        self.head = 0  # total records ever written
        self.lock = threading.Lock()
        #: kinds and sources share one table; id 0 is its overflow bucket
        self.names: List[str] = ["?"]
        self.name_ids: Dict[str, int] = {"?": 0}

    def ids(self, kind: str, source: str, extra: Dict[str, Any]) -> Tuple[int, int]:
        """Interned ids of a record; a stage event's ``stage`` is kept by
        folding it into the kind."""
        if extra and "stage" in extra:
            kind = f"{kind}:{extra['stage']}"
        # Fast path: dict reads are atomic in CPython; misses take the lock.
        kind_id = self.name_ids.get(kind)
        if kind_id is None:
            kind_id = self._intern(kind)
        source_id = self.name_ids.get(source)
        if source_id is None:
            source_id = self._intern(source)
        return kind_id, source_id

    def _intern(self, name: str) -> int:
        with self.lock:
            if name not in self.name_ids and len(self.names) < _MAX_INTERNED:
                self.name_ids[name] = len(self.names)
                self.names.append(name)
            return self.name_ids.get(name, 0)

    def snapshot(self) -> Tuple[bytes, int, List[str]]:
        """Chronologically-ordered copy of the records + the name table."""
        with self.lock:
            head = self.head
            if head <= self.capacity:
                data = bytes(self.buf[: head * RECORD_SIZE])
            else:
                split = (head % self.capacity) * RECORD_SIZE
                data = bytes(self.buf[split:]) + bytes(self.buf[:split])
            return data, head, list(self.names)


class HopLog:
    """The event stream of one process: an always-on ring plus subscribers.

    The process-wide instance is :data:`HOP_LOG`; tests build private ones
    to pin a clock or a capacity.
    """

    def __init__(
        self,
        process: str = "",
        capacity: Optional[int] = None,
        clock: Callable[[], float] = time.monotonic,
        *,
        enabled: Optional[bool] = None,
    ):
        self._clock = clock
        self._subscribers: Tuple[Subscriber, ...] = ()
        self._dumps = 0
        #: guards the subscriber tuple and the dump counter
        self._lock = threading.Lock()
        self.configure(enabled=enabled, capacity=capacity, process=process)

    def configure(
        self,
        *,
        enabled: Optional[bool] = None,
        capacity: Optional[int] = None,
        process: Optional[str] = None,
    ) -> Optional["HopLog"]:
        """Start a fresh ring — or none, when not ``enabled`` — keeping the
        subscribers; unset arguments come from the environment.  Returns
        the log, or ``None`` when it now keeps no ring."""
        if enabled is None:
            enabled = os.environ.get(_ENV_ENABLE, "1") != "0"
        if capacity is None:
            capacity = _env_capacity()
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.process = process or f"pid{os.getpid()}"
        self._ring: Optional[_Ring] = _Ring(int(capacity)) if enabled else None
        return self if enabled else None

    # -- subscribers ----------------------------------------------------------
    @property
    def subscribers(self) -> Tuple[Subscriber, ...]:
        """Who is attached now (empty: hops cost their ring record only)."""
        return self._subscribers

    def subscribe(self, subscriber: Subscriber) -> None:
        with self._lock:
            if subscriber not in self._subscribers:
                self._subscribers += (subscriber,)

    def unsubscribe(self, subscriber: Subscriber) -> None:
        with self._lock:
            self._subscribers = tuple(
                held for held in self._subscribers if held != subscriber
            )

    def _publish(
        self, subscribers: Tuple[Subscriber, ...], events: List[TraceEvent]
    ) -> None:
        for subscriber in subscribers:
            try:
                subscriber(events)
            except Exception:  # noqa: BLE001 - a broken subscriber must not kill senders
                _LOGGER.exception("hop-log subscriber %r raised; detached", subscriber)
                self.unsubscribe(subscriber)

    # -- hot path -------------------------------------------------------------
    def emit(
        self,
        kind: str,
        source: str,
        header: Optional[Dict[str, Any]] = None,
        **extra: Any,
    ) -> None:
        """Record one hop of the message ``header`` describes.

        ``extra`` (``stage=``, a narrowed ``dst=``, a wire ``nbytes=``)
        overrides the header's fields in the subscriber view; ``stage`` is
        also kept by the ring.
        """
        ring = self._ring
        if (
            ring is None or self._subscribers
            or not header or header.get(BATCH_SEQS)
        ):
            self.emit_many(kind, source, (header or {},), **extra)
            return
        # The common case — one plain header into the ring, nobody listening.
        kind_id, source_id = ring.ids(kind, source, extra)
        seq = header.get(SEQ)
        ts = self._clock()
        with ring.lock:
            RECORD.pack_into(
                ring.buf, (ring.head % ring.capacity) * RECORD_SIZE, ts,
                kind_id, source_id, -1 if seq is None else seq,
                (header.get(TRACE) or 0) & _U64,
            )
            ring.head += 1

    def emit_many(
        self,
        kind: str,
        source: str,
        headers: Sequence[Dict[str, Any]],
        **extra: Any,
    ) -> None:
        """Record the same hop for every header of a batch, all stamped
        with one clock read under one lock acquisition: a thread holding a
        whole wake-up's batch pays the fixed cost once."""
        ring = self._ring
        subscribers = self._subscribers
        if not headers or (ring is None and not subscribers):
            return
        ts = self._clock()
        expand = kind not in _STAGE_KINDS
        if ring is not None:
            kind_id, source_id = ring.ids(kind, source, extra)
            buf, capacity, pack_into = ring.buf, ring.capacity, RECORD.pack_into
            with ring.lock:
                head = ring.head
                for header in headers:
                    subs = header.get(BATCH_SEQS) if expand else None
                    if not subs:
                        seq = header.get(SEQ)
                        pack_into(
                            buf, (head % capacity) * RECORD_SIZE, ts, kind_id,
                            source_id, -1 if seq is None else seq,
                            (header.get(TRACE) or 0) & _U64,
                        )
                        head += 1
                        continue
                    for seq, trace in subs:
                        pack_into(
                            buf, (head % capacity) * RECORD_SIZE, ts, kind_id,
                            source_id, -1 if seq is None else seq,
                            (trace or 0) & _U64,
                        )
                        head += 1
                ring.head = head
        if subscribers:
            events: List[TraceEvent] = []
            for header in headers:
                detail = _detail(header, extra)
                subs = header.get(BATCH_SEQS) if expand else None
                if not subs:
                    events.append(TraceEvent(ts, kind, source, detail))
                    continue
                for seq, trace in subs:
                    events.append(TraceEvent(
                        ts, kind, source,
                        {**detail, "seq": seq, "trace": trace, "span": None},
                    ))
            self._publish(subscribers, events)

    # -- the ring, read back ----------------------------------------------------
    @property
    def enabled(self) -> bool:
        """Whether this log keeps a ring (``REPRO_FLIGHTREC`` != 0)."""
        return self._ring is not None

    @property
    def total(self) -> int:
        """Records ever written (overwritten ones included)."""
        ring = self._ring
        return 0 if ring is None else ring.head

    @property
    def count(self) -> int:
        """Records currently held (≤ capacity)."""
        ring = self._ring
        return 0 if ring is None else min(ring.head, ring.capacity)

    def events(self) -> List[Dict[str, Any]]:
        """Decode the ring into event dicts (oldest first)."""
        ring = self._ring
        if ring is None:
            return []
        data, head, names = ring.snapshot()
        return _decode_records(data, min(head, ring.capacity), names, names)

    def dump(self, path: str, reason: str = "manual") -> str:
        """Write the ring to ``path`` (magic + JSON meta + raw records)."""
        ring = self._ring
        assert ring is not None, "this hop log keeps no ring to dump"
        data, head, names = ring.snapshot()
        meta = {
            "format": FLIGHTREC_SCHEMA,
            "process": self.process,
            "pid": os.getpid(),
            "reason": reason,
            "capacity": ring.capacity,
            "count": min(head, ring.capacity),
            "total": head,
            "overwritten": max(0, head - ring.capacity),
            # One interned table serves both id columns of a record.
            "kinds": names,
            "sources": names,
            # Paired readings let the merger map monotonic ts to wall time.
            "wall_time": time.time(),
            "mono_time": self._clock(),
        }
        payload = json.dumps(meta, sort_keys=True).encode("utf-8")
        with open(path, "wb") as handle:
            handle.write(MAGIC)
            handle.write(struct.pack("<I", len(payload)))
            handle.write(payload)
            handle.write(data)
        return path

    def dump_all(self, reason: str, directory: Optional[str] = None) -> Optional[str]:
        """Dump the ring to a fresh file in ``directory`` (best-effort).

        Called from failure paths, so it must never raise: an unwritable
        directory logs a warning and returns ``None``.
        """
        if self._ring is None:
            return None
        with self._lock:  # concurrent escalations get distinct file names
            self._dumps += 1
            number = self._dumps
        directory = directory or dump_dir()
        path = os.path.join(
            directory, f"{self.process}-{os.getpid()}-{reason}-{number}.bin"
        )
        try:
            os.makedirs(directory, exist_ok=True)
            self.dump(path, reason)
        except OSError as exc:
            _LOGGER.warning("flight recorder dump to %s failed: %s", path, exc)
            return None
        _LOGGER.warning("flight recorder dumped to %s (reason: %s)", path, reason)
        return path


def _decode_records(
    data: bytes, count: int, kinds: List[str], sources: List[str]
) -> List[Dict[str, Any]]:
    events: List[Dict[str, Any]] = []
    for index in range(count):
        ts, kind_id, source_id, seq, trace = RECORD.unpack_from(
            data, index * RECORD_SIZE
        )
        kind = kinds[kind_id] if kind_id < len(kinds) else "?"
        source = sources[source_id] if source_id < len(sources) else "?"
        detail: Dict[str, Any] = {}
        if seq >= 0:
            detail["seq"] = seq
        if trace:
            detail["trace"] = trace
        kind, _, stage = kind.partition(":")
        if stage:
            detail["stage"] = stage
        events.append(
            {"ts": ts, "kind": kind, "source": source, "detail": detail}
        )
    return events


def load_dump(path: str) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Read a dump file back as ``(meta, events)`` (oldest event first)."""
    with open(path, "rb") as handle:
        magic = handle.read(len(MAGIC))
        if magic != MAGIC:
            raise ValueError(f"{path}: not a flight-recorder dump")
        (meta_len,) = struct.unpack("<I", handle.read(4))
        meta = json.loads(handle.read(meta_len).decode("utf-8"))
        data = handle.read()
    count = min(int(meta.get("count", 0)), len(data) // RECORD_SIZE)
    events = _decode_records(
        data, count, list(meta.get("kinds", [])), list(meta.get("sources", []))
    )
    return meta, events


#: schema tag of a JSONL trace file (see :mod:`repro.obs.trace.events`)
TRACE_SCHEMA = "repro.trace/v1"


def event_to_dict(event: Any) -> Dict[str, Any]:
    """Normalize a :class:`~repro.core.tracing.TraceEvent` (or dict)."""
    if isinstance(event, dict):
        return {
            "ts": float(event.get("ts", 0.0)),
            "kind": str(event.get("kind", "")),
            "source": str(event.get("source", "")),
            "detail": dict(event.get("detail") or {}),
        }
    return {
        "ts": float(event.timestamp),
        "kind": str(event.kind),
        "source": str(event.source),
        "detail": dict(event.detail),
    }


def write_events(
    path: str, events: Iterable[Any], *, process: Optional[str] = None
) -> str:
    """Write a JSONL trace file (its meta line first)."""
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    header: Dict[str, Any] = {"format": TRACE_SCHEMA}
    if process:
        header["process"] = process
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"meta": header}, sort_keys=True) + "\n")
        for event in events:
            handle.write(
                json.dumps(event_to_dict(event), sort_keys=True, default=str)
                + "\n"
            )
    return path


class Tracer:
    """The stock hop-log subscriber: a bounded in-memory event buffer.

    Anything that must see *every* event, however far the buffer has
    wrapped, subscribes to the log itself (the span aggregator does).
    """

    def __init__(self, capacity: int = 10_000):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._events: Deque[TraceEvent] = deque(maxlen=capacity)
        self._lock = make_lock("tracer")
        self._log: Optional[HopLog] = None

    def attach(self, log: Optional[HopLog] = None) -> "Tracer":
        """Start receiving ``log``'s events (the process-wide log's unless
        told otherwise)."""
        self.detach()
        self._log = HOP_LOG if log is None else log
        self._log.subscribe(self._observe)
        return self

    def detach(self) -> None:
        if self._log is not None:
            self._log.unsubscribe(self._observe)
            self._log = None

    def _observe(self, events: Iterable[TraceEvent]) -> None:
        with self._lock:
            self._events.extend(events)

    # -- queries -----------------------------------------------------------
    def events(
        self,
        kind: Optional[str] = None,
        source: Optional[str] = None,
    ) -> List[TraceEvent]:
        with self._lock:
            snapshot = list(self._events)
        return [
            event
            for event in snapshot
            if (kind is None or event.kind == kind)
            and (source is None or event.source == source)
        ]

    def count(self, kind: Optional[str] = None) -> int:
        return len(self.events(kind=kind))

    def kinds(self) -> Dict[str, int]:
        return dict(Counter(event.kind for event in self.events()))

    def clear(self) -> None:
        with self._lock:
            self._events.clear()

    def format(self, limit: int = 50) -> str:
        snapshot = self.events()[-limit:]
        if not snapshot:
            return "(no trace events)"
        origin = snapshot[0].timestamp
        lines = []
        for event in snapshot:
            detail = " ".join(f"{k}={v}" for k, v in event.detail.items())
            lines.append(
                f"+{event.timestamp - origin:9.4f}s  {event.kind:<12} "
                f"{event.source:<24} {detail}"
            )
        return "\n".join(lines)


# -- the process-wide log ------------------------------------------------------
def _env_capacity() -> int:
    try:
        return max(1, int(os.environ.get(_ENV_CAPACITY, DEFAULT_CAPACITY)))
    except ValueError:
        return DEFAULT_CAPACITY


def dump_dir() -> str:
    return os.environ.get(_ENV_DIR, "flightrec")


HOP_LOG = HopLog()
#: the one call per hop (see the module docstring)
emit = HOP_LOG.emit
emit_many = HOP_LOG.emit_many
#: restart the process-wide ring (tests and operators only)
configure = HOP_LOG.configure
#: dump the process-wide ring: ``dump_all(reason, directory=None)``
dump_all = HOP_LOG.dump_all


def _reset_after_fork() -> None:
    """A forked child starts its own stream: a fresh ring instead of a
    copy of the parent's, fresh locks (another thread may have held one at
    the fork) and none of the parent's subscribers."""
    HOP_LOG._lock = threading.Lock()
    HOP_LOG._subscribers = ()
    configure()


os.register_at_fork(after_in_child=_reset_after_fork)


def set_process(name: str) -> None:
    """Label this process's log (shows up in dump metadata)."""
    HOP_LOG.process = name


def install_signal_handler() -> bool:
    """Dump the ring on ``SIGUSR2``; best-effort (main thread only)."""
    if not HOP_LOG.enabled:
        return False
    try:
        signal.signal(signal.SIGUSR2, lambda signum, frame: dump_all("sigusr2"))
    except (ValueError, AttributeError, OSError):
        return False  # non-main thread, or platform without SIGUSR2
    return True
