"""The hop log: one process-wide ring of packed records, one per message hop.

Each hop of a message's life is recorded by exactly one call —
:func:`emit` (or :func:`emit_many` for a whole wake-up's batch) — which
takes the header(s) the hop already holds and packs one fixed 32-byte
record per message into a preallocated ring: timestamp, interned kind and
source, the message's type and its single (or narrowed) destination where
those are news, ``seq`` and trace id.  That is all an emitter ever does —
one clock read and one ``pack_into`` per record under the ring's lock, no
allocation — whoever is or is not looking.  The kinds are ``sent``,
``routed``, ``delivered``, ``consumed``, the terminal outcomes ``shed`` /
``expired`` / ``rejected`` and explicit ``stage_begin`` / ``stage_end``
pairs (docs/OBSERVABILITY.md has the kind × thread × consumer table).

The ring is the interface.  A consumer attaches a :class:`Reader` — a
cursor: "the records since my last read", with an exact count of the ones
the ring overwrote first — and decodes what it reads on its own thread:
:class:`Tracer` is a reader plus a bounded buffer with a query API, the
span aggregator of :mod:`repro.obs.spans` polls one from the telemetry
sampler's sweep.  On ``TrainingFailedError``, a ``BackpressureError``
escalation, a broker shutdown-audit failure or ``SIGUSR2`` the ring is
dumped to ``flightrec/*.bin`` (override with ``REPRO_FLIGHTREC_DIR``) for
``python -m repro.obs.trace`` to merge; ``REPRO_FLIGHTREC=0`` disables the
ring, ``REPRO_FLIGHTREC_CAPACITY`` sizes it.

A coalesced BATCH envelope stands for its sub-messages: the log expands
its ``BATCH_SEQS`` into one record per sub-message, so every reader sees
the seqs that were ``sent`` and will be ``delivered``, never the
envelope's.  Stage events describe the one transfer that carried the
envelope and are not expanded.

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
from .errors import ConfigError
from .message import BATCH_SEQS, DST, SEQ, TRACE, TYPE

_LOGGER = logging.getLogger(__name__)

#: dump-file magic + schema tag (bump together when the record layout changes)
MAGIC = b"FREC2\n"
FLIGHTREC_SCHEMA = "repro.flightrec/v2"

#: one record: ts (f64 monotonic); interned kind, source, message type and
#: destination ids (u16 each; 0 in the last two when absent); seq (i64, -1
#: when absent); trace id (u64, 0 when absent)
RECORD = struct.Struct("<dHHHHqQ")
RECORD_SIZE = RECORD.size

#: default ring capacity in records (8192 * 32 B = 256 KiB per process)
DEFAULT_CAPACITY = 8192

#: the interned-name table is bounded; overflow maps to id 0 ("?")
_MAX_INTERNED = 4096
_U64 = 0xFFFFFFFFFFFFFFFF

#: the hops of a message that arrives, in causal order ...
LIFECYCLE_KINDS = ("sent", "routed", "delivered", "consumed")
#: ... and the outcomes of one that will not: it never sees "delivered" /
#: "consumed", so the span correlator closes its chain instead of leaking it
TERMINAL_KINDS = TERMINAL_SHED, TERMINAL_EXPIRED, TERMINAL_REJECTED = (
    "shed", "expired", "rejected",
)
#: kinds that describe one transfer, not one message: never BATCH-expanded
_STAGE_KINDS = frozenset({"stage_begin", "stage_end"})
#: kinds whose type and destination the chain's ``sent`` already told:
#: their records leave both columns 0 and pay for no lookup.  Every ring
#: interns them first, so a kind id up to ``_LAST_PLAIN_ID`` says "plain"
#: (0, the overflow bucket, has no name to describe either)
_PLAIN_KINDS = LIFECYCLE_KINDS[1:]
_LAST_PLAIN_ID = len(_PLAIN_KINDS)

_ENV_ENABLE = "REPRO_FLIGHTREC"
_ENV_CAPACITY = "REPRO_FLIGHTREC_CAPACITY"
_ENV_DIR = "REPRO_FLIGHTREC_DIR"


class _Ring:
    """The record ring and its interned-name table; replaced whole on
    reconfiguration so an emitter never sees half of two rings."""

    __slots__ = ("capacity", "buf", "head", "lock", "names", "name_ids")

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.buf = bytearray(capacity * RECORD_SIZE)
        self.head = 0  # total records ever written
        self.lock = threading.Lock()
        #: every id column shares one table; id 0 is its overflow bucket
        self.names: List[str] = ["?", *_PLAIN_KINDS]
        self.name_ids: Dict[Any, int] = {name: i for i, name in enumerate(self.names)}

    def ids(
        self, kind: str, source: str, header: Optional[Dict[str, Any]],
        extra: Dict[str, Any],
    ) -> Tuple[int, int, int, int]:
        """Interned ``(kind, source, type, destination)`` ids of a record.
        A stage event's ``stage`` is kept by folding it into the kind; type
        and destination — the one the header names, a narrowed ``dst=``
        first — are 0 when absent and for the plain kinds."""
        if extra and "stage" in extra:
            kind = f"{kind}:{extra['stage']}"
        # Fast path: dict reads are atomic in CPython; misses take the lock.
        name_ids = self.name_ids
        if (kind_id := name_ids.get(kind)) is None:
            kind_id = self._intern(kind)
        if (source_id := name_ids.get(source)) is None:
            source_id = self._intern(source)
        if kind_id <= _LAST_PLAIN_ID or not header:
            return kind_id, source_id, 0, 0
        type_id = dst_id = 0
        msg_type = header.get(TYPE)
        if msg_type is not None and (type_id := name_ids.get(msg_type)) is None:
            type_id = self._intern(msg_type)
        dst = extra.get("dst") if extra else None
        if dst is None and len(named := header.get(DST) or ()) == 1:
            dst = named[0]
        if dst and (dst_id := name_ids.get(dst)) is None:
            dst_id = self._intern(dst)
        return kind_id, source_id, type_id, dst_id

    def _intern(self, name: Any) -> int:
        with self.lock:
            if name not in self.name_ids and len(self.names) < _MAX_INTERNED:
                self.name_ids[name] = len(self.names)
                self.names.append(str(name))
            return self.name_ids.get(name, 0)

    def copy(self, start: int) -> Tuple[bytes, int, int]:
        """The records from ``start`` on that the ring still holds, oldest
        first, as ``(data, head, overwritten)``."""
        with self.lock, memoryview(self.buf) as view:
            head = self.head
            first = max(start, head - self.capacity)
            begin = (first % self.capacity) * RECORD_SIZE
            end = begin + (head - first) * RECORD_SIZE
            data = bytes(view[begin:end])
            if end > len(view):  # the span wraps
                data += bytes(view[: end - len(view)])
            return data, head, first - start


class Reader:
    """A cursor on a hop log: :meth:`read` returns what was recorded since
    the last read.  Loss is never silent — :attr:`missed` counts, exactly,
    the records that were overwritten (or retired with their ring) unread.

    One reader serves one consumer; a consumer read from several threads
    serializes them itself.
    """

    def __init__(self, log: "HopLog", capacity: int, ring: _Ring):
        self._log = log
        #: the ring holds at least this many records while this is attached
        self.capacity = capacity
        self.missed = 0
        self._ring: Optional[_Ring] = ring
        self._cursor = ring.head

    def read(self) -> Tuple[bytes, Sequence[str]]:
        """``(records, names)``: packed :data:`RECORD` rows, oldest first,
        and the table their id columns index.  When ``configure()`` or a
        larger reader swapped the ring it restarts on the new one."""
        ring = self._log._ring
        if ring is not self._ring:
            if self._ring is not None:
                self.missed += self._ring.head - self._cursor
            self._ring, self._cursor = ring, 0
        if ring is None:
            return b"", ()
        data, self._cursor, missed = ring.copy(self._cursor)
        self.missed += missed
        return data, ring.names

    def close(self) -> None:
        with self._log._lock:
            self._log.readers = tuple(r for r in self._log.readers if r is not self)


class HopLog:
    """The event stream of one process: a ring of records and its readers.

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
        #: who is attached now (emitting costs the same either way)
        self.readers: Tuple[Reader, ...] = ()
        self._dumps = 0
        #: guards the reader tuple, ring swaps and the dump counter
        self._lock = threading.Lock()
        self.configure(enabled=enabled, capacity=capacity, process=process)

    def configure(
        self,
        *,
        enabled: Optional[bool] = None,
        capacity: Optional[int] = None,
        process: Optional[str] = None,
    ) -> Optional["HopLog"]:
        """Start a fresh ring — or none, when not ``enabled`` — no smaller
        than any attached reader asked for; unset arguments come from the
        environment.  Returns the log, or ``None`` when it now keeps no
        ring."""
        if enabled is None:
            enabled = os.environ.get(_ENV_ENABLE, "1") != "0"
        if capacity is None:
            capacity = _env_capacity()
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.process = process or f"pid{os.getpid()}"
        with self._lock:
            capacity = max([int(capacity)] + [r.capacity for r in self.readers])
            self._ring: Optional[_Ring] = _Ring(capacity) if enabled else None
        return self if enabled else None

    def reader(self, capacity: int = 0) -> Reader:
        """Attach a cursor at the ring's head.  ``capacity`` is how many
        records the consumer may leave unread: a smaller ring is swapped
        for one that holds them."""
        with self._lock:
            ring = self._ring
            if ring is None:
                raise ConfigError(
                    f"this hop log keeps no ring ({_ENV_ENABLE}=0): "
                    "there is nothing for a reader to observe"
                )
            if ring.capacity < capacity:
                ring = self._ring = _Ring(capacity)
            attached = Reader(self, capacity, ring)
            self.readers += (attached,)
        return attached

    # -- hot path -------------------------------------------------------------
    def emit(
        self,
        kind: str,
        source: str,
        header: Optional[Dict[str, Any]] = None,
        **extra: Any,
    ) -> None:
        """Record one hop of the message ``header`` describes.

        Of ``extra`` the record keeps ``stage=`` and a narrowed ``dst=``.
        """
        ring = self._ring
        if ring is None:
            return
        if not header or header.get(BATCH_SEQS):
            self.emit_many(kind, source, (header or {},), **extra)
            return
        # The common case — one plain header.
        kind_id, source_id, type_id, dst_id = ring.ids(kind, source, header, extra)
        seq = header.get(SEQ)
        ts = self._clock()
        with ring.lock:
            RECORD.pack_into(
                ring.buf, (ring.head % ring.capacity) * RECORD_SIZE, ts,
                kind_id, source_id, type_id, dst_id,
                -1 if seq is None else seq, (header.get(TRACE) or 0) & _U64,
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
        if ring is None or not headers:
            return
        ts = self._clock()
        expand = kind not in _STAGE_KINDS
        kind_id, source_id, type_id, dst_id = ring.ids(kind, source, None, extra)
        # Interning takes the ring's lock: look each header up before it.
        described = None if kind_id <= _LAST_PLAIN_ID else iter(
            [ring.ids(kind, source, header, extra)[2:] for header in headers]
        )
        buf, capacity, pack_into = ring.buf, ring.capacity, RECORD.pack_into
        with ring.lock:
            head = ring.head
            for header in headers:
                if described is not None:
                    type_id, dst_id = next(described)
                subs = header.get(BATCH_SEQS) if expand else None
                if not subs:
                    seq = header.get(SEQ)
                    pack_into(
                        buf, (head % capacity) * RECORD_SIZE, ts, kind_id,
                        source_id, type_id, dst_id, -1 if seq is None else seq,
                        (header.get(TRACE) or 0) & _U64,
                    )
                    head += 1
                    continue
                for seq, trace in subs:
                    pack_into(
                        buf, (head % capacity) * RECORD_SIZE, ts, kind_id,
                        source_id, type_id, dst_id, -1 if seq is None else seq,
                        (trace or 0) & _U64,
                    )
                    head += 1
            ring.head = head

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
        return decode_records(ring.copy(0)[0], ring.names)

    def dump(self, path: str, reason: str = "manual") -> str:
        """Write the ring to ``path`` (magic + JSON meta + raw records)."""
        ring = self._ring
        assert ring is not None, "this hop log keeps no ring to dump"
        data, head, overwritten = ring.copy(0)
        meta = {
            "format": FLIGHTREC_SCHEMA,
            "process": self.process,
            "pid": os.getpid(),
            "reason": reason,
            "capacity": ring.capacity,
            "count": len(data) // RECORD_SIZE,
            "total": head,
            "overwritten": overwritten,
            # Copied after the records: it names every id they hold.
            "names": list(ring.names),
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


#: packed records as ``(ts, kind, source, msg_type, dst, seq, trace)`` rows;
#: the four after ``ts`` are ids into the name table read with them (0: no
#: type, no destination; a stage event's kind name carries its ``:stage``)
unpack_records = RECORD.iter_unpack


def decode_records(data: bytes, names: Sequence[str]) -> List[Dict[str, Any]]:
    """Packed records as event dicts ``{"ts", "kind", "source", "detail"}``
    — the one decoded shape: what a trace file holds and the merger takes."""
    events: List[Dict[str, Any]] = []
    known = len(names)
    for ts, kind, source, msg_type, dst, seq, trace in unpack_records(data):
        # A dump file's ids come from outside the program: out of range is "?".
        kind, _, stage = (names[kind] if kind < known else "?").partition(":")
        detail: Dict[str, Any] = {}
        if seq >= 0:
            detail["seq"] = seq
        if trace:
            detail["trace"] = trace
        if 0 < msg_type < known:
            detail["type"] = names[msg_type]
        if 0 < dst < known:
            detail["dst"] = names[dst]
        if stage:
            detail["stage"] = stage
        events.append({
            "ts": ts, "kind": kind, "detail": detail,
            "source": names[source] if source < known else "?",
        })
    return events


def load_dump(path: str) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Read a dump file back as ``(meta, events)`` (oldest event first)."""
    with open(path, "rb") as handle:
        magic = handle.read(len(MAGIC))
        if magic != MAGIC:
            raise ValueError(
                f"{path}: not a flight-recorder dump of this layout "
                f"(magic {magic!r}, expected {MAGIC!r})"
            )
        (meta_len,) = struct.unpack("<I", handle.read(4))
        meta = json.loads(handle.read(meta_len).decode("utf-8"))
        data = handle.read()
    if meta.get("format") != FLIGHTREC_SCHEMA:
        raise ValueError(
            f"{path}: dump schema {meta.get('format')!r}, expected {FLIGHTREC_SCHEMA!r}"
        )
    if len(data) != int(meta.get("count", -1)) * RECORD_SIZE:
        raise ValueError(
            f"{path}: {len(data)} bytes of records, expected "
            f"{meta.get('count')} x {RECORD_SIZE}"
        )
    return meta, decode_records(data, meta.get("names", []))


#: schema tag of a JSONL trace file (see :mod:`repro.obs.trace.events`)
TRACE_SCHEMA = "repro.trace/v1"


def write_events(
    path: str, events: Iterable[Dict[str, Any]], *, process: Optional[str] = None
) -> str:
    """Write event dicts as a JSONL trace file (its meta line first)."""
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    header: Dict[str, Any] = {"format": TRACE_SCHEMA}
    if process:
        header["process"] = process
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"meta": header}, sort_keys=True) + "\n")
        for event in events:
            handle.write(json.dumps(event, sort_keys=True, default=str) + "\n")
    return path


@dataclass
class TraceEvent:
    """One hop as :meth:`Tracer.events` hands it out."""

    timestamp: float
    kind: str
    source: str
    detail: Dict[str, Any] = field(default_factory=dict)


class Tracer:
    """A reader with a memory: the newest ``capacity`` events recorded
    while it was attached, behind a query API.

    Attaching sizes the ring to ``capacity`` records, so the buffer is
    filled on demand — by a query, or at :meth:`detach` — and nothing
    decodes while traffic flows.
    """

    def __init__(self, capacity: int = 10_000):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._events: Deque[Dict[str, Any]] = deque(maxlen=capacity)
        self._lock = make_lock("tracer")
        self._reader: Optional[Reader] = None

    def attach(self, log: Optional[HopLog] = None) -> "Tracer":
        """Start keeping ``log``'s events (the process-wide log's unless
        told otherwise)."""
        self.detach()
        with self._lock:
            self._reader = (HOP_LOG if log is None else log).reader(self._events.maxlen)
        return self

    def detach(self) -> None:
        with self._lock:
            if self._reader is not None:
                self._pull()
                self._reader.close()
                self._reader = None

    def _pull(self) -> None:
        if self._reader is not None:
            self._events.extend(decode_records(*self._reader.read()))

    # -- queries -----------------------------------------------------------
    def dicts(self) -> List[Dict[str, Any]]:
        """The buffer as event dicts: what trace files and the merger take."""
        with self._lock:
            self._pull()
            return list(self._events)

    def events(
        self,
        kind: Optional[str] = None,
        source: Optional[str] = None,
    ) -> List[TraceEvent]:
        return [
            TraceEvent(event["ts"], event["kind"], event["source"], event["detail"])
            for event in self.dicts()
            if (kind is None or event["kind"] == kind)
            and (source is None or event["source"] == source)
        ]

    def count(self, kind: Optional[str] = None) -> int:
        return len(self.events(kind=kind))

    def kinds(self) -> Dict[str, int]:
        return dict(Counter(event["kind"] for event in self.dicts()))

    def clear(self) -> None:
        with self._lock:
            self._pull()
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
    copy of the parent's, a fresh lock (another thread may have held it at
    the fork), and the readers it inherited start on that ring."""
    HOP_LOG._lock = threading.Lock()
    configure()
    for reader in HOP_LOG.readers:
        reader._ring, reader._cursor = HOP_LOG._ring, 0


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
