"""Crash-time flight recorder: a fixed-size binary ring per process.

Commercial aircraft keep the last minutes of telemetry in a crash-survivable
ring; this module does the same for the asynchronous channel.  Every process
owns one :class:`FlightRecorder` — a preallocated ``bytearray`` of
fixed-size struct-packed records (32 bytes each: timestamp, interned kind
and source ids, seq, trace id).  Recording is a ``pack_into`` under one
lock: no allocation, no serialization, cheap enough to stay **always on**
(the overhead guard in ``tests/obs/test_trace_overhead.py`` holds it under
2% on the smoke workload).

On `TrainingFailedError`, a ``BackpressureError`` escalation, a broker
shutdown-audit failure, or ``SIGUSR2``, the ring is dumped to
``flightrec/*.bin`` (override with ``REPRO_FLIGHTREC_DIR``); the
``python -m repro.obs.trace`` CLI merges dumps from several processes into
one post-mortem timeline.  Set ``REPRO_FLIGHTREC=0`` to disable entirely.

This module is deliberately stdlib-only so ``repro.core`` hot paths can use
it without layering cycles.
"""

from __future__ import annotations

import json
import logging
import os
import signal
import struct
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

LOG = logging.getLogger("repro.obs.trace.flightrec")

#: dump-file magic + schema tag (bump together when the record layout changes)
MAGIC = b"FREC1\n"
FLIGHTREC_SCHEMA = "repro.flightrec/v1"

#: one record: ts (f64 monotonic), kind id (u32), source id (u32),
#: seq (i64, -1 when absent), trace id (u64, 0 when absent)
RECORD = struct.Struct("<dIIqQ")
RECORD_SIZE = RECORD.size

#: default ring capacity in records (8192 * 32 B = 256 KiB per process)
DEFAULT_CAPACITY = 8192

#: interned-string tables are bounded; overflow maps to id 0 ("?")
_MAX_INTERNED = 4096

_ENV_ENABLE = "REPRO_FLIGHTREC"
_ENV_CAPACITY = "REPRO_FLIGHTREC_CAPACITY"
_ENV_DIR = "REPRO_FLIGHTREC_DIR"


class FlightRecorder:
    """A bounded, allocation-free ring of binary trace records."""

    def __init__(
        self,
        process: str = "",
        capacity: int = DEFAULT_CAPACITY,
        clock: Callable[[], float] = time.monotonic,
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.process = process or f"pid{os.getpid()}"
        self.capacity = int(capacity)
        self._clock = clock
        self._buf = bytearray(self.capacity * RECORD_SIZE)
        self._head = 0  # total records ever written
        self._lock = threading.Lock()
        # id 0 is the overflow bucket for both tables
        self._kinds: List[str] = ["?"]
        self._kind_ids: Dict[str, int] = {"?": 0}
        self._sources: List[str] = ["?"]
        self._source_ids: Dict[str, int] = {"?": 0}

    # -- interning ----------------------------------------------------------
    def _intern(
        self, value: str, table: List[str], ids: Dict[str, int]
    ) -> int:
        # Fast path: dict reads are atomic in CPython; misses take the lock.
        found = ids.get(value)
        if found is not None:
            return found
        with self._lock:
            found = ids.get(value)
            if found is not None:
                return found
            if len(table) >= _MAX_INTERNED:
                return 0
            ids[value] = len(table)
            table.append(value)
            return ids[value]

    # -- hot path -----------------------------------------------------------
    def _ids(self, kind: str, source: str) -> Tuple[int, int]:
        kind_id = self._kind_ids.get(kind)
        if kind_id is None:
            kind_id = self._intern(kind, self._kinds, self._kind_ids)
        source_id = self._source_ids.get(source)
        if source_id is None:
            source_id = self._intern(source, self._sources, self._source_ids)
        return kind_id, source_id

    def record(
        self, kind: str, source: str, seq: int = -1, trace: int = 0
    ) -> None:
        """Append one record, overwriting the oldest once the ring is full."""
        ts = self._clock()
        kind_id, source_id = self._ids(kind, source)
        with self._lock:
            offset = (self._head % self.capacity) * RECORD_SIZE
            self._head += 1
            RECORD.pack_into(
                self._buf, offset, ts, kind_id, source_id,
                int(seq), int(trace) & 0xFFFFFFFFFFFFFFFF,
            )

    def record_many(
        self, kind: str, source: str, entries: Sequence[Tuple[int, int]]
    ) -> None:
        """Append one record per ``(seq, trace)`` entry, all stamped with
        one clock read under one lock acquisition: a thread holding a whole
        wake-up's batch pays the fixed cost once."""
        if not entries:
            return
        ts = self._clock()
        kind_id, source_id = self._ids(kind, source)
        buf, capacity, pack_into = self._buf, self.capacity, RECORD.pack_into
        with self._lock:
            head = self._head
            for seq, trace in entries:
                pack_into(
                    buf, (head % capacity) * RECORD_SIZE, ts, kind_id,
                    source_id, int(seq), int(trace) & 0xFFFFFFFFFFFFFFFF,
                )
                head += 1
            self._head = head

    # -- introspection ------------------------------------------------------
    @property
    def count(self) -> int:
        """Records currently held (≤ capacity)."""
        with self._lock:
            return min(self._head, self.capacity)

    @property
    def total(self) -> int:
        """Records ever written (overwritten ones included)."""
        with self._lock:
            return self._head

    def _snapshot(self) -> Tuple[bytes, int, int, List[str], List[str]]:
        """Chronologically-ordered copy of the ring + tables."""
        with self._lock:
            head = self._head
            count = min(head, self.capacity)
            if head <= self.capacity:
                data = bytes(self._buf[: head * RECORD_SIZE])
            else:
                split = (head % self.capacity) * RECORD_SIZE
                data = bytes(self._buf[split:]) + bytes(self._buf[:split])
            return data, head, count, list(self._kinds), list(self._sources)

    def events(self) -> List[Dict[str, Any]]:
        """Decode the ring into event dicts (oldest first)."""
        data, _, count, kinds, sources = self._snapshot()
        return _decode_records(data, count, kinds, sources)

    # -- dumping ------------------------------------------------------------
    def dump(self, path: str, reason: str = "manual") -> str:
        """Write the ring to ``path`` (magic + JSON meta + raw records)."""
        data, head, count, kinds, sources = self._snapshot()
        meta = {
            "format": FLIGHTREC_SCHEMA,
            "process": self.process,
            "pid": os.getpid(),
            "reason": reason,
            "capacity": self.capacity,
            "count": count,
            "total": head,
            "overwritten": max(0, head - self.capacity),
            "kinds": kinds,
            "sources": sources,
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


# -- per-process singleton ---------------------------------------------------
_STATE: Dict[str, Any] = {"pid": None, "recorder": None, "enabled": None}
_DUMP_COUNTER = {"n": 0}


def _env_enabled() -> bool:
    return os.environ.get(_ENV_ENABLE, "1") != "0"


def _env_capacity() -> int:
    try:
        return max(1, int(os.environ.get(_ENV_CAPACITY, DEFAULT_CAPACITY)))
    except ValueError:
        return DEFAULT_CAPACITY


def get_recorder() -> Optional[FlightRecorder]:
    """The process-wide recorder, or ``None`` when disabled.

    Re-created after fork (keyed on pid) so every explorer process gets its
    own ring instead of scribbling over an inherited copy.
    """
    pid = os.getpid()
    if _STATE["pid"] != pid:
        _STATE["pid"] = pid
        _STATE["enabled"] = _env_enabled()
        _STATE["recorder"] = (
            FlightRecorder(capacity=_env_capacity())
            if _STATE["enabled"]
            else None
        )
    return _STATE["recorder"]


def configure(
    *,
    enabled: Optional[bool] = None,
    capacity: Optional[int] = None,
    process: Optional[str] = None,
) -> Optional[FlightRecorder]:
    """Rebuild the process-wide recorder (tests and operators only)."""
    pid = os.getpid()
    _STATE["pid"] = pid
    if enabled is None:
        enabled = _env_enabled()
    _STATE["enabled"] = enabled
    if not enabled:
        _STATE["recorder"] = None
        return None
    recorder = FlightRecorder(
        process=process or "", capacity=capacity or _env_capacity()
    )
    _STATE["recorder"] = recorder
    return recorder


def set_process(name: str) -> None:
    """Label this process's recorder (shows up in dump metadata)."""
    recorder = get_recorder()
    if recorder is not None:
        recorder.process = name


def dump_dir() -> str:
    return os.environ.get(_ENV_DIR, "flightrec")


def dump_all(reason: str, directory: Optional[str] = None) -> Optional[str]:
    """Dump this process's ring to ``directory`` (best-effort).

    Called from failure paths, so it must never raise: an unwritable
    directory logs a warning and returns ``None``.
    """
    recorder = get_recorder()
    if recorder is None:
        return None
    directory = directory or dump_dir()
    _DUMP_COUNTER["n"] += 1
    filename = (
        f"{recorder.process}-{os.getpid()}-{reason}-{_DUMP_COUNTER['n']}.bin"
    )
    path = os.path.join(directory, filename)
    try:
        os.makedirs(directory, exist_ok=True)
        recorder.dump(path, reason)
    except OSError as exc:
        LOG.warning("flight recorder dump to %s failed: %s", path, exc)
        return None
    LOG.warning("flight recorder dumped to %s (reason: %s)", path, reason)
    return path


def install_signal_handler() -> bool:
    """Dump the ring on ``SIGUSR2``; best-effort (main thread only)."""
    if get_recorder() is None:
        return False

    def _handler(signum: int, frame: Any) -> None:  # pragma: no cover
        del signum, frame
        dump_all("sigusr2")

    try:
        signal.signal(signal.SIGUSR2, _handler)
    except (ValueError, AttributeError, OSError):
        return False  # non-main thread, or platform without SIGUSR2
    return True
