"""Trace-event normalization and JSONL trace files.

A *trace file* is what one process leaves behind for offline analysis:

* ``*.jsonl`` — one JSON object per line.  An optional first line
  ``{"meta": {...}}`` names the process; every other line is an event
  ``{"ts": float, "kind": str, "source": str, "detail": {...}}`` (the
  in-memory :class:`~repro.core.tracing.TraceEvent` shape).
* ``*.bin`` — a flight-recorder dump (see :mod:`repro.core.tracing`).

:func:`load_trace_file` reads either and returns ``(process, events)``;
the merger (:mod:`.merge`) takes it from there.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Tuple

from ...core.tracing import (  # noqa: F401 - the JSONL writer is the log's
    LIFECYCLE_KINDS,
    TERMINAL_KINDS,
    TRACE_SCHEMA,
    event_to_dict,
    load_dump,
    write_events,
)

#: causal rank of the message kinds (terminal kinds close a chain)
_KIND_RANK = {
    kind: rank
    for rank, kind in enumerate(LIFECYCLE_KINDS + TERMINAL_KINDS)
}


def is_ranked(kind: str) -> bool:
    """Whether ``kind`` has a place in the lifecycle order at all."""
    return kind in _KIND_RANK


def kind_rank(kind: str) -> int:
    """Causal ordering of lifecycle kinds (unknown kinds sort last)."""
    return _KIND_RANK.get(kind, len(_KIND_RANK))


def read_events(path: str) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Read a JSONL trace file back as ``(meta, events)``."""
    meta: Dict[str, Any] = {}
    events: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            if "meta" in obj and "kind" not in obj:
                meta = dict(obj["meta"])
                continue
            events.append(event_to_dict(obj))
    return meta, events


def load_trace_file(path: str) -> Tuple[str, List[Dict[str, Any]]]:
    """Load one per-process trace (JSONL or flight-recorder dump).

    Returns ``(process_name, events)``; the process name falls back to the
    file's basename when the file carries none.
    """
    if path.endswith(".bin"):
        meta, events = load_dump(path)
    else:
        meta, events = read_events(path)
    process = str(
        meta.get("process")
        or os.path.splitext(os.path.basename(path))[0]
    )
    return process, events
