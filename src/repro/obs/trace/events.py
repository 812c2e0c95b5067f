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
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ...core.tracing import LIFECYCLE_KINDS, TERMINAL_KINDS, load_dump

TRACE_SCHEMA = "repro.trace/v1"

#: causal rank of the message kinds (terminal kinds close a chain)
_KIND_RANK = {
    kind: rank
    for rank, kind in enumerate(LIFECYCLE_KINDS + TERMINAL_KINDS)
}


def kind_rank(kind: str) -> int:
    """Causal ordering of lifecycle kinds (unknown kinds sort last)."""
    return _KIND_RANK.get(kind, len(_KIND_RANK))


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
    path: str,
    events: Iterable[Any],
    *,
    process: Optional[str] = None,
    meta: Optional[Dict[str, Any]] = None,
) -> str:
    """Write a JSONL trace file (meta line first when provided)."""
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    header: Dict[str, Any] = {"format": TRACE_SCHEMA}
    if process:
        header["process"] = process
    if meta:
        header.update(meta)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"meta": header}, sort_keys=True) + "\n")
        for event in events:
            handle.write(
                json.dumps(event_to_dict(event), sort_keys=True, default=str)
                + "\n"
            )
    return path


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
