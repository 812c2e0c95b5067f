"""Trace-event normalization and JSONL trace files.

A *trace file* is what one process leaves behind for offline analysis:

* ``*.jsonl`` — one JSON object per line.  An optional first line
  ``{"meta": {...}}`` names the process; every other line is an event
  ``{"ts": float, "kind": str, "source": str, "detail": {...}}`` (what
  :func:`repro.core.tracing.decode_records` makes of a packed record).
* ``*.bin`` — a flight-recorder dump (see :mod:`repro.core.tracing`).

:func:`load_trace_file` reads either and returns ``(process, events)``;
the merger (:mod:`.merge`) takes it from there.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Tuple

from ...core.tracing import (  # noqa: F401 - the JSONL writer is the log's
    TERMINAL_KINDS,
    TRACE_SCHEMA,
    load_dump,
    write_events,
)


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
            events.append({
                "ts": float(obj.get("ts", 0.0)),
                "kind": str(obj.get("kind", "")),
                "source": str(obj.get("source", "")),
                "detail": dict(obj.get("detail") or {}),
            })
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
