"""Distributed causal tracing (docs/OBSERVABILITY.md).

* the stream itself — the hop log, its always-on ring and the crash dumps
  (``flightrec/*.bin``) — lives in :mod:`repro.core.tracing`;
* :mod:`repro.obs.trace.events` — JSONL trace files + event normalization;
* :mod:`repro.obs.trace.merge` — join per-process rings by trace id, with
  dedup, clock alignment, and lost-chain markers;
* :mod:`repro.obs.trace.critical` — per-iteration critical paths with
  stage attribution (the automated Table 1);
* :mod:`repro.obs.trace.chrome` — Perfetto-loadable Chrome-trace export
  plus a schema validator;
* ``python -m repro.obs.trace`` — the ``merge`` / ``critical-path`` /
  ``export`` / ``validate`` CLI.
"""

from .chrome import CHROME_SCHEMA, to_chrome_trace, validate_chrome_trace
from .critical import analyze, format_report
from .events import (
    TRACE_SCHEMA,
    load_trace_file,
    read_events,
    write_events,
)
from .merge import Chain, MergedTrace, merge

__all__ = [
    "CHROME_SCHEMA",
    "TRACE_SCHEMA",
    "Chain",
    "MergedTrace",
    "analyze",
    "format_report",
    "load_trace_file",
    "merge",
    "read_events",
    "to_chrome_trace",
    "validate_chrome_trace",
    "write_events",
]
