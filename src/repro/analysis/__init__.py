"""Framework-aware static & runtime analysis for the comms stack.

XingTian's core claim rests on a hand-rolled threaded communication stack —
broker, router, header/ID queues, and a refcounted object store — exactly
the kind of code where races, lock-order inversions, and silently-unrouted
messages hide.  This package turns that debugging into tooling:

* :mod:`repro.analysis.rules` — an AST-based lint engine with
  framework-specific rules (blocking calls under a lock, unguarded shared
  mutation in threaded classes, raw ``threading.Thread`` creation bypassing
  :func:`repro.core.concurrency.spawn_thread`, and ``MsgType`` send sites
  with no registered handler);
* :mod:`repro.analysis.protocol` — one walk recording every ``MsgType``
  send and handle site with its component and role, cross-checked by the
  ``unrouted-msgtype`` rule and the routing-table exhaustiveness test;
* :mod:`repro.analysis.topology` — the communication topology built from
  those sites (which role sends which ``MsgType`` to which role), the
  ``docs/topology.json``/DOT artifacts, the ``orphan-destination`` rule,
  and the trace-conformance checker diffing observed hop-log edges against
  the static graph;
* :mod:`repro.analysis.configcheck` — static validation of the examples'
  configuration calls against the config schema and
  :data:`repro.api.registry.registry`;
* :mod:`repro.analysis.runtime` — opt-in runtime checkers: an instrumented
  lock that records the per-thread lock-acquisition graph and reports
  cycles (potential deadlocks), and an object-store refcount auditor that
  asserts all refs are balanced at broker shutdown.  Handle ownership and
  zero-copy view lifetimes are checked here and by the arena sanitizer
  (:mod:`repro.core.arena`), not statically;
* :mod:`repro.analysis.cli` — ``python -m repro.analysis <path>`` emitting
  ``file:line severity rule message`` findings (``--format json``/``gha``
  for machine consumption), compared against a committed baseline so CI
  fails only on *new* findings.

See ``docs/STATIC_ANALYSIS.md`` for the rule catalog and workflows.
"""

from __future__ import annotations

from .engine import analyze_path, analyze_paths, analyze_source
from .findings import Baseline, Finding, Severity
from .protocol import EXPLICITLY_UNROUTED, Protocol, extract_protocol
from .topology import (
    Topology,
    conformance_violations,
    extract_topology,
    observed_edges,
)

__all__ = [
    "analyze_path",
    "analyze_paths",
    "analyze_source",
    "Baseline",
    "Finding",
    "Severity",
    "Protocol",
    "extract_protocol",
    "EXPLICITLY_UNROUTED",
    "Topology",
    "extract_topology",
    "observed_edges",
    "conformance_violations",
]
