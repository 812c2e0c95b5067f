"""Join per-process trace rings into one causally-consistent timeline.

Every message carries a u64 trace id (stamped at ``make_header``), so its
events — ``sent`` in the producing process, ``routed`` in the broker,
``delivered``/``consumed`` in the consuming process, or a terminal
``shed``/``expired``/``rejected`` in a flow-controlled queue — can be
re-joined offline into a *chain* even though each process recorded them
into its own ring.

The merger:

* **dedups** events by trace id — a link that duplicates a message (see
  :class:`repro.testing.faults.FaultyLink`) yields two identical
  ``delivered`` records; only the earliest survives;
* **clock-aligns** processes — per-process monotonic clocks can disagree,
  so offsets are relaxed until no effect precedes its cause (on one Linux
  host ``CLOCK_MONOTONIC`` is system-wide: no cause follows its effect and
  the offsets stay exactly 0);
* marks chains that never reached a terminal or delivered state as
  **lost** (open spans — dropped messages under fault injection).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ...core.message import format_trace_id
from ...core.tracing import LIFECYCLE_KINDS, TERMINAL_KINDS


#: causal rank of the message kinds (terminal kinds close a chain); stage
#: and train events have no place in that order and sort last
_RANK = {kind: rank for rank, kind in enumerate(LIFECYCLE_KINDS + TERMINAL_KINDS)}
#: explicit spans: the kind that opens one -> the kind that closes it
_CLOSED_BY = {"stage_begin": "stage_end", "train_start": "train_end"}
_OPENED_BY = {end: begin for begin, end in _CLOSED_BY.items()}


@dataclass
class Chain:
    """All events of one message's causal chain, ordered causally."""

    trace: int
    events: List[Dict[str, Any]] = field(default_factory=list)
    status: str = "open"
    lost: bool = False

    def first(self, kind: str) -> Optional[Dict[str, Any]]:
        for event in self.events:
            if event["kind"] == kind:
                return event
        return None

    def last(self, kind: str) -> Optional[Dict[str, Any]]:
        found = None
        for event in self.events:
            if event["kind"] == kind:
                found = event
        return found

    @property
    def trace_hex(self) -> str:
        return format_trace_id(self.trace)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trace": self.trace_hex,
            "status": self.status,
            "lost": self.lost,
            "events": self.events,
        }


@dataclass
class MergedTrace:
    """Result of :func:`merge`: aligned events plus per-message chains."""

    processes: List[str]
    offsets: Dict[str, float]
    events: List[Dict[str, Any]]
    chains: List[Chain]
    duplicates_dropped: int = 0
    #: cross-process (cause, effect) pairs still out of order after
    #: alignment — traffic both ways can ask for more than any offsets give
    clock_violations: int = 0

    def pairs(self) -> Iterator[Tuple[str, str, float, float, Dict[str, Any]]]:
        """``(opening kind, source, start, end, the closing event's detail)``
        of every ``stage_begin``/``stage_end`` pair (per source and stage)
        and ``train_start``/``train_end`` pair (per source), first in first
        out; an end nothing opened is skipped."""
        opened: Dict[Tuple[str, str, Any], List[float]] = {}
        for event in self.events:
            kind = event["kind"]
            opening = kind if kind in _CLOSED_BY else _OPENED_BY.get(kind)
            if opening is None:
                continue
            key = (opening, event["source"], event["detail"].get("stage"))
            if kind == opening:
                opened.setdefault(key, []).append(event["ts"])
            elif opened.get(key):
                yield (
                    opening, event["source"], opened[key].pop(0), event["ts"],
                    event["detail"],
                )

    def chain_stats(self) -> Dict[str, Any]:
        stats: Dict[str, Any] = {
            "total": len(self.chains),
            "complete": 0,
            "open": 0,
            "lost": 0,
            "terminal": {},
        }
        for chain in self.chains:
            if chain.status == "complete":
                stats["complete"] += 1
            elif chain.status in TERMINAL_KINDS:
                terminal = stats["terminal"]
                terminal[chain.status] = terminal.get(chain.status, 0) + 1
            else:
                stats["open"] += 1
            if chain.lost:
                stats["lost"] += 1
        return stats

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": "repro.trace.merged/v1",
            "processes": self.processes,
            "offsets": self.offsets,
            "duplicates_dropped": self.duplicates_dropped,
            "clock_violations": self.clock_violations,
            "chains": [chain.to_dict() for chain in self.chains],
            "chain_stats": self.chain_stats(),
            "events": self.events,
        }


def _dedup_key(event: Dict[str, Any]) -> Optional[Tuple[Any, ...]]:
    """Identity of a message-lifecycle event; ``None`` = never dedup."""
    detail = event["detail"]
    trace = detail.get("trace")
    if trace is None:
        return None
    return (event["kind"], event["source"], trace, detail.get("seq"))


def _align_clocks(
    by_process: Dict[str, List[Dict[str, Any]]],
) -> Tuple[Dict[str, float], int]:
    """Per-process offsets such that no effect precedes its cause, and how
    many (cause, effect) pairs are still out of order under them.

    Builds (cause, effect) constraints from same-trace lifecycle events
    that crossed a process boundary and relaxes offsets upward, one pass
    per process, until every constraint holds.  Rollouts constrain
    explorer → learner and weights learner → explorer, so the relation can
    have cycles and no offsets may satisfy all of it: offsets that leave
    more pairs out of order than the raw timestamps do are discarded.
    """
    zero = {process: 0.0 for process in by_process}
    # (cause_process, cause_ts, effect_process, effect_ts)
    constraints: List[Tuple[str, float, str, float]] = []
    chains: Dict[Any, List[Tuple[str, Dict[str, Any]]]] = {}
    for process, events in by_process.items():
        for event in events:
            trace = event["detail"].get("trace")
            # Stage and train events carry a trace id but no place in the
            # lifecycle order: they constrain nothing.
            if trace is not None and event["kind"] in _RANK:
                chains.setdefault(trace, []).append((process, event))
    for members in chains.values():
        # One representative per lifecycle kind (the earliest), in causal
        # order — concurrent same-kind events (fan-out deliveries) are not
        # ordered against each other.
        by_kind: Dict[int, Tuple[str, Dict[str, Any]]] = {}
        for process, event in members:
            rank = _RANK[event["kind"]]
            held = by_kind.get(rank)
            if held is None or event["ts"] < held[1]["ts"]:
                by_kind[rank] = (process, event)
        ordered = [by_kind[rank] for rank in sorted(by_kind)]
        for (proc_a, event_a), (proc_b, event_b) in zip(ordered, ordered[1:]):
            if proc_a != proc_b:
                constraints.append(
                    (proc_a, event_a["ts"], proc_b, event_b["ts"])
                )

    def violations(offsets: Dict[str, float]) -> int:
        return sum(
            ts_a + offsets[proc_a] > ts_b + offsets[proc_b]
            for proc_a, ts_a, proc_b, ts_b in constraints
        )

    offsets = dict(zero)
    for _ in by_process:
        dirty = False
        for proc_a, ts_a, proc_b, ts_b in constraints:
            violation = (ts_a + offsets[proc_a]) - (ts_b + offsets[proc_b])
            if violation > 0:
                offsets[proc_b] += violation
                dirty = True
        if not dirty:
            return offsets, 0
    found, left = violations(zero), violations(offsets)
    return (offsets, left) if left <= found else (zero, found)


def merge(
    traces: Sequence[Tuple[str, Sequence[Dict[str, Any]]]], *, align: bool = True
) -> MergedTrace:
    """Merge ``[(process_name, events), ...]`` into one timeline; ``events``
    are event dicts (ring decodes, ``Tracer.dicts()``, JSONL reads)."""
    by_process: Dict[str, List[Dict[str, Any]]] = {}
    duplicates = 0
    seen: set = set()
    for process, events in traces:
        bucket = by_process.setdefault(process, [])
        for event in events:
            key = _dedup_key(event)
            if key is not None:
                if key in seen:
                    duplicates += 1
                    continue
                seen.add(key)
            bucket.append(event)

    if align:
        offsets, clock_violations = _align_clocks(by_process)
    else:
        offsets, clock_violations = {process: 0.0 for process in by_process}, 0

    merged_events: List[Dict[str, Any]] = []
    for process, events in by_process.items():
        offset = offsets[process]
        for event in events:
            aligned = dict(event)
            aligned["ts"] = event["ts"] + offset
            aligned["process"] = process
            merged_events.append(aligned)
    merged_events.sort(key=lambda event: event["ts"])

    chains = _build_chains(merged_events)
    return MergedTrace(
        processes=sorted(by_process),
        offsets=offsets,
        events=merged_events,
        chains=chains,
        duplicates_dropped=duplicates,
        clock_violations=clock_violations,
    )


def _build_chains(events: Sequence[Dict[str, Any]]) -> List[Chain]:
    grouped: Dict[int, List[Dict[str, Any]]] = {}
    for event in events:
        trace = event["detail"].get("trace")
        if trace is None:
            continue
        grouped.setdefault(int(trace), []).append(event)
    chains: List[Chain] = []
    for trace, members in sorted(grouped.items()):
        members.sort(key=lambda event: (_RANK.get(event["kind"], len(_RANK)), event["ts"]))
        kinds = {event["kind"] for event in members}
        terminal = next(
            (kind for kind in TERMINAL_KINDS if kind in kinds), None
        )
        if terminal is not None:
            status = terminal
            lost = False
        elif "consumed" in kinds:
            status = "complete"
            lost = False
        elif "delivered" in kinds:
            status = "open"  # delivered but never read (e.g. shutdown)
            lost = False
        else:
            status = "open"
            lost = True  # dropped in flight: an open span with no outcome
        chains.append(Chain(trace, members, status, lost))
    return chains
