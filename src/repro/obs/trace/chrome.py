"""Chrome-trace (Perfetto-loadable) timeline export.

Emits the Trace Event Format JSON that ``chrome://tracing`` and
https://ui.perfetto.dev consume: one *track* per event source (endpoint,
router, queue), duration slices (``B``/``E`` pairs) for each chain stage,
flow arrows (``s``/``f`` pairs keyed by trace id) across process
boundaries, and instant events for terminal outcomes.

Slices within one track are packed onto greedy non-overlapping lanes
(``tid``), so every track renders without slice nesting ambiguity and the
validator's invariants hold by construction: per-(pid, tid) timestamps are
monotonic, every ``B`` has a matching ``E``, and every flow ``f`` resolves
to an earlier ``s`` with the same id.  A slice of no length (two hops that
read the same clock tick, or an effect stamped before its cause) is one
complete ``X`` event instead of a pair.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ...core.message import format_trace_id
from ..spans import STAGES
from .events import TERMINAL_KINDS
from .merge import MergedTrace

CHROME_SCHEMA = "repro.trace.chrome/v1"

#: stage slices drawn per chain: (name, start_kind, end_kind).  ``deliver``
#: is deliberately absent — it is the sum of ``send`` + ``route`` and would
#: double-draw the same wall-clock interval.
_SLICES: Tuple[Tuple[str, str, str], ...] = tuple(
    (name, *STAGES[name]) for name in ("send", "route", "consume")
)


class _LaneAllocator:
    """Greedy non-overlapping lane (tid) assignment per track."""

    def __init__(self) -> None:
        self._lanes: Dict[int, List[float]] = {}

    def lane(self, pid: int, start: float, end: float) -> int:
        lanes = self._lanes.setdefault(pid, [])
        for index, busy_until in enumerate(lanes):
            if start >= busy_until:
                lanes[index] = end
                return index
        lanes.append(end)
        return len(lanes) - 1


def _micros(seconds: float, origin: float) -> float:
    return max(0.0, (seconds - origin) * 1e6)


def to_chrome_trace(merged: MergedTrace) -> Dict[str, Any]:
    """Convert a merged trace into a Trace Event Format dict."""
    origin = min(
        (event["ts"] for event in merged.events), default=0.0
    )
    sources = sorted({event["source"] for event in merged.events})
    pids = {source: index + 1 for index, source in enumerate(sources)}
    lanes = _LaneAllocator()
    trace_events: List[Dict[str, Any]] = []

    for source, pid in pids.items():
        trace_events.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": source},
        })

    spans: List[Dict[str, Any]] = []  # (B, E) pairs built below
    instants: List[Dict[str, Any]] = []
    flows: List[Dict[str, Any]] = []

    def add_span(
        source: str, name: str, start: float, end: float,
        args: Optional[Dict[str, Any]] = None,
    ) -> Tuple[int, int]:
        pid = pids[source]
        start_us = _micros(start, origin)
        end_us = _micros(max(end, start), origin)
        tid = lanes.lane(pid, start_us, end_us)
        if end_us == start_us:
            # As a pair its E would sort before its own B (E goes first at
            # equal timestamps, for back-to-back reuse of a lane).
            spans.append({
                "name": name, "ph": "X", "pid": pid, "tid": tid,
                "ts": start_us, "dur": 0.0, "cat": "trace", "args": args or {},
            })
            return pid, tid
        spans.append({
            "name": name, "ph": "B", "pid": pid, "tid": tid,
            "ts": start_us, "cat": "trace", "args": args or {},
        })
        spans.append({
            "name": name, "ph": "E", "pid": pid, "tid": tid, "ts": end_us,
            "cat": "trace",
        })
        return pid, tid

    # -- chain stage slices + cross-process flow arrows ---------------------
    for chain in merged.chains:
        args = {"trace": chain.trace_hex}
        sent = chain.first("sent")
        delivered = chain.first("delivered")
        if sent is not None:
            args.setdefault("seq", sent["detail"].get("seq"))
            args.setdefault("type", sent["detail"].get("type"))
        for name, start_kind, end_kind in _SLICES:
            start = chain.first(start_kind)
            end = chain.first(end_kind)
            if start is None or end is None:
                continue
            add_span(start["source"], name, start["ts"], end["ts"], dict(args))
        if sent is not None and delivered is not None:
            start_us = _micros(sent["ts"], origin)
            end_us = _micros(max(delivered["ts"], sent["ts"]), origin)
            flows.append({
                "name": "msg", "ph": "s", "cat": "flow",
                "id": chain.trace_hex, "pid": pids[sent["source"]],
                "tid": 0, "ts": start_us,
            })
            flows.append({
                "name": "msg", "ph": "f", "bp": "e", "cat": "flow",
                "id": chain.trace_hex, "pid": pids[delivered["source"]],
                "tid": 0, "ts": end_us,
            })
        for event in chain.events:
            if event["kind"] in TERMINAL_KINDS:
                instants.append({
                    "name": event["kind"], "ph": "i", "s": "t",
                    "pid": pids[event["source"]], "tid": 0,
                    "ts": _micros(event["ts"], origin), "cat": "terminal",
                    "args": dict(args),
                })

    # -- explicit stage + train slices --------------------------------------
    for opening, source, start, end, detail in merged.pairs():
        if opening == "train_start":
            add_span(source, "train", start, end)
        else:
            add_span(
                source, str(detail.get("stage")), start, end,
                {k: v for k, v in detail.items() if k != "stage"},
            )

    # Deterministic, validator-friendly order: by ts, with E before B at
    # equal timestamps so back-to-back lane reuse still balances.
    phase_order = {"M": 0, "E": 1, "X": 2, "B": 2, "s": 3, "f": 4, "i": 5}
    trace_events.extend(spans)
    trace_events.extend(flows)
    trace_events.extend(instants)
    trace_events.sort(
        key=lambda event: (
            event.get("ts", -1.0), phase_order.get(event["ph"], 9)
        )
    )
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "metadata": {"format": CHROME_SCHEMA, "processes": sources},
    }


def validate_chrome_trace(trace: Any) -> List[str]:
    """Validate exported Chrome-trace JSON; returns a list of problems.

    Checks the acceptance invariants: ``traceEvents`` structure, monotonic
    timestamps per (pid, tid) track, every ``B`` closed by a matching
    ``E``, and every flow-finish ``f`` resolving to an earlier ``s`` with
    the same id (cross-process flows resolve by trace id).
    """
    problems: List[str] = []
    if not isinstance(trace, dict):
        return ["trace must be a JSON object"]
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents must be a list"]
    last_ts: Dict[Tuple[int, int], float] = {}
    stacks: Dict[Tuple[int, int], List[str]] = {}
    flow_starts: set = set()
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {index}: not an object")
            continue
        phase = event.get("ph")
        if phase not in ("B", "E", "M", "s", "f", "i", "X"):
            problems.append(f"event {index}: unknown phase {phase!r}")
            continue
        if phase == "M":
            continue
        pid, tid = event.get("pid"), event.get("tid")
        ts = event.get("ts")
        if not isinstance(pid, int) or not isinstance(tid, int):
            problems.append(f"event {index}: missing pid/tid")
            continue
        if not isinstance(ts, (int, float)):
            problems.append(f"event {index}: missing ts")
            continue
        if phase in ("B", "E"):
            track = (pid, tid)
            previous = last_ts.get(track)
            if previous is not None and ts < previous:
                problems.append(
                    f"event {index}: ts {ts} < {previous} on track {track}"
                )
            last_ts[track] = ts
            stack = stacks.setdefault(track, [])
            if phase == "B":
                stack.append(str(event.get("name")))
            else:
                if not stack:
                    problems.append(
                        f"event {index}: E with no open B on track {track}"
                    )
                elif stack[-1] != str(event.get("name")):
                    problems.append(
                        f"event {index}: E {event.get('name')!r} does not "
                        f"close B {stack[-1]!r} on track {track}"
                    )
                    stack.pop()
                else:
                    stack.pop()
        elif phase == "s":
            flow_starts.add(event.get("id"))
        elif phase == "f":
            if event.get("id") not in flow_starts:
                problems.append(
                    f"event {index}: flow finish id {event.get('id')!r} "
                    "has no earlier start"
                )
    for track, stack in stacks.items():
        if stack:
            problems.append(
                f"track {track}: {len(stack)} unclosed B event(s): {stack}"
            )
    return problems
