"""Critical-path analysis over a merged trace — an automated Table 1.

The paper's Table 1 splits one training iteration into *transmission* and
*train* time by hand-instrumenting each framework.  Given a merged trace
this module derives the same split automatically:

* **message stages** come from chain event gaps — ``send`` (sent→routed:
  serialize + queue-wait), ``route`` (routed→delivered: routing + link +
  deserialize), ``deliver`` (sent→delivered: whole transmission), and
  ``dwell`` (delivered→consumed: receive-buffer wait);
* **explicit stages** come from ``stage_begin``/``stage_end`` event pairs
  (benchmarks emit these around transmission and train phases);
* **iterations** are delimited by the ``train_start``/``train_end`` pairs
  the learner emits around each training session; each
  iteration's critical path is the chain whose ``consumed`` event gated the
  train step, plus the learner's wait gap and the train duration itself.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from .merge import Chain, MergedTrace

#: chain stages, as (name, start_kind, end_kind)
CHAIN_STAGES: Tuple[Tuple[str, str, str], ...] = (
    ("send", "sent", "routed"),
    ("route", "routed", "delivered"),
    ("deliver", "sent", "delivered"),
    ("dwell", "delivered", "consumed"),
)


class _StageAccumulator:
    def __init__(self) -> None:
        self._stages: Dict[str, List[float]] = {}

    def add(self, stage: str, seconds: float) -> None:
        self._stages.setdefault(stage, []).append(max(0.0, seconds))

    def summary(self) -> Dict[str, Dict[str, float]]:
        out: Dict[str, Dict[str, float]] = {}
        for stage, values in sorted(self._stages.items()):
            total = sum(values)
            out[stage] = {
                "count": float(len(values)),
                "total_s": total,
                "mean_s": total / len(values),
                "max_s": max(values),
            }
        return out

    def total(self, stage: str) -> Optional[float]:
        values = self._stages.get(stage)
        return sum(values) if values else None


def _explicit_stages(merged: MergedTrace) -> _StageAccumulator:
    """Match ``stage_begin``/``stage_end`` pairs per (source, stage)."""
    acc = _StageAccumulator()
    open_stages: Dict[Tuple[str, str], List[float]] = {}
    for event in merged.events:
        detail = event["detail"]
        if event["kind"] == "stage_begin":
            key = (event["source"], str(detail.get("stage")))
            open_stages.setdefault(key, []).append(event["ts"])
        elif event["kind"] == "stage_end":
            key = (event["source"], str(detail.get("stage")))
            starts = open_stages.get(key)
            if starts:
                acc.add(key[1], event["ts"] - starts.pop(0))
        elif event["kind"] == "stage" and "seconds" in detail:
            acc.add(str(detail.get("stage")), float(detail["seconds"]))
    return acc


def _train_sessions(merged: MergedTrace) -> List[Tuple[float, float, str]]:
    """(start_ts, end_ts, source) per train_start/train_end pair."""
    sessions: List[Tuple[float, float, str]] = []
    open_starts: Dict[str, List[float]] = {}
    for event in merged.events:
        if event["kind"] == "train_start":
            open_starts.setdefault(event["source"], []).append(event["ts"])
        elif event["kind"] == "train_end":
            starts = open_starts.get(event["source"])
            if starts:
                sessions.append((starts.pop(0), event["ts"], event["source"]))
    sessions.sort()
    return sessions


def _gating_chain(
    chains: List[Chain], window_start: float, window_end: float
) -> Optional[Tuple[Chain, float]]:
    """The chain whose ``consumed`` landed last inside the window."""
    best: Optional[Tuple[Chain, float]] = None
    for chain in chains:
        consumed = chain.last("consumed")
        if consumed is None:
            continue
        ts = consumed["ts"]
        if window_start <= ts <= window_end:
            if best is None or ts > best[1]:
                best = (chain, ts)
    return best


def analyze(merged: MergedTrace) -> Dict[str, Any]:
    """Stage attribution + per-iteration critical paths for one trace."""
    chain_acc = _StageAccumulator()
    for chain in merged.chains:
        for stage, start_kind, end_kind in CHAIN_STAGES:
            gap = chain.gap(start_kind, end_kind)
            if gap is not None:
                chain_acc.add(stage, gap)

    explicit_acc = _explicit_stages(merged)
    sessions = _train_sessions(merged)

    iterations: List[Dict[str, Any]] = []
    previous_start = float("-inf")
    for start, end, source in sessions:
        iteration: Dict[str, Any] = {
            "train_start": start,
            "train_end": end,
            "train_s": end - start,
            "source": source,
        }
        gate = _gating_chain(merged.chains, previous_start, start)
        if gate is not None:
            chain, consumed_ts = gate
            iteration["gate_trace"] = chain.trace_hex
            iteration["wait_s"] = max(0.0, start - consumed_ts)
            stages: Dict[str, float] = {}
            for stage, start_kind, end_kind in CHAIN_STAGES:
                gap = chain.gap(start_kind, end_kind)
                if gap is not None:
                    stages[stage] = gap
            iteration["stages"] = stages
        previous_start = start
        iterations.append(iteration)

    # Transmission: explicit "transmission" stages when instrumented
    # (benchmarks), else the sum of whole-chain deliver gaps.
    transmission = explicit_acc.total("transmission")
    transmission_source = "stage_events"
    if transmission is None:
        transmission = chain_acc.total("deliver") or 0.0
        transmission_source = "chain_deliver_gaps"
    train = explicit_acc.total("train")
    train_source = "stage_events"
    if train is None:
        train = sum(end - start for start, end, _ in sessions)
        train_source = "train_sessions"

    stages = chain_acc.summary()
    stages.update(explicit_acc.summary())
    return {
        "stages": stages,
        "iterations": iterations,
        "chain_stats": merged.chain_stats(),
        "transmission_vs_train": {
            "transmission_s": transmission,
            "train_s": train,
            "ratio": (transmission / train) if train else None,
            "transmission_from": transmission_source,
            "train_from": train_source,
        },
    }


def format_report(report: Dict[str, Any]) -> str:
    """Human-readable rendering of :func:`analyze` (the CLI default)."""
    lines: List[str] = []
    stages = report.get("stages", {})
    if stages:
        lines.append("stage            count      mean        total")
        for name, summary in stages.items():
            lines.append(
                f"{name:<14} {int(summary['count']):>7} "
                f"{summary['mean_s'] * 1e3:>8.3f}ms "
                f"{summary['total_s']:>10.6f}s"
            )
    split = report.get("transmission_vs_train", {})
    if split:
        ratio = split.get("ratio")
        lines.append("")
        lines.append(
            f"transmission {split.get('transmission_s', 0.0):.6f}s "
            f"({split.get('transmission_from')})  vs  "
            f"train {split.get('train_s', 0.0):.6f}s "
            f"({split.get('train_from')})"
            + (f"  ratio {ratio:.3f}" if ratio is not None else "")
        )
    chain_stats = report.get("chain_stats", {})
    if chain_stats:
        lines.append(
            f"chains: {chain_stats.get('total', 0)} total, "
            f"{chain_stats.get('complete', 0)} complete, "
            f"{chain_stats.get('open', 0)} open "
            f"({chain_stats.get('lost', 0)} lost), "
            f"terminal {chain_stats.get('terminal', {})}"
        )
    iterations = report.get("iterations", [])
    if iterations:
        lines.append(f"iterations: {len(iterations)}")
    return "\n".join(lines) if lines else "(empty trace)"
