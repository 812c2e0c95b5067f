"""Critical-path analysis over a merged trace — an automated Table 1.

The paper's Table 1 splits one training iteration into *transmission* and
*train* time by hand-instrumenting each framework.  Given a merged trace
this module derives the same split automatically:

* **message stages** — ``send``, ``route``, ``deliver``, ``consume``: the
  one stage table, :data:`repro.obs.spans.STAGES` — come from running each
  chain through the matcher the live span aggregator runs
  (:class:`repro.obs.spans.Correlator`), unbounded;
* **explicit stages** come from ``stage_begin``/``stage_end`` event pairs
  (benchmarks emit these around transmission and train phases);
* **iterations** are delimited by the ``train_start``/``train_end`` pairs
  the learner emits around each training session; each
  iteration's critical path is the chain whose ``consumed`` event gated the
  train step, plus the learner's wait gap and the train duration itself.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any, Dict, List, Optional, Tuple

from ..spans import Correlator, event_rows
from .merge import Chain, MergedTrace


def _summary(stages: Dict[str, List[float]]) -> Dict[str, Dict[str, float]]:
    return {
        stage: {
            "count": float(len(values)),
            "total_s": sum(values),
            "mean_s": sum(values) / len(values),
            "max_s": max(values),
        }
        for stage, values in sorted(stages.items())
    }


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
    chain_acc: Dict[str, List[float]] = {}
    correlator = Correlator()
    #: trace -> {stage: seconds} (a fan-out's first destination)
    chain_stages: Dict[int, Dict[str, float]] = {}
    for chain in merged.chains:
        # A chain's events are in causal order, whatever skew alignment left.
        closed = correlator.feed(*event_rows(chain.events))
        for (stage, _, _, _), durations in closed.items():
            chain_acc.setdefault(stage, []).extend(durations)
            chain_stages.setdefault(chain.trace, {}).setdefault(stage, durations[0])

    #: explicit stages (benchmarks bracket their phases; a ``stage`` event
    #: carries a duration measured elsewhere) and the learner's sessions
    explicit: Dict[str, List[float]] = {}
    sessions: List[Tuple[float, float, str]] = []
    for opening, source, start, end, detail in merged.pairs():
        if opening == "train_start":
            sessions.append((start, end, source))
        else:
            explicit.setdefault(str(detail.get("stage")), []).append(max(0.0, end - start))
    for event in merged.events:
        if event["kind"] == "stage" and "seconds" in event["detail"]:
            explicit.setdefault(str(event["detail"].get("stage")), []).append(
                float(event["detail"]["seconds"])
            )
    sessions.sort()

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
            iteration["stages"] = chain_stages.get(chain.trace, {})
        previous_start = start
        iterations.append(iteration)

    # Transmission: explicit "transmission" stages when instrumented
    # (benchmarks), else the sum of whole-chain deliver gaps.
    transmission, transmission_source = explicit.get("transmission"), "stage_events"
    if transmission is None:
        transmission = chain_acc.get("deliver", [])
        transmission_source = "chain_deliver_gaps"
    train, train_source = explicit.get("train"), "stage_events"
    if train is None:
        train = [end - start for start, end, _ in sessions]
        train_source = "train_sessions"
    transmission, train = sum(transmission), sum(train)

    stages = _summary({**chain_acc, **explicit})
    return {
        "stages": stages,
        "iterations": iterations,
        "chain_stats": merged.chain_stats(),
        # What the live aggregator exports of the same records.
        "spans": asdict(correlator.stats()),
        "edges": [list(edge) for edge in correlator.edges()],
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
