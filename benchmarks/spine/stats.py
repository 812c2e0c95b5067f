"""Order statistics used by every workload and by ``compare``."""

from __future__ import annotations

import statistics
from typing import List, Sequence, Tuple


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty sequence."""
    ordered = sorted(values)
    return ordered[min(int(q * len(ordered)), len(ordered) - 1)]


def calm_quantile(values: Sequence[float], *, better: str, parts: int = 4) -> float:
    """The outermost ``parts``-quantile of ``values`` on their undisturbed side.

    The box is shared: a neighbour can only take time away, so windows of a
    run differ far more on their slow side than on their fast side, and from
    run to run the median window moves with the neighbour's load.  A quantile
    on the ``better`` side ("higher" for rates, "lower" for times) is the
    steadiest estimate of what the code does when left alone; a real
    regression moves every window and therefore moves it too.
    """
    if len(values) < 2:
        return values[0]
    cuts = statistics.quantiles(values, n=parts, method="inclusive")
    return cuts[-1] if better == "higher" else cuts[0]


def chunk_medians(values: Sequence[float], size: int) -> List[float]:
    """Median of each consecutive ``size``-sample chunk (the last, partial
    chunk is dropped unless it is the only one)."""
    if len(values) < 2 * size:
        return [statistics.median(values)]
    return [
        statistics.median(values[start : start + size])
        for start in range(0, len(values) - size + 1, size)
    ]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) exactly as the driver computes them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    if q3 == q1:
        return 0.0
    return (q3 - q1) / q2 if q2 else float("inf")


def window_rates(
    stamps: Sequence[Tuple[float, int, float]], until: float, min_span: float
) -> Tuple[List[float], List[float]]:
    """Per-window (completions/s, blocked share) from consumer stamps.

    ``stamps`` are ``(time, completions so far, consumer-blocked seconds so
    far)``; consecutive stamps are grouped into windows at least
    ``min_span`` seconds long, ignoring everything after ``until`` (the
    drain that follows the timed interval).
    """
    rates: List[float] = []
    blocked: List[float] = []
    start = stamps[0]
    for stamp in stamps[1:]:
        if stamp[0] > until:
            break
        span = stamp[0] - start[0]
        if span >= min_span:
            rates.append((stamp[1] - start[1]) / span)
            blocked.append((stamp[2] - start[2]) / span)
            start = stamp
    return rates, blocked
