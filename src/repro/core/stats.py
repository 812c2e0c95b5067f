"""Statistics: throughput meters, latency recorders, collectors.

The center controller collects and visualizes statistics from explorers and
the learner (§3.2.2).  These helpers also produce the measurements behind
the paper's figures: throughput-over-time series (Figs. 8–10a), latency
breakdowns (Figs. 8–10b), and wait-time CDFs (Fig. 8c).
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left, bisect_right
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from .concurrency import make_lock

#: latency samples a :class:`LatencyRecorder` retains (its most recent)
_MAX_SAMPLES = 65_536

#: Default latency buckets (seconds): ~10µs .. 10s, roughly 1-2-5 decades.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-5, 2e-5, 5e-5,
    1e-4, 2e-4, 5e-4,
    1e-3, 2e-3, 5e-3,
    1e-2, 2e-2, 5e-2,
    1e-1, 2e-1, 5e-1,
    1.0, 2.0, 5.0, 10.0,
)


class ThroughputMeter:
    """Counts events (bytes, rollout steps, messages) against wall time.

    ``record(n)`` adds ``n`` units; ``rate()`` is units/second since start;
    ``series(bucket)`` returns a (t, rate) time series bucketed at ``bucket``
    seconds, which is what the throughput-over-time figures plot.

    Memory is bounded: once more than ``max_events`` samples are held, the
    sample list is compacted — events falling in the same
    ``compaction_resolution`` window merge into one aggregate sample at the
    window midpoint (doubling the resolution until the list fits).  Totals
    and rates stay exact; ``series(bucket)`` stays exact for any ``bucket``
    at least as coarse as the (reported) ``resolution``.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.monotonic,
        *,
        max_events: int = 8192,
        compaction_resolution: float = 0.25,
    ):
        if max_events < 2:
            raise ValueError("max_events must be >= 2")
        if compaction_resolution <= 0:
            raise ValueError("compaction_resolution must be positive")
        self._clock = clock
        self._lock = make_lock("stats.throughput_meter")
        self._events: List[Tuple[float, float]] = []
        self._total = 0.0
        self._count = 0
        self._start = clock()
        self._max_events = max_events
        self._resolution = compaction_resolution
        self._compacted = False

    def record(self, amount: float = 1.0) -> None:
        self.record_many((amount,))

    def record_many(self, amounts: Sequence[float]) -> None:
        """Record a batch of events sharing one timestamp.

        A drained queue batch arrives within microseconds, far inside any
        ``series()`` bucket, so the samples merge into one aggregate event:
        one clock read and one lock acquisition instead of ``len(amounts)``
        — the hot-path variant used by the endpoint threads.
        """
        if not amounts:
            return
        subtotal = sum(amounts)
        now = self._clock()
        with self._lock:
            self._events.append((now, subtotal))
            self._total += subtotal
            self._count += len(amounts)
            if len(self._events) > self._max_events:
                self._compact_locked()

    def _compact_locked(self) -> None:
        """Merge samples into ``self._resolution`` windows (growing the
        resolution until the list is at most half of ``max_events``)."""
        self._compacted = True
        while True:
            buckets: Dict[int, float] = {}
            for timestamp, amount in self._events:
                index = int((timestamp - self._start) / self._resolution)
                buckets[index] = buckets.get(index, 0.0) + amount
            if len(buckets) <= self._max_events // 2:
                break
            self._resolution *= 2.0
        self._events = [
            (self._start + (index + 0.5) * self._resolution, amount)
            for index, amount in sorted(buckets.items())
        ]

    @property
    def resolution(self) -> Optional[float]:
        """Coarsest compaction window applied so far (None if never)."""
        with self._lock:
            return self._resolution if self._compacted else None

    @property
    def total(self) -> float:
        with self._lock:
            return self._total

    @property
    def count(self) -> int:
        """Recordings made: one per :meth:`record`, one per amount of a
        :meth:`record_many` batch — for an endpoint's meters, messages."""
        with self._lock:
            return self._count

    def elapsed(self) -> float:
        return max(self._clock() - self._start, 1e-12)

    def rate(self) -> float:
        """Average units per second over the meter's lifetime."""
        return self.total / self.elapsed()

    def series(self, bucket: float = 1.0) -> List[Tuple[float, float]]:
        """Bucketed (time_offset, units_per_second) series."""
        if bucket <= 0:
            raise ValueError("bucket must be positive")
        with self._lock:
            events = list(self._events)
        if not events:
            return []
        buckets: Dict[int, float] = {}
        for timestamp, amount in events:
            index = int((timestamp - self._start) / bucket)
            buckets[index] = buckets.get(index, 0.0) + amount
        return [(index * bucket, amount / bucket) for index, amount in sorted(buckets.items())]


class LatencyRecorder:
    """Accumulates latency samples: means, quantiles, CDFs and a histogram.

    The one latency instrument of the tree: processes feed it on their hot
    paths, the figures read its quantiles and CDFs, and ``repro.obs``
    exports it as a fixed-bucket histogram by reading :meth:`bucket_counts`
    — nothing is recorded a second time for telemetry.

    Memory is bounded: ``count``, ``sum``, ``mean()`` and the bucket counts
    are exact over every sample ever recorded, while ``quantile``, ``cdf``,
    ``fraction_below`` and ``samples()`` describe the most recent 65 536
    — an endpoint records one sample per delivered message for as long as
    it lives.  ``buckets`` are ascending upper bounds; an implicit +Inf
    bucket catches overflow.
    """

    def __init__(
        self, name: str = "", *, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS
    ):
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise ValueError("histogram buckets must be non-empty and ascending")
        self.name = name
        self.bounds = bounds
        self._lock = make_lock("stats.latency_recorder")
        self._samples: Deque[float] = deque(maxlen=_MAX_SAMPLES)
        self._bucketed = [0] * (len(bounds) + 1)  # last slot = +Inf
        self._count = 0
        self._sum = 0.0

    def record(self, seconds: float) -> None:
        self.record_many((seconds,))

    def record_many(self, seconds: Sequence[float]) -> None:
        """Append a batch of samples under one lock acquisition."""
        if not seconds:
            return
        subtotal = sum(seconds)
        bounds = self.bounds
        indices = [bisect_left(bounds, sample) for sample in seconds]
        with self._lock:
            self._samples.extend(seconds)
            bucketed = self._bucketed
            for index in indices:
                bucketed[index] += 1
            self._count += len(seconds)
            self._sum += subtotal

    @contextmanager
    def time(self):
        """Context manager that records the elapsed time of its block."""
        started = time.monotonic()
        try:
            yield self
        finally:
            self.record(time.monotonic() - started)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    def bucket_counts(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, +Inf last."""
        with self._lock:
            counts = list(self._bucketed)
        cumulative: List[Tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.bounds + (math.inf,), counts):
            running += count
            cumulative.append((bound, running))
        return cumulative

    def quantile(self, q: float) -> float:
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        ordered = self._ordered()
        if not ordered:
            return 0.0
        index = min(int(q * len(ordered)), len(ordered) - 1)
        return ordered[index]

    def cdf(self, points: Optional[Sequence[float]] = None) -> List[Tuple[float, float]]:
        """(value, fraction_of_samples <= value) pairs — Fig. 8(c)'s curve."""
        ordered = self._ordered()
        if not ordered:
            return []
        if points is None:
            points = ordered
        total = len(ordered)
        return [(point, bisect_right(ordered, point) / total) for point in points]

    def fraction_below(self, threshold: float) -> float:
        """Fraction of samples strictly below ``threshold`` seconds."""
        retained = self.samples()
        if not retained:
            return 0.0
        return sum(1 for sample in retained if sample < threshold) / len(retained)

    def _ordered(self) -> List[float]:
        with self._lock:
            return sorted(self._samples)

    def samples(self) -> List[float]:
        """The retained (most recent) samples, oldest first."""
        with self._lock:
            return list(self._samples)


@dataclass
class ProcessStats:
    """One statistics report from a workhorse thread, sent periodically as a
    STATS message to the center controller."""

    source: str
    steps: int = 0
    episodes: int = 0
    episode_returns: List[float] = field(default_factory=list)
    messages_sent: int = 0
    bytes_sent: int = 0
    train_iterations: int = 0
    extra: Dict[str, float] = field(default_factory=dict)


class StatsCollector:
    """Aggregates :class:`ProcessStats` reports at the center controller.

    Tracks total consumed rollout steps (the stop condition "the learner has
    consumed enough rollout steps", §3.2.2) and recent average episode
    return ("explorers have received the target return").
    """

    def __init__(self, return_window: int = 100):
        self._lock = make_lock("stats.collector")
        self._reports: List[ProcessStats] = []
        self._returns: List[float] = []
        self._return_window = return_window
        self.total_env_steps = 0
        self.total_trained_steps = 0
        self.total_train_iterations = 0
        #: STATS messages whose body was not a report (lost or mangled in
        #: transit) and was therefore skipped
        self.malformed_reports = 0
        # Fault-tolerance counters (filled by the supervisor).
        self.failures = 0
        self.restarts = 0
        self._failures_by: Dict[str, int] = {}
        self._restarts_by: Dict[str, int] = {}

    def add(self, report: ProcessStats) -> None:
        """Fold one report in; anything that is not a report (a faulty link
        can deliver a STATS header with no body) is counted and skipped."""
        with self._lock:
            if not isinstance(report, ProcessStats):
                self.malformed_reports += 1
                return
            self._reports.append(report)
            self._returns.extend(report.episode_returns)
            self.total_env_steps += report.steps
            self.total_train_iterations += report.train_iterations
            self.total_trained_steps += int(report.extra.get("trained_steps", 0))

    def average_return(self) -> Optional[float]:
        with self._lock:
            if not self._returns:
                return None
            window = self._returns[-self._return_window :]
            return sum(window) / len(window)

    def episode_count(self) -> int:
        with self._lock:
            return len(self._returns)

    def returns(self) -> List[float]:
        with self._lock:
            return list(self._returns)

    def report_count(self) -> int:
        with self._lock:
            return len(self._reports)

    # -- fault-tolerance accounting ----------------------------------------
    def record_failure(self, source: str) -> None:
        """Count one detected worker death (crash or missed heartbeats)."""
        with self._lock:
            self.failures += 1
            self._failures_by[source] = self._failures_by.get(source, 0) + 1

    def record_restart(self, source: str) -> None:
        """Count one successful worker restart."""
        with self._lock:
            self.restarts += 1
            self._restarts_by[source] = self._restarts_by.get(source, 0) + 1

    def failure_counts(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._failures_by)

    def restart_counts(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._restarts_by)
