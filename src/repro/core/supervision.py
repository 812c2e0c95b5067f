"""Supervision: heartbeats, failure detection, and restart policies.

The paper's decentralized design (§3.2) has no central task graph that
would notice a dead worker, so this module adds an explicit supervision
layer, the way production DRL platforms do (Fiber restarts failed workers
transparently; MALib supervises rollout actors independently of the
learner):

* every explorer/learner workhorse periodically sends a
  :data:`~repro.core.message.MsgType.HEARTBEAT` message to the center
  controller's endpoint;
* a :class:`Supervisor` (a thread inside the center controller) runs a
  per-process failure-detector state machine —
  ``ALIVE → SUSPECT → DEAD`` on missed beats, with captured workhorse
  exceptions short-circuiting straight to ``DEAD``;
* a :class:`RestartPolicy` grants each process a restart budget with
  exponential backoff; DEAD processes with remaining budget are rebuilt
  from their factory (explorers re-register with the broker; the learner
  additionally restores the latest :class:`~repro.core.checkpoint.Checkpointer`
  snapshot);
* when a process is irrecoverably dead the supervisor either degrades
  gracefully (keep training with survivors) or fails the run with
  :class:`~repro.core.errors.TrainingFailedError`, depending on
  ``allow_degraded``.

The state machine is driven by :meth:`Supervisor.poll_once`, which takes an
injectable clock so unit tests can single-step it deterministically.
"""

from __future__ import annotations

import logging
import random
import threading
import time
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Dict, List, Optional

from .concurrency import make_rlock, spawn_thread
from .errors import ConfigError, TrainingFailedError
from .stats import StatsCollector
from .tracing import dump_all

LOG = logging.getLogger("repro.supervision")


class ProcessState(str, Enum):
    """Failure-detector verdict for one supervised process."""

    ALIVE = "alive"
    SUSPECT = "suspect"
    DEAD = "dead"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass
class RestartPolicy:
    """Restart budget + exponential-backoff schedule.

    Restart ``k`` (0-based) is delayed by
    ``min(backoff_base * 2**k, backoff_max)`` seconds, plus up to
    ``jitter`` fraction of that delay drawn from the supervisor's seeded
    RNG — deterministic under a fixed seed, desynchronized across fleets.
    """

    max_restarts: int = 3
    backoff_base: float = 0.25
    backoff_max: float = 10.0
    jitter: float = 0.0

    def validate(self) -> None:
        if self.max_restarts < 0:
            raise ConfigError("max_restarts must be >= 0")
        if self.backoff_base < 0:
            raise ConfigError("backoff_base must be >= 0")
        if self.backoff_max < self.backoff_base:
            raise ConfigError("backoff_max must be >= backoff_base")
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigError("jitter must be in [0, 1]")

    def delay(self, attempt: int, rng: Optional[random.Random] = None) -> float:
        """Backoff before restart number ``attempt`` (0-based)."""
        if attempt < 0:
            raise ValueError("attempt must be >= 0")
        base = min(self.backoff_base * (2.0 ** attempt), self.backoff_max)
        if self.jitter and rng is not None:
            base += rng.random() * self.jitter * base
        return base

    def schedule(self, rng: Optional[random.Random] = None) -> List[float]:
        """The full backoff schedule for this policy's budget."""
        return [self.delay(attempt, rng) for attempt in range(self.max_restarts)]


class _Watched:
    """Book-keeping for one supervised process."""

    def __init__(
        self,
        name: str,
        process: Any,
        kind: str,
        restart: Optional[Callable[[Any], Any]],
        now: float,
    ):
        self.name = name
        self.process = process
        self.kind = kind
        self.restart_fn = restart
        self.state = ProcessState.ALIVE
        self.last_beat = now
        self.restarts = 0
        self.restart_due: Optional[float] = None
        self.restarting = False  # a restart_fn call is in flight
        self.last_error: Optional[BaseException] = None
        self.exhausted = False  # DEAD with no restart budget left

    def workhorse_error(self) -> Optional[BaseException]:
        workhorse = getattr(self.process, "workhorse", None)
        return getattr(workhorse, "error", None)


class Supervisor:
    """Centralized failure detector + restarter for a cluster's workhorses.

    ``suspect_after``/``dead_after`` are seconds since the last heartbeat.
    ``clock`` is injectable for deterministic unit tests; the background
    thread (started via :meth:`start`) simply calls :meth:`poll_once` on an
    interval, so tests can drive the state machine manually instead.
    """

    def __init__(
        self,
        *,
        suspect_after: float = 1.0,
        dead_after: float = 2.5,
        policy: Optional[RestartPolicy] = None,
        collector: Optional[StatsCollector] = None,
        allow_degraded: bool = False,
        clock: Callable[[], float] = time.monotonic,
        seed: Optional[int] = None,
        poll_interval: float = 0.05,
    ):
        if dead_after <= suspect_after:
            raise ConfigError("dead_after must be > suspect_after")
        self.suspect_after = suspect_after
        self.dead_after = dead_after
        self.policy = policy or RestartPolicy()
        self.policy.validate()
        self.collector = collector
        self.allow_degraded = allow_degraded
        self.poll_interval = poll_interval
        self._clock = clock
        self._rng = random.Random(seed)
        self._lock = make_rlock("supervisor")
        self._watched: Dict[str, _Watched] = {}
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()

    # -- registration -------------------------------------------------------
    def watch(
        self,
        name: str,
        process: Any,
        *,
        kind: str = "explorer",
        restart: Optional[Callable[[Any], Any]] = None,
    ) -> None:
        """Supervise ``process``.

        ``restart`` takes the dead process object and must return a started
        replacement; ``None`` means the process cannot be restarted and any
        death is terminal for it.
        """
        with self._lock:
            self._watched[name] = _Watched(name, process, kind, restart, self._clock())

    def observe_heartbeat(self, name: str) -> None:
        """Record a heartbeat (called from the controller's monitor loop)."""
        with self._lock:
            watched = self._watched.get(name)
            if watched is None:
                return
            watched.last_beat = self._clock()

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = spawn_thread("supervisor", self._run)

    def stop(self, timeout: float = 5.0) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None

    def _run(self) -> None:
        while not self._stop.wait(self.poll_interval):
            self.poll_once()

    # -- the state machine --------------------------------------------------
    def poll_once(self, now: Optional[float] = None) -> None:
        """Advance every watched process's failure-detector state machine."""
        if now is None:
            now = self._clock()
        with self._lock:
            watched_list = list(self._watched.values())
        for watched in watched_list:
            self._poll_process(watched, now)

    def _poll_process(self, watched: _Watched, now: float) -> None:
        with self._lock:
            if watched.exhausted or watched.restarting:
                return
            if watched.restart_due is not None:
                if now < watched.restart_due:
                    return
                watched.restart_due = None
                watched.restarting = True
            else:
                error = watched.workhorse_error()
                if error is not None:
                    watched.last_error = error
                    self._mark_dead(watched, now, f"workhorse crashed: {error!r}")
                    return
                silent_for = now - watched.last_beat
                if silent_for >= self.dead_after:
                    self._mark_dead(
                        watched, now, f"no heartbeat for {silent_for:.2f}s"
                    )
                elif silent_for >= self.suspect_after:
                    if watched.state == ProcessState.ALIVE:
                        watched.state = ProcessState.SUSPECT
                        LOG.warning(
                            "supervisor: %s SUSPECT (no heartbeat for %.2fs)",
                            watched.name, silent_for,
                        )
                elif watched.state == ProcessState.SUSPECT:
                    watched.state = ProcessState.ALIVE
                    LOG.info("supervisor: %s recovered to ALIVE", watched.name)
                return
        # The backoff expired: run the (potentially slow) restart callable
        # without holding the lock, so heartbeats from healthy processes keep
        # being recorded while an old process is torn down and rebuilt.
        self._restart(watched, now)

    def _mark_dead(self, watched: _Watched, now: float, reason: str) -> None:
        # Callers hold self._lock.
        watched.state = ProcessState.DEAD
        LOG.error("supervisor: %s DEAD (%s)", watched.name, reason)
        if self.collector is not None:
            self.collector.record_failure(watched.name)
        can_restart = (
            watched.restart_fn is not None
            and watched.restarts < self.policy.max_restarts
        )
        if can_restart:
            delay = self.policy.delay(watched.restarts, self._rng)
            watched.restart_due = now + delay
            LOG.info(
                "supervisor: restarting %s in %.2fs (restart %d/%d)",
                watched.name, delay, watched.restarts + 1, self.policy.max_restarts,
            )
        else:
            watched.exhausted = True
            LOG.error(
                "supervisor: %s is irrecoverable (restart budget %d exhausted)",
                watched.name, self.policy.max_restarts,
            )

    def _restart(self, watched: _Watched, now: float) -> None:
        try:
            replacement = watched.restart_fn(watched.process)
        except Exception as exc:  # noqa: BLE001 - a failed restart re-enters DEAD
            LOG.error("supervisor: restart of %s failed: %r", watched.name, exc)
            with self._lock:
                watched.restarting = False
                watched.restarts += 1
                self._mark_dead(watched, now, f"restart failed: {exc!r}")
            return
        with self._lock:
            watched.process = replacement
            watched.restarts += 1
            watched.state = ProcessState.ALIVE
            watched.last_beat = self._clock()
            watched.restarting = False
        if self.collector is not None:
            self.collector.record_restart(watched.name)
        LOG.warning(
            "supervisor: restarted %s (restart %d/%d)",
            watched.name, watched.restarts, self.policy.max_restarts,
        )

    # -- introspection ------------------------------------------------------
    def state(self, name: str) -> ProcessState:
        with self._lock:
            return self._watched[name].state

    def states(self) -> Dict[str, ProcessState]:
        with self._lock:
            return {name: w.state for name, w in self._watched.items()}

    def restarts(self, name: Optional[str] = None) -> int:
        with self._lock:
            if name is not None:
                return self._watched[name].restarts
            return sum(w.restarts for w in self._watched.values())

    def process(self, name: str) -> Any:
        """The currently-live process object for ``name`` (post-restart)."""
        with self._lock:
            return self._watched[name].process

    # -- failure policy -----------------------------------------------------
    def failure(self) -> Optional[str]:
        """Reason string when the run can no longer make progress.

        With ``allow_degraded=False`` (default) any irrecoverable worker
        fails the run.  With ``allow_degraded=True`` training continues on
        survivors: the run only fails once the learner is irrecoverable or
        *every* explorer is.
        """
        with self._lock:
            exhausted = [w for w in self._watched.values() if w.exhausted]
            if not exhausted:
                return None
            if not self.allow_degraded:
                names = ", ".join(sorted(w.name for w in exhausted))
                return (
                    f"worker(s) {names} dead with restart budget exhausted "
                    f"(max_restarts={self.policy.max_restarts})"
                )
            dead_learners = [w for w in exhausted if w.kind == "learner"]
            if dead_learners:
                return (
                    f"learner {dead_learners[0].name} dead with restart "
                    "budget exhausted"
                )
            explorers = [w for w in self._watched.values() if w.kind == "explorer"]
            if explorers and all(w.exhausted for w in explorers):
                return (
                    f"all {len(explorers)} explorers dead with restart "
                    "budget exhausted"
                )
            return None

    def check(self) -> None:
        """Raise :class:`TrainingFailedError` when the run is unrecoverable."""
        reason = self.failure()
        if reason is not None:
            # Preserve the flight-recorder ring before the run dies — the
            # last seconds of channel activity are exactly the post-mortem
            # evidence for *why* the workers went silent.
            dump_all("training_failed")
            raise TrainingFailedError(reason)
