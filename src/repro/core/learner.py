"""The learner process (§3.2.1).

Hosts the trainer workhorse thread — almost symmetric to the explorer.  The
trainer consumes ROLLOUT messages from the local receive buffer (into which
the asynchronous channel has already pushed them, possibly while a previous
training session was still running — the overlap the paper exploits),
feeds them to the :class:`Algorithm`, trains whenever the algorithm says it
is ready, and stages WEIGHTS broadcasts.

Instrumented with exactly the quantities the paper's figures report:

* consumed rollout steps/second (throughput, Figs. 8–10a);
* *actual wait* — time the trainer spends blocked on data before a training
  session starts (Figs. 8–10b and the CDF in Fig. 8c);
* per-session training time.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional

from ..api.algorithm import Algorithm
from .broker import Broker
from .checkpoint import Checkpointer
from .endpoint import ProcessEndpoint, WorkhorseThread
from .errors import WorkerCrashedError
from .message import CMD_SHUTDOWN, MsgType, make_message
from .serialization import payload_nbytes
from .stats import LatencyRecorder, ProcessStats, ThroughputMeter
from .tracing import emit


class LearnerProcess:
    """The learner: endpoint + trainer thread + an :class:`Algorithm`."""

    def __init__(
        self,
        name: str,
        broker: Broker,
        algorithm_factory: Callable[[], Algorithm],
        explorer_names: List[str],
        *,
        controller_name: Optional[str] = None,
        stats_interval: float = 0.5,
        broadcast_initial_weights: bool = True,
        heartbeat_interval: Optional[float] = None,
        checkpointer: Optional[Checkpointer] = None,
    ):
        self.name = name
        self.endpoint = ProcessEndpoint(name, broker)
        self.algorithm = algorithm_factory()
        self.explorer_names = list(explorer_names)
        self.controller_name = controller_name
        self.stats_interval = stats_interval
        self._broadcast_initial = broadcast_initial_weights
        #: seconds between HEARTBEAT messages to the controller (None = off)
        self.heartbeat_interval = heartbeat_interval
        self._last_heartbeat = time.monotonic()
        self.heartbeats_sent = 0
        #: periodic weight + optimizer-state snapshots for crash recovery
        self.checkpointer = checkpointer
        self.workhorse = WorkhorseThread(f"{name}.trainer", self._step)
        # Instrumentation (the paper's Figs. 8-10 quantities).
        self.consumed_meter = ThroughputMeter()
        self.wait_recorder = LatencyRecorder(f"{name}.actual-wait")
        self.train_recorder = LatencyRecorder(f"{name}.train-time")
        self.train_sessions = 0
        self.broadcasts = 0
        self._wait_started: Optional[float] = None
        self._last_stats = time.monotonic()
        self._sessions_reported = 0
        self._steps_reported = 0

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        self.endpoint.start()
        self.run()

    def run(self) -> None:
        """Start training (the endpoint is already started)."""
        if self._broadcast_initial:
            self._broadcast(self.explorer_names)
        self.workhorse.start()

    def stop(self, timeout: float = 5.0) -> None:
        self.workhorse.stop()
        self.endpoint.stop(timeout=timeout)
        self.workhorse.join(timeout=timeout)

    def join(self, timeout: Optional[float] = None, *, raise_on_error: bool = True) -> None:
        """Wait for the trainer; re-raise a captured crash by default."""
        self.workhorse.join(timeout=timeout)
        error = self.workhorse.error
        if raise_on_error and error is not None:
            raise WorkerCrashedError(
                f"learner {self.name!r} workhorse crashed: {error!r}"
            ) from error

    # -- trainer loop -----------------------------------------------------------
    def _step(self) -> bool:
        self._maybe_send_heartbeat()
        if self._wait_started is None:
            self._wait_started = time.monotonic()
        message = self.endpoint.receive(timeout=0.05)
        if message is None:
            if self.endpoint.receive_buffer.closed or self.workhorse.stopping:
                return False
            return True
        if message.msg_type == MsgType.COMMAND:
            return getattr(message.body, "name", None) != CMD_SHUTDOWN
        if message.msg_type != MsgType.ROLLOUT:
            return True

        steps = len(message.body.get("reward", ())) if message.body else 0
        self.algorithm.prepare_data(message.body, source=message.src)

        trained = False
        # A replay learner can owe thousands of sessions for what is
        # already staged: a stop request ends the burst, not the backlog.
        while self.algorithm.ready_to_train() and not self.workhorse.stopping:
            # A burst of back-to-back training sessions can outlast the
            # failure detector's dead_after, and the stats interval: keep
            # beating, and reporting what was trained, inside the loop.
            self._maybe_send_heartbeat()
            self._maybe_send_stats()
            # "Actual wait": from going idle to having enough data to train.
            if self._wait_started is not None:
                waited = time.monotonic() - self._wait_started
                self.wait_recorder.record(waited)
                self._wait_started = None
            emit("train_start", self.name)
            with self.train_recorder.time():
                metrics = self.algorithm.train()
            emit("train_end", self.name)
            self.train_sessions += 1
            trained = True
            self.consumed_meter.record(int(metrics.get("trained_steps", steps)))
            if self.algorithm.should_broadcast():
                self._broadcast(self.algorithm.broadcast_targets(self.explorer_names))
        if trained:
            self._wait_started = time.monotonic()
            if self.checkpointer is not None:
                self.checkpointer.maybe_save(self.algorithm)
        self._maybe_send_stats()
        return True

    def _broadcast(self, targets: List[str]) -> None:
        if not targets:
            return
        weights = self.algorithm.get_weights()
        message = make_message(
            self.name,
            list(targets),
            MsgType.WEIGHTS,
            weights,
            body_size=payload_nbytes(weights),
        )
        self.endpoint.send(message)
        self.broadcasts += 1

    def _maybe_send_heartbeat(self) -> None:
        if self.heartbeat_interval is None or self.controller_name is None:
            return
        now = time.monotonic()
        if now - self._last_heartbeat < self.heartbeat_interval:
            return
        self._last_heartbeat = now
        self.endpoint.send(
            make_message(self.name, [self.controller_name], MsgType.HEARTBEAT, None)
        )
        self.heartbeats_sent += 1

    def _maybe_send_stats(self) -> None:
        if self.controller_name is None:
            return
        now = time.monotonic()
        if now - self._last_stats < self.stats_interval:
            return
        self._last_stats = now
        # Per-interval deltas of what the trainer already counts.
        sessions, steps = self.train_sessions, self.consumed_meter.total
        report = ProcessStats(
            source=self.name,
            train_iterations=sessions - self._sessions_reported,
            extra={"trained_steps": steps - self._steps_reported},
        )
        self._sessions_reported, self._steps_reported = sessions, steps
        self.endpoint.send(
            make_message(self.name, [self.controller_name], MsgType.STATS, report)
        )
