"""The explorer process (§3.2.1).

Hosts the rollout-worker workhorse thread.  The workhorse only reads and
writes the local send/receive buffers; the endpoint's sender/receiver
threads handle everything else.  The loop is data-driven: it applies the
newest weights whenever they arrive, generates a rollout fragment, stages it
for the learner, and — only for on-policy algorithms — blocks until fresh
weights before generating the next fragment (Fig. 1a).
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from ..api.agent import Agent
from .broker import Broker
from .endpoint import ProcessEndpoint, WorkhorseThread
from .errors import WorkerCrashedError
from .message import CMD_SHUTDOWN, MsgType, make_message
from .serialization import payload_nbytes
from .stats import ProcessStats, ThroughputMeter


class ExplorerProcess:
    """One explorer: endpoint + rollout-worker thread + an :class:`Agent`."""

    def __init__(
        self,
        name: str,
        broker: Broker,
        agent_factory: Callable[[], Agent],
        *,
        learner_name: str = "learner",
        controller_name: Optional[str] = None,
        fragment_steps: int = 200,
        stats_interval: float = 0.5,
        heartbeat_interval: Optional[float] = None,
    ):
        self.name = name
        self.endpoint = ProcessEndpoint(name, broker)
        self.agent = agent_factory()
        self.learner_name = learner_name
        self.controller_name = controller_name
        self.fragment_steps = fragment_steps
        self.stats_interval = stats_interval
        #: seconds between HEARTBEAT messages to the controller (None = off)
        self.heartbeat_interval = heartbeat_interval
        self._last_heartbeat = time.monotonic()
        self.heartbeats_sent = 0
        self.workhorse = WorkhorseThread(f"{name}.rollout-worker", self._step)
        self.steps_meter = ThroughputMeter()
        self.fragments_sent = 0
        self.weight_updates = 0
        # On-policy explorers must act with the learner's weights from the
        # very first fragment (their recorded logp must match the trained
        # policy); off-policy explorers start immediately with their own
        # initial weights, as in the paper's DQN/IMPALA (Fig. 1).
        self._awaiting_weights = self.agent.algorithm.on_policy
        self._have_initial_weights = not self.agent.algorithm.on_policy
        self._last_stats = time.monotonic()
        self._pending_returns: list = []
        self._steps_reported = 0
        self._episodes_reported = 0

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        self.endpoint.start()
        self.run()

    def run(self) -> None:
        """Start rollouts (the endpoint is already started)."""
        self.workhorse.start()

    def stop(self, timeout: float = 5.0) -> None:
        self.workhorse.stop()
        self.endpoint.stop(timeout=timeout)
        self.workhorse.join(timeout=timeout)

    def join(self, timeout: Optional[float] = None, *, raise_on_error: bool = True) -> None:
        """Wait for the workhorse; re-raise a captured crash by default.

        A workhorse exception is captured in ``workhorse.error`` — without
        this re-raise a crashed explorer would be silently lost by any
        caller that only ever joins.
        """
        self.workhorse.join(timeout=timeout)
        error = self.workhorse.error
        if raise_on_error and error is not None:
            raise WorkerCrashedError(
                f"explorer {self.name!r} workhorse crashed: {error!r}"
            ) from error

    # -- workhorse loop -------------------------------------------------------
    def _step(self) -> bool:
        self._maybe_send_heartbeat()
        if not self._drain_inbox(
            block=self._awaiting_weights or not self._have_initial_weights
        ):
            return False
        if self._awaiting_weights or not self._have_initial_weights:
            return True  # still waiting; loop and block again
        rollout, finished_returns = self.agent.run_fragment(self.fragment_steps)
        self._pending_returns.extend(finished_returns)
        steps = len(rollout.get("reward", ()))
        self.steps_meter.record(steps)
        message = make_message(
            self.name,
            [self.learner_name],
            MsgType.ROLLOUT,
            rollout,
            body_size=payload_nbytes(rollout),
        )
        self.endpoint.send(message)
        self.fragments_sent += 1
        self._maybe_send_stats()
        if self.agent.algorithm.on_policy:
            self._awaiting_weights = True  # the next step blocks on weights
        else:
            # An off-policy explorer runs fragments back to back and never
            # blocks.  Sharing one interpreter with the learner and the
            # endpoint threads, it hands the GIL over once per fragment:
            # otherwise a thread coming back from a wait or a BLAS call
            # queues behind it for whole switch intervals, and the learner's
            # training sessions stretch from milliseconds to seconds.
            time.sleep(0)
        return True

    def _drain_inbox(self, block: bool) -> bool:
        """Apply newest weights; honour shutdown commands.

        Returns ``False`` to terminate the workhorse.  When ``block`` is
        true the explorer is gated on fresh weights and waits briefly.
        """
        latest_weights = None
        while True:
            timeout = 0.05 if (block and latest_weights is None) else 0.0
            message = self.endpoint.receive(timeout=timeout)
            if message is None:
                if self.endpoint.receive_buffer.closed or self.workhorse.stopping:
                    return False
                break
            if message.msg_type == MsgType.WEIGHTS:
                latest_weights = message.body
            elif message.msg_type == MsgType.COMMAND:
                if getattr(message.body, "name", None) == CMD_SHUTDOWN:
                    return False
        if latest_weights is not None:
            self.agent.set_weights(latest_weights)
            self.weight_updates += 1
            self._awaiting_weights = False
            self._have_initial_weights = True
        return True

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
        # Reports carry per-interval deltas so the collector can sum them.
        steps = int(self.steps_meter.total)
        report = ProcessStats(
            source=self.name,
            steps=steps - self._steps_reported,
            episodes=self.agent.completed_episodes - self._episodes_reported,
            episode_returns=list(self._pending_returns),
            messages_sent=self.fragments_sent,
        )
        self._steps_reported = steps
        self._episodes_reported = self.agent.completed_episodes
        self._pending_returns.clear()
        self.endpoint.send(
            make_message(self.name, [self.controller_name], MsgType.STATS, report)
        )
