"""RLLib-like framework: the pull communication model (§2.2, §5).

Faithful to what the paper measures about RLLib:

* remote rollout workers compute **in parallel** (Ray gets that right);
* but every data transfer is **receiver-initiated**: the central driver
  calls ``sample()`` and pays serialize + wire + deserialize inline, then
  trains, then pushes weights inline — communication and computation are
  strictly serial on the driver;
* for replay algorithms (DQN), the replay buffer is a separate **actor**:
  inserts and samples each cross a process boundary via RPC (Fig. 9).

Workers reuse the zoo's :class:`Agent` and the trainer reuses the zoo's
:class:`Algorithm`, so XingTian and the baseline train literally the same
computation — only the communication management differs.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Any, Callable, Dict, List, Optional

from ..api.agent import Agent
from ..api.algorithm import Algorithm
from ..core.concurrency import spawn_thread
from ..core.stats import LatencyRecorder, ThroughputMeter
from ..replay import ReplayBuffer
from .rpc import RpcChannel, RpcFuture, wait_any


class RaylikeWorker:
    """A remote rollout worker: computes when asked, holds results until
    the driver pulls them."""

    def __init__(self, name: str, agent_factory: Callable[[], Agent]):
        self.name = name
        self.agent = agent_factory()
        self._requests: "queue.Queue[Optional[Tuple[int, RpcFuture]]]" = queue.Queue()
        self._stopped = threading.Event()
        self.episode_returns: List[float] = []
        self.steps_meter = ThroughputMeter()
        self._thread = spawn_thread(name, self._run)

    def sample_async(self, fragment_steps: int) -> RpcFuture:
        """Request one rollout fragment; compute happens on the worker."""
        future = RpcFuture()
        self._requests.put((fragment_steps, future))
        return future

    def set_weights(self, weights) -> None:
        """Applied synchronously by the driver's push call."""
        self.agent.set_weights(weights)

    def _run(self) -> None:
        while not self._stopped.is_set():
            try:
                request = self._requests.get(timeout=0.25)
            except queue.Empty:
                continue
            if request is None:
                return
            fragment_steps, future = request
            try:
                rollout, finished = self.agent.run_fragment(fragment_steps)
            except BaseException as exc:  # noqa: BLE001 - surfaced via future
                future.set_error(exc)
                continue
            self.episode_returns.extend(finished)
            self.steps_meter.record(len(rollout.get("reward", ())))
            future.set_result(rollout)

    def stop(self) -> None:
        self._stopped.set()
        self._requests.put(None)
        self._thread.join(timeout=5.0)


class ReplayActor:
    """The replay buffer as a separate process-like actor (RLLib's layout).

    All access goes through :meth:`insert` / :meth:`sample`, which callers
    invoke via an :class:`RpcChannel` so the cross-process cost is charged.
    """

    def __init__(self, capacity: int, seed: Optional[int] = None):
        self._buffer = ReplayBuffer(capacity, seed=seed)
        self._lock = threading.Lock()

    def insert(self, rollout: Dict[str, Any]) -> int:
        with self._lock:
            return self._buffer.add_rollout(rollout)

    def sample(self, batch_size: int) -> Dict[str, Any]:
        with self._lock:
            return self._buffer.sample(batch_size)

    def __len__(self) -> int:
        with self._lock:
            return len(self._buffer)


class RaylikeTrainer:
    """The central driver: task-graph-style control loop over remote workers.

    ``mode`` selects the per-algorithm execution order the paper describes:

    * ``"sync"``  — PPO (Fig. 1a): sample all workers, pull all rollouts,
      train once on everything, push weights to all;
    * ``"async"`` — IMPALA (Fig. 1c): pull the first ready rollout, train on
      it, push weights back to that worker only;
    * ``"replay"`` — DQN (Fig. 1b): pull rollouts, insert into the replay
      *actor* via RPC, then sample batches from the actor via RPC and train.

    Instrumented with the same quantities as XingTian's learner so Figs.
    8-10 can chart both sides: consumed-steps meter, transfer/sample
    latency, training latency.
    """

    def __init__(
        self,
        algorithm: Algorithm,
        workers: List[RaylikeWorker],
        *,
        mode: str,
        fragment_steps: int = 200,
        channel: Optional[RpcChannel] = None,
        replay_actor: Optional[ReplayActor] = None,
        replay_channel: Optional[RpcChannel] = None,
        batch_size: int = 32,
        train_every: int = 4,
        learn_start: int = 1_000,
    ):
        if mode not in ("sync", "async", "replay"):
            raise ValueError(f"unknown mode {mode!r}")
        if mode == "replay" and replay_actor is None:
            raise ValueError("replay mode needs a replay_actor")
        self.algorithm = algorithm
        self.workers = workers
        self.mode = mode
        self.fragment_steps = fragment_steps
        self.channel = channel or RpcChannel()
        self.replay_actor = replay_actor
        self.replay_channel = replay_channel or self.channel
        self.batch_size = batch_size
        self.train_every = train_every
        self.learn_start = learn_start
        # Instrumentation.
        self.consumed_meter = ThroughputMeter()
        self.transfer_recorder = LatencyRecorder("raylike.transfer")
        self.train_recorder = LatencyRecorder("raylike.train")
        self.train_sessions = 0
        self.episode_returns: List[float] = []
        self._pending: List[Optional[RpcFuture]] = [None] * len(workers)
        self._replay_backlog = 0

    # -- public loop --------------------------------------------------------------
    def run(
        self,
        *,
        max_trained_steps: Optional[int] = None,
        max_seconds: Optional[float] = None,
    ) -> None:
        """Drive iterations until a budget is exhausted."""
        if max_trained_steps is None and max_seconds is None:
            raise ValueError("need a stop criterion")
        deadline = time.monotonic() + max_seconds if max_seconds else None
        while True:
            if deadline is not None and time.monotonic() >= deadline:
                return
            if (
                max_trained_steps is not None
                and self.consumed_meter.total >= max_trained_steps
            ):
                return
            self.run_iteration()

    def run_iteration(self) -> Dict[str, float]:
        if self.mode == "sync":
            return self._iteration_sync()
        if self.mode == "async":
            return self._iteration_async()
        return self._iteration_replay()

    def stop(self) -> None:
        for worker in self.workers:
            worker.stop()

    # -- the three execution orders -------------------------------------------------
    def _iteration_sync(self) -> Dict[str, float]:
        futures = [
            worker.sample_async(self.fragment_steps) for worker in self.workers
        ]
        rollouts = []
        with self.transfer_recorder.time():
            for worker, future in zip(self.workers, futures):
                rollouts.append(self._fetch(future))
        for worker, rollout in zip(self.workers, rollouts):
            self.algorithm.prepare_data(rollout, source=worker.name)
        metrics = self._train_ready()
        weights = self.algorithm.get_weights()
        with self.transfer_recorder.time():
            for worker in self.workers:
                self._push_weights(worker, weights)
        self._harvest_returns()
        return metrics

    def _iteration_async(self) -> Dict[str, float]:
        for index, worker in enumerate(self.workers):
            if self._pending[index] is None:
                self._pending[index] = worker.sample_async(self.fragment_steps)
        ready = wait_any([f for f in self._pending if f is not None])
        # Map back to the worker index (skipping exhausted slots).
        live = [i for i, f in enumerate(self._pending) if f is not None]
        index = live[ready]
        with self.transfer_recorder.time():
            rollout = self._fetch(self._pending[index])
        self._pending[index] = None
        worker = self.workers[index]
        self.algorithm.prepare_data(rollout, source=worker.name)
        metrics = self._train_ready()
        with self.transfer_recorder.time():
            self._push_weights(worker, self.algorithm.get_weights())
        self._harvest_returns()
        return metrics

    def _iteration_replay(self) -> Dict[str, float]:
        assert self.replay_actor is not None
        worker = self.workers[0]
        future = worker.sample_async(self.fragment_steps)
        with self.transfer_recorder.time():
            rollout = self._fetch(future)
            # Rollout crosses into the replay actor's process, too.
            added = self.replay_channel.call(self.replay_actor.insert, rollout)
        self._replay_backlog += added
        metrics: Dict[str, float] = {}
        if len(self.replay_actor) >= self.learn_start:
            while self._replay_backlog >= self.train_every:
                self._replay_backlog -= self.train_every
                with self.transfer_recorder.time():
                    batch = self.replay_channel.call(
                        self.replay_actor.sample, self.batch_size
                    )
                with self.train_recorder.time():
                    metrics = self._train_on_batch(batch)
                self.train_sessions += 1
                self.consumed_meter.record(self.batch_size)
                if self.algorithm.should_broadcast():
                    with self.transfer_recorder.time():
                        self._push_weights(worker, self.algorithm.get_weights())
        self._harvest_returns()
        return metrics

    # -- helpers -----------------------------------------------------------------
    def _fetch(self, future: RpcFuture) -> Dict[str, Any]:
        """ray.get analogue: wait for the worker, then pay the transfer."""
        rollout = future.result()
        self.channel.transfer(rollout)
        return rollout

    def _push_weights(self, worker: RaylikeWorker, weights) -> None:
        self.channel.transfer(weights)
        worker.set_weights(weights)

    def _train_ready(self) -> Dict[str, float]:
        metrics: Dict[str, float] = {}
        while self.algorithm.ready_to_train():
            with self.train_recorder.time():
                metrics = self.algorithm.train()
            self.train_sessions += 1
            self.consumed_meter.record(int(metrics.get("trained_steps", 0)))
        return metrics

    def _train_on_batch(self, batch: Dict[str, Any]) -> Dict[str, float]:
        """DQN path: train directly on an RPC-fetched batch.

        The algorithm's internal replay is bypassed — the actor owns the
        data — so we feed the batch through a one-shot buffer.
        """
        self.algorithm.replay._storage = []  # type: ignore[attr-defined]
        self.algorithm.replay._next_index = 0  # type: ignore[attr-defined]
        self.algorithm.replay.add_rollout(batch)
        self.algorithm._pending_inserts = self.algorithm.train_every  # type: ignore[attr-defined]
        return self.algorithm.train()

    def _harvest_returns(self) -> None:
        for worker in self.workers:
            if worker.episode_returns:
                self.episode_returns.extend(worker.episode_returns)
                worker.episode_returns = []

    def average_return(self, window: int = 100) -> Optional[float]:
        if not self.episode_returns:
            return None
        recent = self.episode_returns[-window:]
        return sum(recent) / len(recent)
