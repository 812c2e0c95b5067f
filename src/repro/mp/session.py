"""One-call multi-process runs.

:class:`MpSession` spawns one OS process per explorer (each builds its
Environment/Model/Algorithm/Agent from registry *names*, so nothing
unpicklable crosses the fork), runs the learner's trainer loop in the
calling process, and connects them with :class:`MpChannel` queues over
shared-memory segments.  This is the paper's §4.1 implementation shape
with real parallelism — no GIL sharing between environment interaction and
training.
"""

from __future__ import annotations

import glob
import multiprocessing as mp
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from ..core.stats import LatencyRecorder, ThroughputMeter
from ..core.tracing import Tracer, emit, write_events
from .channel import TRACE_META, MpChannel, SharedSlabPool, discard_body


@dataclass
class MpRunResult:
    elapsed_s: float
    trained_steps: int
    train_sessions: int
    rollouts_received: int
    episode_returns: List[float] = field(default_factory=list)
    throughput_steps_per_s: float = 0.0
    mean_wait_s: float = 0.0
    mean_train_s: float = 0.0
    #: per-process JSONL trace files when the session sets ``trace_dir``
    #: (merge them with ``python -m repro.obs.trace``)
    trace_files: List[str] = field(default_factory=list)

    def average_return(self, window: int = 100) -> Optional[float]:
        if not self.episode_returns:
            return None
        recent = self.episode_returns[-window:]
        return float(np.mean(recent))


#: events a process's ``trace_dir`` subscriber holds (a 5 s two-explorer
#: run emits a few thousand)
_TRACE_CAPACITY = 1 << 20


def _write_trace(tracer: Tracer, trace_dir: str, process: str) -> None:
    """Detach ``tracer`` and write what it saw as ``<process>.jsonl``."""
    tracer.detach()
    write_events(
        os.path.join(trace_dir, f"{process}.jsonl"), tracer.events(),
        process=process,
    )


def _explorer_main(
    name: str,
    channel: MpChannel,
    spec: Dict[str, Any],
    stop_event,
) -> None:
    """Explorer process entry point: build from names, then sample-send."""
    # Imports inside the child keep the module picklable under 'spawn'.
    from .. import algorithms as _algorithms  # noqa: F401
    from .. import envs as _envs  # noqa: F401
    from ..api.registry import registry

    env_cls = registry.get("environment", spec["environment"])
    model_cls = registry.get("model", spec["model"])
    algorithm_cls = registry.get("algorithm", spec["algorithm"])
    agent_cls = registry.get("agent", spec.get("agent") or spec["algorithm"])

    env_config = dict(spec.get("env_config", {}))
    env_config.setdefault("seed", spec.get("seed", 0))
    algorithm_config = dict(spec.get("algorithm_config", {}))
    algorithm_config.update({"buffer_size": 1, "learn_start": 1})
    agent_config = dict(spec.get("agent_config", {}))
    agent_config.setdefault("seed", spec.get("seed", 0))

    algorithm = algorithm_cls(model_cls(dict(spec["model_config"])), algorithm_config)
    agent = agent_cls(algorithm, env_cls(env_config), agent_config)
    fragment_steps = int(spec.get("fragment_steps", 200))
    trace_dir = spec.get("trace_dir")
    tracer = Tracer(_TRACE_CAPACITY).attach() if trace_dir is not None else None

    try:
        while not stop_event.is_set():
            weights = channel.poll_weights()
            if weights is not None:
                agent.set_weights(weights)
            rollout, finished = agent.run_fragment(fragment_steps)
            if stop_event.is_set():
                return
            try:
                channel.send_rollout(name, rollout, {"returns": finished})
            except (OSError, ValueError):
                return  # queues torn down during shutdown
    finally:
        if tracer is not None:
            _write_trace(tracer, trace_dir, name)


class MpSession:
    """Spawn explorers as OS processes; train in the calling process.

    ``spec`` mirrors the registry-name fields of :class:`XingTianConfig`:
    ``algorithm``, ``environment``, ``model``, ``model_config`` (must be
    explicit — there is no probe across processes), plus the usual config
    dicts, ``fragment_steps`` and ``seed``.
    """

    def __init__(
        self,
        spec: Dict[str, Any],
        *,
        num_explorers: int = 2,
        broadcast_every: int = 1,
        trace_dir: Optional[str] = None,
        use_pool: bool = True,
        pool_block_bytes: int = 1 << 20,
        pool_blocks: int = 32,
    ):
        if "model_config" not in spec:
            raise ValueError("mp spec needs an explicit model_config")
        self.spec = dict(spec)
        self.num_explorers = num_explorers
        self.broadcast_every = broadcast_every
        #: when set, every process writes its trace ring here as JSONL
        #: (``<process>.jsonl``) at shutdown; use a fresh directory per run
        self.trace_dir = trace_dir
        self.use_pool = use_pool
        self.pool_block_bytes = pool_block_bytes
        self.pool_blocks = pool_blocks
        self._context = mp.get_context("fork")

    def run(
        self,
        *,
        max_trained_steps: Optional[int] = None,
        max_seconds: Optional[float] = None,
    ) -> MpRunResult:
        if max_trained_steps is None and max_seconds is None:
            raise ValueError("need a stop criterion")
        from .. import algorithms as _algorithms  # noqa: F401
        from ..api.registry import registry

        model_cls = registry.get("model", self.spec["model"])
        algorithm_cls = registry.get("algorithm", self.spec["algorithm"])
        algorithm_config = dict(self.spec.get("algorithm_config", {}))
        algorithm_config.setdefault(
            "num_explorers", self.num_explorers
        )
        algorithm = algorithm_cls(
            model_cls(dict(self.spec["model_config"])), algorithm_config
        )

        stop_event = self._context.Event()
        # The slab pool must exist before forking so every explorer inherits
        # the mapping; all channels share the one pool and its free list.
        pool = (
            SharedSlabPool(
                self._context,
                block_bytes=self.pool_block_bytes,
                num_blocks=self.pool_blocks,
            )
            if self.use_pool
            else None
        )
        channels = [MpChannel(pool=pool) for _ in range(self.num_explorers)]
        workers = []
        for index, channel in enumerate(channels):
            spec = dict(self.spec)
            spec["seed"] = int(self.spec.get("seed", 0)) + index
            spec["trace_dir"] = self.trace_dir
            worker = self._context.Process(
                target=_explorer_main,
                args=(f"explorer-{index}", channel, spec, stop_event),
                daemon=True,
            )
            workers.append(worker)

        # The trainer loop's instruments, kept under the names a
        # LearnerProcess gives its own (``MetricsRegistry.expose`` exports
        # the recorders of a finished run).
        consumed = self.consumed_meter = ThroughputMeter()
        wait_recorder = self.wait_recorder = LatencyRecorder("mp.wait")
        train_recorder = self.train_recorder = LatencyRecorder("mp.train")
        episode_returns: List[float] = []
        rollouts_received = 0
        train_sessions = 0
        tracer = Tracer(_TRACE_CAPACITY) if self.trace_dir is not None else None

        started = time.monotonic()
        deadline = started + max_seconds if max_seconds else None
        for worker in workers:
            worker.start()
        try:
            if tracer is not None:
                tracer.attach()
            while True:
                if deadline is not None and time.monotonic() >= deadline:
                    break
                if (
                    max_trained_steps is not None
                    and consumed.total >= max_trained_steps
                ):
                    break
                wait_started = time.monotonic()
                received = None
                for channel in channels:
                    received = channel.receive_rollout(timeout=0.02)
                    if received is not None:
                        break
                if received is None:
                    continue
                waited = time.monotonic() - wait_started
                wait_recorder.record(waited)
                explorer, rollout, metadata = received
                context = metadata.pop(TRACE_META, None)
                if context is not None:
                    emit("delivered", "learner.recv", context)
                episode_returns.extend(metadata.get("returns", []))
                rollouts_received += 1
                algorithm.prepare_data(rollout, source=explorer)
                if context is not None:
                    emit("consumed", "learner.recv", context)
                while algorithm.ready_to_train():
                    emit("train_start", "learner")
                    with train_recorder.time():
                        metrics = algorithm.train()
                    emit("train_end", "learner")
                    train_sessions += 1
                    consumed.record(int(metrics.get("trained_steps", 0)))
                    if train_sessions % self.broadcast_every == 0:
                        weights = algorithm.get_weights()
                        targets = algorithm.broadcast_targets(
                            [f"explorer-{i}" for i in range(self.num_explorers)]
                        )
                        for index, channel in enumerate(channels):
                            if f"explorer-{index}" in targets:
                                channel.push_weights(weights)
        finally:
            stop_event.set()
            elapsed = time.monotonic() - started
            for worker in workers:
                worker.join(timeout=3.0)
                if worker.is_alive():
                    worker.terminate()
                    worker.join(timeout=2.0)
            self._drain(channels)
            if pool is not None:
                pool.close()
            if tracer is not None:
                _write_trace(tracer, self.trace_dir, "learner")
        trace_files: List[str] = []
        if self.trace_dir is not None:
            # Explorer files were written by the (now-joined) children.
            trace_files = sorted(
                glob.glob(os.path.join(self.trace_dir, "*.jsonl"))
            )
        return MpRunResult(
            elapsed_s=elapsed,
            trained_steps=int(consumed.total),
            train_sessions=train_sessions,
            rollouts_received=rollouts_received,
            episode_returns=episode_returns,
            throughput_steps_per_s=consumed.total / max(elapsed, 1e-9),
            mean_wait_s=wait_recorder.mean(),
            mean_train_s=train_recorder.mean(),
            trace_files=trace_files,
        )

    @staticmethod
    def _drain(channels: List[MpChannel]) -> None:
        """Free storage still referenced by queued handles (both kinds:
        pooled blocks go back to the free list, segments are unlinked)."""
        for channel in channels:
            while True:
                try:
                    _, handle, _ = channel.headers.get_nowait()
                except Exception:
                    break
                discard_body(handle, channel.pool)
            while True:
                try:
                    handle = channel.weights.get_nowait()
                except Exception:
                    break
                discard_body(handle, channel.pool)
