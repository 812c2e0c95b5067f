"""Acme/Launchpad/Reverb-like framework: the central-buffer model (§2.2, §5.1).

"Several DRL frameworks always insert a data management buffer between the
explorers and the learner, and make them always communicate indirectly
through the buffer."  The buffer is a single server: every insert and every
sample is one RPC processed serially by the server thread, with the server
re-serializing payloads at its own (modest) processing bandwidth — the
bottleneck the paper observes ("the data buffer based on Reverb is the
bottleneck", Fig. 4: under 2 MB/s regardless of explorer count).
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from ..api.agent import Agent
from ..core.concurrency import spawn_thread
from ..core.serialization import payload_nbytes
from ..core.stats import LatencyRecorder, ThroughputMeter


class BufferServer:
    """The central data buffer as a single-threaded RPC server.

    Requests (inserts and samples) queue up and are processed one at a
    time.  Each request charges ``item_overhead`` seconds (per-op RPC and
    chunking cost) plus ``nbytes / processing_bandwidth`` (the server
    deserializes, stores, and re-serializes every payload it handles).
    """

    def __init__(
        self,
        *,
        capacity: int = 1_000_000,
        processing_bandwidth: float = 50e6,
        item_overhead: float = 0.002,
    ):
        if processing_bandwidth <= 0:
            raise ValueError("processing_bandwidth must be positive")
        self.capacity = capacity
        self.processing_bandwidth = processing_bandwidth
        self.item_overhead = item_overhead
        self._items: Deque[Tuple[Any, int]] = deque()
        self._requests: "queue.Queue[Optional[Tuple[str, Any, Any]]]" = queue.Queue()
        self._stopped = threading.Event()
        self.total_inserted = 0
        self.total_sampled = 0
        self.bytes_processed = 0
        self._thread = spawn_thread("buffer-server", self._serve)

    # -- client API (each call blocks until the server processed it) -----------
    def insert(self, item: Any, timeout: Optional[float] = None) -> None:
        """Rate-limited insert: returns once the server has stored the item."""
        done = threading.Event()
        self._requests.put(("insert", item, done))
        if not done.wait(timeout=timeout):
            raise TimeoutError("buffer server did not accept the insert in time")

    def sample(self, timeout: Optional[float] = None) -> Any:
        """Blocking sample of the oldest item (FIFO trajectory queue)."""
        slot: Dict[str, Any] = {}
        done = threading.Event()
        self._requests.put(("sample", slot, done))
        if not done.wait(timeout=timeout):
            raise TimeoutError("buffer server did not serve the sample in time")
        if "error" in slot:
            raise slot["error"]
        return slot["item"]

    def __len__(self) -> int:
        return len(self._items)

    def stop(self) -> None:
        self._stopped.set()
        self._requests.put(None)
        self._thread.join(timeout=5.0)

    # -- server loop ----------------------------------------------------------
    def _serve(self) -> None:
        while not self._stopped.is_set():
            try:
                request = self._requests.get(timeout=0.25)
            except queue.Empty:
                continue
            if request is None:
                return
            kind, payload, done = request
            if kind == "insert":
                nbytes = payload_nbytes(payload)
                self._charge(nbytes)
                self._items.append((payload, nbytes))
                if len(self._items) > self.capacity:
                    self._items.popleft()
                self.total_inserted += 1
                done.set()
            elif kind == "sample":
                slot = payload
                item = self._wait_for_item()
                if item is None:
                    slot["error"] = RuntimeError("buffer server stopped")
                    done.set()
                    continue
                body, nbytes = item
                self._charge(nbytes)
                self.total_sampled += 1
                slot["item"] = body
                done.set()

    def _wait_for_item(self) -> Optional[Tuple[Any, int]]:
        """Serve queued inserts until an item is available to sample."""
        while not self._items:
            try:
                request = self._requests.get(timeout=0.25)
            except queue.Empty:
                if self._stopped.is_set():
                    return None
                continue
            if request is None:
                return None
            kind, payload, done = request
            if kind == "insert":
                nbytes = payload_nbytes(payload)
                self._charge(nbytes)
                self._items.append((payload, nbytes))
                self.total_inserted += 1
                done.set()
            else:
                # A second sampler while starving: re-queue behind us.
                self._requests.put(request)
        return self._items.popleft()

    def _charge(self, nbytes: int) -> None:
        if self.item_overhead > 0:
            time.sleep(self.item_overhead)
        if nbytes > 0:
            time.sleep(nbytes / self.processing_bandwidth)
        self.bytes_processed += nbytes


class BufferWorker:
    """An explorer that pushes every fragment into the central buffer."""

    def __init__(
        self,
        name: str,
        agent_factory: Callable[[], Agent],
        server: BufferServer,
        fragment_steps: int = 200,
    ):
        self.name = name
        self.agent = agent_factory()
        self.server = server
        self.fragment_steps = fragment_steps
        self._stopped = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.episode_returns: List[float] = []
        self.steps_meter = ThroughputMeter()

    def start(self) -> None:
        self._thread = spawn_thread(self.name, self._run)

    def _run(self) -> None:
        while not self._stopped.is_set():
            rollout, finished = self.agent.run_fragment(self.fragment_steps)
            self.episode_returns.extend(finished)
            self.steps_meter.record(len(rollout.get("reward", ())))
            try:
                self.server.insert(rollout, timeout=10.0)
            except (TimeoutError, RuntimeError):
                if self._stopped.is_set():
                    return

    def stop(self) -> None:
        self._stopped.set()
        if self._thread is not None:
            self._thread.join(timeout=10.0)


class BufferFrameworkTrainer:
    """The learner side: samples fragments from the buffer server and trains."""

    def __init__(self, algorithm, server: BufferServer):
        self.algorithm = algorithm
        self.server = server
        self.consumed_meter = ThroughputMeter()
        self.sample_recorder = LatencyRecorder("buffer.sample")
        self.train_recorder = LatencyRecorder("buffer.train")
        self.train_sessions = 0

    def run(
        self,
        *,
        max_trained_steps: Optional[int] = None,
        max_seconds: Optional[float] = None,
    ) -> None:
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
            try:
                with self.sample_recorder.time():
                    rollout = self.server.sample(timeout=5.0)
            except TimeoutError:
                continue
            self.algorithm.prepare_data(rollout, source="buffer")
            while self.algorithm.ready_to_train():
                with self.train_recorder.time():
                    metrics = self.algorithm.train()
                self.train_sessions += 1
                self.consumed_meter.record(int(metrics.get("trained_steps", 0)))
