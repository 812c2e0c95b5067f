"""Controllers (§3.2.2).

Each machine runs a :class:`Controller` that manages the life cycle of its
local broker and processes.  The controller in the launch machine is the
**center controller**: it collects statistics from explorers and the
learner (arriving as STATS messages at its own endpoint), evaluates the
training-goal stop condition, and broadcasts shutdown commands to the other
controllers over the fully-connected control fabric.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, List, Optional

from ..transport.fabric import Fabric
from .broker import Broker
from .concurrency import make_lock, spawn_thread
from .config import StopCondition
from .endpoint import ProcessEndpoint
from .message import CMD_SHUTDOWN, Command, MsgType, make_message
from .stats import StatsCollector
from .supervision import Supervisor


class Controller:
    """Per-machine lifecycle manager."""

    def __init__(self, name: str, broker: Broker, control_fabric: Optional[Fabric] = None):
        self.name = name
        self.broker = broker
        self._control_fabric = control_fabric
        # The supervisor thread replaces processes while the launch thread
        # may be starting or stopping them.
        self._processes: List[Any] = []
        self._processes_lock = make_lock(f"{name}.processes")
        self._stopped = threading.Event()
        if control_fabric is not None:
            control_fabric.register(self.name, self._on_command)

    def manage(self, process: Any) -> None:
        """Track a process (Explorer/Learner/...) for lifecycle handling."""
        with self._processes_lock:
            self._processes.append(process)

    def replace(self, old: Any, new: Any) -> None:
        """Swap a restarted process into the managed set (supervision)."""
        with self._processes_lock:
            for index, process in enumerate(self._processes):
                if process is old:
                    self._processes[index] = new
                    return
            self._processes.append(new)

    def _managed(self) -> List[Any]:
        with self._processes_lock:
            return list(self._processes)

    def start_all(self) -> None:
        """Start the broker, every endpoint and the control plane, then the
        workers: a running worker competes for the GIL with every thread
        started after it, so workers start last."""
        self.broker.start()
        processes = self._managed()
        for process in processes:
            process.endpoint.start()
        self._start_control()
        for process in processes:
            process.run()

    def _start_control(self) -> None:
        """Start what watches the workers (the center's monitor)."""

    def stop_all(self) -> None:
        if self._stopped.is_set():
            return
        self._stopped.set()
        for process in self._managed():
            process.stop()
        self.broker.stop()

    def _on_command(self, command: Command) -> None:
        if command.name == CMD_SHUTDOWN:
            self.stop_all()

    @property
    def stopped(self) -> bool:
        return self._stopped.is_set()


class CenterController(Controller):
    """The controller in the launch machine (§3.2.2).

    Owns an endpoint registered with the local broker to receive STATS
    messages, aggregates them, evaluates the stop condition, and broadcasts
    shutdown to every controller when the training goal is achieved.
    """

    ENDPOINT_NAME = "controller"

    def __init__(
        self,
        name: str,
        broker: Broker,
        stop_condition: StopCondition,
        *,
        control_fabric: Optional[Fabric] = None,
        on_shutdown: Optional[Callable[[], None]] = None,
    ):
        super().__init__(name, broker, control_fabric)
        self.stop_condition = stop_condition
        self.collector = StatsCollector()
        self.endpoint = ProcessEndpoint(self.ENDPOINT_NAME, broker)
        self._on_shutdown = on_shutdown
        self._monitor: Optional[threading.Thread] = None
        self._monitor_stop = threading.Event()
        self._started_at: Optional[float] = None
        self.shutdown_reason: Optional[str] = None
        #: optional fault-tolerance layer (attached by the cluster builder)
        self.supervisor: Optional[Supervisor] = None
        #: explorers another OS process hosts (set by the cluster builder);
        #: shutdown reaches them as a message
        self.remote_processes: List[str] = []

    def attach_supervisor(self, supervisor: Supervisor) -> None:
        """Install the supervision layer; heartbeats arriving at this
        controller's endpoint will feed its failure detector."""
        self.supervisor = supervisor

    def _start_control(self) -> None:
        self.endpoint.start()
        self._started_at = time.monotonic()
        self._monitor = spawn_thread(f"{self.name}.monitor", self._monitor_loop)
        if self.supervisor is not None:
            self.supervisor.start()

    def stop_all(self) -> None:
        if self.stopped:
            return
        # Stop supervising first so shutting processes down is not mistaken
        # for worker death (and nothing gets restarted mid-teardown).
        if self.supervisor is not None:
            self.supervisor.stop()
        self._monitor_stop.set()
        self._shut_down_remote()
        self.endpoint.stop()
        # Broadcast shutdown to the other controllers first (§3.2.2).
        if self._control_fabric is not None:
            for node in self._control_fabric.nodes():
                if node != self.name:
                    self._control_fabric.send(self.name, node, Command(CMD_SHUTDOWN))
        super().stop_all()
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)
            self._monitor = None
        if self._on_shutdown is not None:
            self._on_shutdown()

    def _shut_down_remote(self, timeout: float = 2.0) -> None:
        """Send ``remote_processes`` the COMMAND they already honour, down
        the path every message to them takes, and wait until the router
        thread has taken it: a stopping endpoint or broker drops what is
        still queued, a batch the router has drained it settles."""
        if not self.remote_processes or self._started_at is None:
            return
        handed_on = self.endpoint.sent_meter.count
        self.endpoint.send(make_message(
            self.ENDPOINT_NAME, self.remote_processes, MsgType.COMMAND,
            Command(CMD_SHUTDOWN),
        ))
        header_queue = self.broker.communicator.header_queue
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline and (
            self.endpoint.sent_meter.count == handed_on or header_queue.qsize()
        ):
            time.sleep(0.002)

    # -- stats & stop condition ----------------------------------------------
    def _monitor_loop(self) -> None:
        collector = self.collector
        while not self._monitor_stop.is_set():
            message = self.endpoint.receive(timeout=0.1)
            if message is None:
                continue
            if message.msg_type == MsgType.STATS:
                collector.add(message.body)
                # A stats message, even a body-less one the collector
                # skips, proves the sender is alive too.
                if self.supervisor is not None:
                    self.supervisor.observe_heartbeat(message.src)
            elif message.msg_type == MsgType.HEARTBEAT:
                if self.supervisor is not None:
                    self.supervisor.observe_heartbeat(message.src)

    def elapsed(self) -> float:
        if self._started_at is None:
            return 0.0
        return time.monotonic() - self._started_at

    def should_stop(self) -> Optional[str]:
        """Returns a human-readable reason when the goal is reached."""
        cond = self.stop_condition
        if cond.total_env_steps is not None:
            if self.collector.total_env_steps >= cond.total_env_steps:
                return f"collected {self.collector.total_env_steps} env steps"
        if cond.total_trained_steps is not None:
            if self.collector.total_trained_steps >= cond.total_trained_steps:
                return f"consumed {self.collector.total_trained_steps} rollout steps"
        if cond.target_return is not None:
            average = self.collector.average_return()
            if average is not None and average >= cond.target_return:
                return f"average return {average:.2f} reached target"
        if cond.max_seconds is not None and self.elapsed() >= cond.max_seconds:
            return f"time budget of {cond.max_seconds}s exhausted"
        return None

    def wait(self, poll_interval: float = 0.05) -> str:
        """Block until the stop condition fires; returns the reason.

        With a supervisor attached this raises
        :class:`~repro.core.errors.TrainingFailedError` the moment the run
        becomes unrecoverable (all restart budget spent on dead workers)
        instead of spinning forever on a deployment that can never reach
        its goal.
        """
        while True:
            reason = self.should_stop()
            if reason is not None:
                self.shutdown_reason = reason
                return reason
            if self.supervisor is not None:
                self.supervisor.check()
            time.sleep(poll_interval)
