"""Fault-injection harness for exercising the supervision layer.

Everything here is deterministic under a seed so fault-tolerance tests can
be replayed exactly:

* :class:`FaultyFabric` / :class:`FaultyLink` — wrap every link a fabric
  creates and drop / delay / duplicate / reorder items according to a
  :class:`FaultSpec` driven by a seeded ``random.Random``.
* :class:`FaultySocketLink` / :class:`SocketFaultSpec` — wrap a real
  :class:`~repro.transport.tcp.SocketLink` and exercise the *wire* failure
  modes the in-proc faults cannot: send delay, short (partial) writes, and
  a mid-message connection reset.
* :class:`CrashingAgent` / :class:`HangingAgent` — agent wrappers that blow
  up (or stall) inside ``run_fragment`` after a configured number of calls,
  simulating an explorer workhorse dying mid-run.
* :class:`Fuse` — a shared one-shot trigger, so a restarted worker built
  from the same factory does not crash again.
"""

from __future__ import annotations

import random
import socket
import threading
import time
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from ..transport.fabric import Fabric
from ..core.concurrency import make_lock
from ..transport.link import Link


class Fuse:
    """A thread-safe one-shot trigger.

    ``pop()`` returns True exactly once across all sharers.  Inject one into
    a :class:`CrashingAgent` so the *first* worker to reach the trigger
    crashes and every later (restarted) worker runs clean.
    """

    def __init__(self, armed: bool = True):
        self._armed = armed
        self._lock = make_lock("testing.fuse")
        self.blown = False

    def pop(self) -> bool:
        with self._lock:
            if not self._armed:
                return False
            self._armed = False
            self.blown = True
            return True


@dataclass
class FaultSpec:
    """Per-link fault probabilities and magnitudes.

    Probabilities are evaluated per item, in order drop → duplicate →
    reorder → delay; an item can be both duplicated and delayed.  ``reorder``
    holds an item back until the next send, emitting the pair swapped.
    """

    drop: float = 0.0
    duplicate: float = 0.0
    reorder: float = 0.0
    delay: float = 0.0  #: probability of delaying an item
    delay_s: float = 0.01  #: sleep applied when a delay fires

    def validate(self) -> None:
        for name in ("drop", "duplicate", "reorder", "delay"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability, got {value}")
        if self.delay_s < 0:
            raise ValueError("delay_s must be non-negative")


class FaultyLink(Link):
    """Wraps a real link, injecting faults on the send path.

    The wrapped link still does the actual delivery (including any NIC
    throttling), so faults compose with bandwidth modelling.  Counters
    record every injected fault for assertions.  Faults are drawn per item:
    a ``send_many`` is the inherited loop over :meth:`send`.
    """

    def __init__(self, inner: Link, spec: FaultSpec, rng: random.Random):
        spec.validate()
        self.inner = inner
        self.spec = spec
        self._rng = rng
        self._lock = make_lock("testing.faulty_link")
        self._held: Optional[Tuple[Any, int]] = None
        self.sent = 0
        self.dropped = 0
        self.duplicated = 0
        self.reordered = 0
        self.delayed = 0

    def send(self, item: Any, nbytes: int = 0) -> None:
        with self._lock:
            self.sent += 1
            if self._rng.random() < self.spec.drop:
                self.dropped += 1
                return
            emit: List[Tuple[Any, int]] = [(item, nbytes)]
            if self._rng.random() < self.spec.duplicate:
                self.duplicated += 1
                emit.append((item, nbytes))
            if self._rng.random() < self.spec.reorder:
                if self._held is None:
                    # Hold this item back; it leaves before the next one.
                    self._held = emit.pop(0)
                    self.reordered += 1
                else:
                    held, self._held = self._held, None
                    emit.append(held)
            delay = self._rng.random() < self.spec.delay
            if delay:
                self.delayed += 1
        if delay and self.spec.delay_s > 0:
            time.sleep(self.spec.delay_s)
        for entry in emit:
            self.inner.send(*entry)

    def flush(self) -> None:
        """Release an item held back by reordering (call before close)."""
        with self._lock:
            held, self._held = self._held, None
        if held is not None:
            self.inner.send(*held)

    def close(self) -> None:
        self.flush()
        self.inner.close()


class FaultyFabric(Fabric):
    """A :class:`Fabric` whose every link misbehaves per a :class:`FaultSpec`.

    Pass as ``data_fabric=``/``control_fabric=`` to
    :func:`repro.cluster.build_cluster` to subject all inter-broker (or
    inter-controller) traffic to the faults.  Deterministic under ``seed``.
    """

    def __init__(
        self,
        name: str = "faulty-fabric",
        *,
        spec: Optional[FaultSpec] = None,
        seed: Optional[int] = None,
    ):
        super().__init__(name)
        self.spec = spec if spec is not None else FaultSpec()
        self.spec.validate()
        self._rng = random.Random(seed)
        self.faulty_links: List[FaultyLink] = []

    def _decorate_link(self, link: Link, src: str, dst: str) -> Link:
        # Per-link RNG split from the fabric seed keeps each link's fault
        # sequence independent of link-creation order racing across threads.
        wrapped = FaultyLink(
            link, self.spec, random.Random(self._rng.getrandbits(64))
        )
        self.faulty_links.append(wrapped)
        return wrapped

    def fault_counts(self) -> dict:
        totals = {"sent": 0, "dropped": 0, "duplicated": 0, "reordered": 0, "delayed": 0}
        for link in self.faulty_links:
            totals["sent"] += link.sent
            totals["dropped"] += link.dropped
            totals["duplicated"] += link.duplicated
            totals["reordered"] += link.reordered
            totals["delayed"] += link.delayed
        return totals


@dataclass
class SocketFaultSpec:
    """Wire-level fault knobs for :class:`FaultySocketLink`.

    These are deterministic (no probabilities): wire tests assert exact
    protocol behaviour — a partial write *must* happen, a reset *must*
    land mid-message — so the faults fire on every send.
    """

    #: sleep before every send or gathered group of sends (slow peer /
    #: congested path)
    delay_s: float = 0.0
    #: cap bytes accepted per sendmsg syscall, forcing partial writes the
    #: link must recover from by advancing its gather list
    max_send_bytes: Optional[int] = None
    #: hard-close the underlying socket after this many sendmsg calls —
    #: with ``max_send_bytes`` small enough the reset lands *mid-message*
    reset_after_syscalls: Optional[int] = None

    def validate(self) -> None:
        if self.delay_s < 0:
            raise ValueError("delay_s must be non-negative")
        if self.max_send_bytes is not None and self.max_send_bytes < 1:
            raise ValueError("max_send_bytes must be >= 1")
        if self.reset_after_syscalls is not None and self.reset_after_syscalls < 1:
            raise ValueError("reset_after_syscalls must be >= 1")


class _ResettingSocket:
    """Socket proxy that kills the connection after N sendmsg calls.

    The real socket is shut down and closed *before* the fatal sendmsg, so
    the failing call raises ``OSError`` from inside the kernel write path —
    the same shape as a genuine peer reset — which the link must convert
    into a loud :class:`~repro.transport.tcp.WireConnectionError`.
    """

    def __init__(self, sock: Any, limit: int):
        self._sock = sock
        self._limit = limit
        self.calls = 0

    def sendmsg(self, buffers: Any) -> int:
        self.calls += 1
        if self.calls > self._limit:
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._sock.close()
        return self._sock.sendmsg(buffers)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._sock, name)


class FaultySocketLink(Link):
    """Wraps a :class:`~repro.transport.tcp.SocketLink` with wire faults.

    Unlike :class:`FaultyLink` (which perturbs *delivery order*), this
    perturbs the *wire itself*: sends crawl, sendmsg accepts only a few
    bytes at a time, the connection dies mid-message.  The wrapped link's
    own counters (``partial_writes``, ``send_errors``) then record how it
    coped — that is what the protocol edge-case tests assert on.
    """

    def __init__(self, inner: Any, spec: SocketFaultSpec):
        spec.validate()
        self.inner = inner
        self.spec = spec
        self.sent = 0
        self.delayed = 0
        if spec.max_send_bytes is not None:
            inner._max_send_bytes = spec.max_send_bytes
        if spec.reset_after_syscalls is not None:
            inner._sock = _ResettingSocket(
                inner._sock, spec.reset_after_syscalls
            )

    def send(self, item: Any, nbytes: int = 0) -> None:
        self.send_many(((item, nbytes),))

    def send_many(self, items: Sequence[Tuple[Any, int]]) -> None:
        """The wire faults act on writes, so a gather goes down whole: one
        delay, then the wrapped link's capped or resetting socket."""
        if self.spec.delay_s > 0:
            self.delayed += 1
            time.sleep(self.spec.delay_s)
        self.sent += len(items)
        self.inner.send_many(items)

    def stats(self) -> dict:
        return self.inner.stats()

    def close(self) -> None:
        self.inner.close()


class _AgentWrapper:
    """Delegates everything to the wrapped agent except injected behaviour."""

    def __init__(self, inner: Any):
        self.inner = inner

    def __getattr__(self, name: str) -> Any:
        return getattr(self.inner, name)

    def set_weights(self, weights: Any) -> None:
        self.inner.set_weights(weights)


class CrashingAgent(_AgentWrapper):
    """Raises from ``run_fragment`` on the Nth call (or when a fuse pops).

    With ``fuse`` shared between the harness and the agent factory, only the
    first worker to reach the trigger crashes — a restarted worker (rebuilt
    from the same factory) runs clean, which is what the recovery tests
    need to observe exactly one restart.
    """

    def __init__(
        self,
        inner: Any,
        *,
        crash_after: int = 1,
        fuse: Optional[Fuse] = None,
        exc_factory: Any = None,
    ):
        super().__init__(inner)
        self.crash_after = crash_after
        self.fuse = fuse
        self.calls = 0
        self._exc_factory = exc_factory or (
            lambda: RuntimeError("injected crash (CrashingAgent)")
        )

    def run_fragment(self, fragment_steps: int) -> Any:
        self.calls += 1
        if self.calls >= self.crash_after:
            if self.fuse is None or self.fuse.pop():
                raise self._exc_factory()
        return self.inner.run_fragment(fragment_steps)


class HangingAgent(_AgentWrapper):
    """Stalls inside ``run_fragment`` on the Nth call — a silent hang.

    Unlike a crash there is no exception to detect; only missed heartbeats
    reveal the failure, which is exactly the code path the heartbeat
    machinery exists for.  ``hang_s`` bounds the stall so tests terminate;
    ``release`` (an Event) ends it early.
    """

    def __init__(
        self,
        inner: Any,
        *,
        hang_after: int = 1,
        hang_s: float = 30.0,
        fuse: Optional[Fuse] = None,
        release: Optional[threading.Event] = None,
    ):
        super().__init__(inner)
        self.hang_after = hang_after
        self.hang_s = hang_s
        self.fuse = fuse
        self.release = release if release is not None else threading.Event()
        self.calls = 0
        self.hung = False

    def run_fragment(self, fragment_steps: int) -> Any:
        self.calls += 1
        if self.calls >= self.hang_after:
            if self.fuse is None or self.fuse.pop():
                self.hung = True
                self.release.wait(self.hang_s)
        return self.inner.run_fragment(fragment_steps)
