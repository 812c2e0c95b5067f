"""Runtime concurrency checkers (opt-in via ``REPRO_RUNTIME_CHECKS=1``).

Two checkers complement the static rules:

* **Lock-order monitor** — :class:`CheckedLock` / :class:`CheckedRLock`
  wrap the stdlib primitives and record the per-thread lock-acquisition
  graph: acquiring ``B`` while holding ``A`` adds the edge ``A → B``.  A
  cycle in that graph means two threads can acquire the same locks in
  opposite orders — a potential deadlock — and is recorded as a
  :class:`LockOrderViolation` (optionally raised as
  :class:`~repro.core.errors.LockOrderError`).  The factory
  :func:`repro.core.concurrency.make_lock` hands these out framework-wide
  when checks are enabled, so the whole test suite runs instrumented.

* **Refcount auditor** — :func:`audit_object_store` asserts that every
  object-store refcount was balanced (all bodies fetched-and-released) and
  raises :class:`~repro.core.errors.RefcountLeakError` otherwise.
  :meth:`repro.core.broker.Broker.stop` calls it at shutdown when checks
  are enabled, which is exactly the gate that would have caught the PR-1
  sender-loop refcount leak before it shipped.

Locks are compared by *name* (the creation-site label), not by instance:
per-instance locks sharing a label form one node.  Self-edges (two
same-named locks nested) are ignored to avoid false cycles between sibling
instances; give locks distinct names where that ordering matters.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..core.errors import LockOrderError

LOG = logging.getLogger("repro.analysis.runtime")


@dataclass(frozen=True)
class LockOrderViolation:
    """One detected lock-order cycle."""

    edge: Tuple[str, str]  #: the edge whose addition closed the cycle
    cycle: Tuple[str, ...]  #: lock names along the cycle, starting at edge[1]
    thread: str  #: thread that added the closing edge

    def describe(self) -> str:
        chain = " -> ".join(self.cycle + (self.cycle[0],))
        return (
            f"lock-order cycle {chain} (closing edge {self.edge[0]} -> "
            f"{self.edge[1]} acquired on thread {self.thread!r})"
        )


class LockOrderMonitor:
    """Records the global lock-acquisition graph and detects cycles."""

    def __init__(self, *, raise_on_violation: bool = False):
        self.raise_on_violation = raise_on_violation
        self._graph_lock = threading.Lock()
        #: directed edges held-name -> acquired-name, with the observing thread
        self._edges: Dict[Tuple[str, str], str] = {}
        self._violations: List[LockOrderViolation] = []
        self._local = threading.local()

    # -- per-thread held stack ----------------------------------------------
    def _held(self) -> List[Tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def on_acquired(self, lock_id: int, name: str) -> None:
        held = self._held()
        first_acquisition = all(lock_id != held_id for held_id, _ in held)
        if first_acquisition:
            for _, held_name in held:
                if held_name != name:
                    self._add_edge(held_name, name)
        held.append((lock_id, name))

    def on_released(self, lock_id: int, name: str) -> None:
        held = self._held()
        for index in range(len(held) - 1, -1, -1):
            if held[index][0] == lock_id:
                del held[index]
                return

    # -- the graph -----------------------------------------------------------
    def _add_edge(self, source: str, target: str) -> None:
        thread_name = threading.current_thread().name
        with self._graph_lock:
            if (source, target) in self._edges:
                return
            self._edges[(source, target)] = thread_name
            cycle = self._find_path(target, source)
        if cycle is not None:
            violation = LockOrderViolation((source, target), tuple(cycle), thread_name)
            with self._graph_lock:
                self._violations.append(violation)
            LOG.error("runtime checker: %s", violation.describe())
            if self.raise_on_violation:
                raise LockOrderError(violation.describe())

    def _find_path(self, start: str, goal: str) -> Optional[List[str]]:
        """DFS path start → goal in the edge graph (caller holds _graph_lock)."""
        adjacency: Dict[str, Set[str]] = {}
        for (source, target) in self._edges:
            adjacency.setdefault(source, set()).add(target)
        stack: List[Tuple[str, List[str]]] = [(start, [start])]
        seen: Set[str] = set()
        while stack:
            node, path = stack.pop()
            if node == goal:
                return path
            if node in seen:
                continue
            seen.add(node)
            for neighbor in adjacency.get(node, ()):
                stack.append((neighbor, path + [neighbor]))
        return None

    # -- introspection --------------------------------------------------------
    def edges(self) -> Dict[Tuple[str, str], str]:
        with self._graph_lock:
            return dict(self._edges)

    def violations(self) -> List[LockOrderViolation]:
        with self._graph_lock:
            return list(self._violations)

    def reset(self) -> None:
        with self._graph_lock:
            self._edges.clear()
            self._violations.clear()


_GLOBAL_MONITOR = LockOrderMonitor()


def lock_monitor() -> LockOrderMonitor:
    """The process-wide monitor used by framework-created locks."""
    return _GLOBAL_MONITOR


class _CheckedBase:
    """Shared acquire/release instrumentation around a stdlib lock."""

    def __init__(self, name: str, inner, monitor: Optional[LockOrderMonitor]):
        self.name = name
        self._inner = inner
        self._monitor = monitor if monitor is not None else lock_monitor()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            self._monitor.on_acquired(id(self), self.name)
        return acquired

    def release(self) -> None:
        self._monitor.on_released(id(self), self.name)
        self._inner.release()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


class CheckedLock(_CheckedBase):
    """A ``threading.Lock`` that reports its acquisition order."""

    def __init__(self, name: str, monitor: Optional[LockOrderMonitor] = None):
        super().__init__(name, threading.Lock(), monitor)

    def locked(self) -> bool:
        return self._inner.locked()


class CheckedRLock(_CheckedBase):
    """A ``threading.RLock`` that reports its acquisition order.

    Re-entrant acquisitions of the same instance add no edges (they cannot
    deadlock against themselves).
    """

    def __init__(self, name: str, monitor: Optional[LockOrderMonitor] = None):
        super().__init__(name, threading.RLock(), monitor)


# -- refcount auditing --------------------------------------------------------

def audit_object_store(store, context: str = "") -> None:
    """Raise :class:`RefcountLeakError` when ``store`` holds unreleased refs.

    Call at shutdown, after consumers have drained their queues: every
    remaining entry is a body whose refcount was never balanced by
    fetch-and-release cycles — a leak.
    """
    assert_balanced = getattr(store, "assert_balanced", None)
    if assert_balanced is not None:
        assert_balanced(context)
