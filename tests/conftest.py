"""Shared fixtures.

The whole suite runs with the opt-in runtime concurrency checkers enabled
(``REPRO_RUNTIME_CHECKS=1``): framework locks are instrumented for
lock-order (deadlock) detection and every broker audits its object store
for refcount leaks at shutdown.  The env var must be set before any
``repro`` import so module-level locks are created instrumented too.
"""

from __future__ import annotations

import faulthandler
import os
import sys
import tempfile
import time

os.environ.setdefault("REPRO_RUNTIME_CHECKS", "1")
# Crash-path flight-recorder dumps (deliberately triggered by supervision
# and backpressure tests) go to a throwaway dir, not the working tree.
os.environ.setdefault(
    "REPRO_FLIGHTREC_DIR",
    os.path.join(tempfile.gettempdir(), f"repro-flightrec-{os.getpid()}"),
)

import numpy as np
import pytest

from repro.analysis.runtime import lock_monitor
from repro.core.broker import Broker
from repro.core.endpoint import ProcessEndpoint
from repro.core.tracing import Tracer


#: a test running longer than this is hung: pyproject's ``timeout``, which
#: pytest-timeout enforces where it is installed (CI)
HANG_S = 120.0
#: the terminal's stderr, kept before output capture can redirect it
_hang_report_fd = -1


def pytest_configure(config):
    global _hang_report_fd
    _hang_report_fd = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    if _hang_report_fd >= 0:
        os.close(_hang_report_fd)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_protocol(item):
    """Without pytest-timeout, a test that hangs dumps every thread's stack
    to the terminal and ends the run after :data:`HANG_S`, instead of
    wedging it with nothing to show."""
    if item.config.pluginmanager.hasplugin("timeout"):
        return (yield)
    faulthandler.dump_traceback_later(HANG_S, exit=True, file=_hang_report_fd)
    try:
        return (yield)
    finally:
        faulthandler.cancel_dump_traceback_later()


#: where POSIX shared-memory segments live (Linux)
_SHM = "/dev/shm"
#: how long a segment may take to go after teardown (a forked child's exit)
_SHM_GRACE_S = 2.0


def _shm_segments() -> set:
    try:
        return set(os.listdir(_SHM))
    except OSError:
        return set()


@pytest.fixture(autouse=True)
def _no_leftover_shm_segments(request):
    """Fail the test by name if a shared-memory segment it created outlives
    its teardown (this fixture is torn down after the test's own).  The
    leftovers are unlinked, so the next test starts clean."""
    before = _shm_segments()
    yield
    deadline = time.monotonic() + _SHM_GRACE_S
    while True:
        left = _shm_segments() - before
        if not left or time.monotonic() >= deadline:
            break
        time.sleep(0.05)
    for name in left:
        try:
            os.unlink(os.path.join(_SHM, name))
        except OSError:
            pass
    assert not left, (
        f"{request.node.nodeid} left shared-memory segments behind: {sorted(left)}"
    )


@pytest.fixture(scope="session", autouse=True)
def _no_lock_order_violations():
    """Fail the session if any framework lock pair was ever acquired in
    inconsistent order anywhere in the suite."""
    yield
    violations = lock_monitor().violations()
    assert not violations, "lock-order violations detected:\n" + "\n".join(
        violation.describe() for violation in violations
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(42)


@pytest.fixture
def tracer():
    """A :class:`Tracer` reading the process-wide hop log for the length of
    the test (the log is process-wide: it sees every component the test
    builds, whichever broker they belong to)."""
    attached = Tracer(capacity=100_000).attach()
    yield attached
    attached.detach()


@pytest.fixture
def broker():
    """A started broker, stopped at teardown."""
    instance = Broker("test-broker")
    instance.start()
    yield instance
    instance.stop()


@pytest.fixture
def endpoint_pair(broker):
    """Two started endpoints ('alice', 'bob') on the same broker."""
    alice = ProcessEndpoint("alice", broker)
    bob = ProcessEndpoint("bob", broker)
    alice.start()
    bob.start()
    yield alice, bob
    alice.stop()
    bob.stop()
