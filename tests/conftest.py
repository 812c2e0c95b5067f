"""Shared fixtures.

The whole suite runs with the opt-in runtime concurrency checkers enabled
(``REPRO_RUNTIME_CHECKS=1``): framework locks are instrumented for
lock-order (deadlock) detection and every broker audits its object store
for refcount leaks at shutdown.  The env var must be set before any
``repro`` import so module-level locks are created instrumented too.
"""

from __future__ import annotations

import os
import tempfile

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
