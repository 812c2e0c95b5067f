"""Tests for the shared-memory communicator (its queues: test_queues.py)."""

import pytest

from repro.core.communicator import ShareMemCommunicator
from repro.core.errors import RoutingError


class TestShareMemCommunicator:
    def test_register_creates_id_queue(self):
        comm = ShareMemCommunicator()
        queue = comm.register("learner")
        assert comm.id_queue("learner") is queue
        assert comm.local_queue("learner") is not None

    def test_register_idempotent(self):
        comm = ShareMemCommunicator()
        assert comm.register("a") is comm.register("a")

    def test_unknown_id_queue_raises(self):
        comm = ShareMemCommunicator()
        with pytest.raises(RoutingError):
            comm.id_queue("ghost")

    def test_unregister_closes_queue(self):
        comm = ShareMemCommunicator()
        queue = comm.register("a")
        comm.unregister("a")
        assert queue.closed
        assert comm.local_queue("a") is None

    def test_local_names(self):
        comm = ShareMemCommunicator()
        comm.register("a")
        comm.register("b")
        assert sorted(comm.local_names()) == ["a", "b"]

    def test_close_closes_everything(self):
        comm = ShareMemCommunicator()
        queue_a = comm.register("a")
        comm.close()
        assert comm.header_queue.closed
        assert queue_a.closed

    def test_default_store_is_in_memory(self):
        comm = ShareMemCommunicator()
        object_id = comm.object_store.put("body")
        assert comm.object_store.get(object_id) == "body"
