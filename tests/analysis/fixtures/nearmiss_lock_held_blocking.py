"""Fixture: near-misses of ``lock-held-blocking-call`` — none may trigger."""

import os
import socket
import threading
import time


class Worker:
    def __init__(self):
        self._lock = threading.Lock()
        self._queue = None

    def sleep_outside_lock(self):
        with self._lock:
            value = 1
        time.sleep(0.0)
        return value

    def timed_get_under_lock(self):
        # get() with a timeout is a bounded wait, not an unbounded block.
        with self._lock:
            return self._queue.get(timeout=0.1)

    def dict_get_under_lock(self, table, key):
        # dict.get(key) is a lookup, not a blocking call.
        with self._lock:
            return table.get(key)

    def nonblocking_recv_under_lock(self, sock):
        # MSG_DONTWAIT: the read returns at once, with what is there or not.
        with self._lock:
            return sock.recv(64, socket.MSG_DONTWAIT)

    def timed_wait_under_lock(self, event):
        with self._lock:
            return event.wait(0.1)

    def string_and_path_joins(self, parts):
        with self._lock:
            return ", ".join(parts) + os.path.join("a", "b")

    def callback_defined_under_lock(self):
        # The nested function body runs later, after the lock is released.
        with self._lock:
            def later():
                time.sleep(0.1)
            return later
