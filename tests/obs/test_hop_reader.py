"""The hop log's cursor: every record since it attached, or an exact count
of the ones it missed — across wraps, ring restarts and forks."""

from __future__ import annotations

import os
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.concurrency import spawn_thread
from repro.core.errors import ConfigError
from repro.core.tracing import (
    DEFAULT_CAPACITY, HOP_LOG, HopLog, configure, decode_records, emit,
)


def _seqs(reader):
    return [event["detail"]["seq"] for event in decode_records(*reader.read())]


def _emit(log, start, count):
    """``count`` records, seqs from ``start``: one ``emit`` or a batch."""
    headers = [{"seq": seq, "trace": seq + 1} for seq in range(start, start + count)]
    if count == 1:
        log.emit("sent", "a", headers[0])
    else:
        log.emit_many("routed", "r", headers)


def test_a_reader_sees_what_was_recorded_since_it_attached():
    log = HopLog("p", capacity=8)
    _emit(log, 0, 3)
    reader = log.reader()
    assert _seqs(reader) == []
    _emit(log, 3, 2)
    assert _seqs(reader) == [3, 4]
    assert _seqs(reader) == []  # nothing twice
    assert reader.missed == 0


def test_missed_is_exact_after_a_lap():
    log = HopLog("p", capacity=8)
    reader = log.reader()
    _emit(log, 0, 5)
    _emit(log, 5, 14)  # 19 written: the ring holds the last 8
    assert _seqs(reader) == list(range(11, 19))
    assert reader.missed == 11
    _emit(log, 19, 8)  # exactly a ring's worth: nothing lost
    assert _seqs(reader) == list(range(19, 27))
    assert reader.missed == 11


@settings(max_examples=60, deadline=None)
@given(
    capacity=st.integers(min_value=1, max_value=12),
    steps=st.lists(
        st.tuples(st.integers(min_value=1, max_value=9), st.booleans()),
        min_size=1, max_size=60,
    ),
)
def test_nothing_is_repeated_and_every_loss_is_counted(capacity, steps):
    """Interleaved ``emit`` / ``emit_many`` and reads at arbitrary points,
    many wraps over: a read returns exactly what the ring still held of the
    records since the last one, and what it no longer held is ``missed``."""
    log = HopLog("p", capacity=capacity)
    reader = log.reader()
    written, unread, seen, expected = 0, 0, [], []
    for count, read in [*steps, (1, True)]:
        _emit(log, written, count)
        written += count
        unread += count
        if read:  # the ring still holds the newest ``capacity`` of them
            expected += range(written - min(unread, capacity), written)
            seen += _seqs(reader)
            unread = 0
    assert seen == expected  # in order, none twice, none that was still held
    assert reader.missed == written - len(expected)
    assert written == log.total


def test_reading_while_threads_emit_loses_and_repeats_nothing():
    writers, each = 4, 3000
    log = HopLog("p", capacity=writers * each)
    reader = log.reader()

    def write(base):
        for index in range(0, each, 3):
            _emit(log, base + index, 1)
            _emit(log, base + index + 1, 2)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            spawn_thread(f"writer-{index}", write, args=(index * each,))
            for index in range(writers)
        ]
        seen = []
        while any(thread.is_alive() for thread in threads):
            seen += _seqs(reader)
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    seen += _seqs(reader)
    assert sorted(seen) == list(range(writers * each)) and reader.missed == 0
    for base in range(0, writers * each, each):  # each writer's in its order
        own = [seq for seq in seen if base <= seq < base + each]
        assert own == sorted(own)


def test_attaching_sizes_the_ring_and_detaching_is_seen():
    log = HopLog("p", capacity=8)
    assert log.readers == ()
    small = log.reader(4)
    assert log._ring.capacity == 8  # already holds what it asked for
    _emit(log, 0, 2)
    large = log.reader(32)
    assert log._ring.capacity == 32 and log.readers == (small, large)
    _emit(log, 2, 30)
    # The earlier reader restarts on the new ring: what it had not read of
    # the retired one is counted, not silently gone.
    assert _seqs(small) == list(range(2, 32)) and small.missed == 2
    assert _seqs(large) == list(range(2, 32)) and large.missed == 0
    small.close()
    large.close()
    assert log.readers == ()
    assert HopLog("q")._ring.capacity == DEFAULT_CAPACITY  # nobody asked for more


def test_a_reader_restarts_on_the_ring_configure_swapped_in():
    log = HopLog("p", capacity=8)
    reader = log.reader(8)
    _emit(log, 0, 3)
    log.configure(enabled=True, capacity=4)
    assert log._ring.capacity == 8  # no smaller than an attached reader asked
    _emit(log, 3, 2)
    assert _seqs(reader) == [3, 4] and reader.missed == 3  # went with their ring
    log.configure(enabled=False)
    _emit(log, 5, 1)  # recorded nowhere
    assert _seqs(reader) == []
    log.configure(enabled=True)
    _emit(log, 6, 1)
    assert _seqs(reader) == [6] and reader.missed == 3


def test_a_log_with_no_ring_refuses_readers():
    with pytest.raises(ConfigError, match="REPRO_FLIGHTREC=0"):
        HopLog("off", enabled=False).reader()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_childs_reader_starts_on_the_childs_ring():
    """The child's log is a fresh ring; a reader it inherited reads that —
    not the parent's records up to the fork, which are the parent's."""
    configure(enabled=True, capacity=64)
    reader = HOP_LOG.reader()
    try:
        emit("sent", "parent", {"seq": 1, "trace": 2})
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:  # child: report what its copy of the reader reads
            try:
                emit("sent", "child", {"seq": 7, "trace": 8})
                os.write(write_end, repr((_seqs(reader), reader in HOP_LOG.readers)).encode())
            finally:
                os._exit(0)
        os.close(write_end)
        try:
            report = os.read(read_end, 256).decode()
        finally:
            os.close(read_end)
            os.waitpid(pid, 0)
        assert report == "([7], True)"
        assert _seqs(reader) == [1]  # the parent's cursor is the parent's
    finally:
        reader.close()
        configure(enabled=True)
