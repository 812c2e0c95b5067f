"""The hop log's always-on ring (the flight recorder): ring semantics, dump
format, failure-path triggers."""

from __future__ import annotations

import json
import os
import sys
import threading

import pytest

from repro.core.concurrency import spawn_thread
from repro.core.errors import ConfigError, TrainingFailedError
from repro.core.supervision import Supervisor
from repro.core.tracing import (
    FLIGHTREC_SCHEMA,
    HOP_LOG,
    MAGIC,
    RECORD_SIZE,
    HopLog,
    Tracer,
    configure,
    dump_all,
    emit,
    load_dump,
    set_process,
)
from repro.obs import Telemetry
from repro.obs.trace.__main__ import main as trace_cli


def _h(seq, trace=0):
    """The two header fields a ring record keeps."""
    return {"seq": seq, "trace": trace}


@pytest.fixture(autouse=True)
def isolated_recorder(tmp_path, monkeypatch):
    """Give the process-wide log a fresh ring + tmp dump dir."""
    monkeypatch.setenv("REPRO_FLIGHTREC_DIR", str(tmp_path / "dumps"))
    configure(enabled=True, capacity=128, process="test")
    yield
    configure(enabled=True)  # leave a fresh default ring behind


class TestRing:
    def test_records_decode_in_order(self):
        clock_value = [0.0]

        def clock():
            clock_value[0] += 1.0
            return clock_value[0]

        recorder = HopLog("p", capacity=8, clock=clock)
        recorder.emit("sent", "alice", _h(1, 0xA))
        recorder.emit("delivered", "bob", _h(1, 0xA))
        events = recorder.events()
        assert [e["kind"] for e in events] == ["sent", "delivered"]
        assert events[0]["detail"] == {"seq": 1, "trace": 0xA}
        # A fan-out's ``sent`` tells the type; a lone destination is named.
        recorder.emit("sent", "alice", {**_h(2, 0xB), "type": "data", "dst": ["b", "c"]})
        recorder.emit("sent", "alice", {**_h(3, 0xC), "type": "data", "dst": ["b"]})
        assert [e["detail"] for e in recorder.events()[2:]] == [
            {"seq": 2, "trace": 0xB, "type": "data"},
            {"seq": 3, "trace": 0xC, "type": "data", "dst": "b"},
        ]
        assert events[0]["ts"] < events[1]["ts"]

    def test_missing_seq_and_trace_are_omitted(self):
        recorder = HopLog("p", capacity=4)
        recorder.emit("tick", "loop")
        (event,) = recorder.events()
        assert event["detail"] == {}

    def test_ring_wraps_keeping_newest(self):
        recorder = HopLog("p", capacity=4)
        for seq in range(10):
            recorder.emit("sent", "alice", _h(seq))
        assert recorder.count == 4
        assert recorder.total == 10
        assert [e["detail"]["seq"] for e in recorder.events()] == [6, 7, 8, 9]

    def test_emit_many_is_one_timestamp_per_batch(self):
        ticks = iter(range(1, 100))
        recorder = HopLog("p", capacity=4, clock=lambda: float(next(ticks)))
        recorder.emit("sent", "alice", _h(0))
        recorder.emit_many("routed", "alice", [_h(1, 0xA), _h(2, 0xB), _h(3)])
        recorder.emit_many("routed", "alice", [])
        events = recorder.events()  # capacity 4: nothing overwritten yet
        assert [e["kind"] for e in events] == ["sent", "routed", "routed", "routed"]
        assert [e["detail"].get("seq") for e in events] == [0, 1, 2, 3]
        assert events[1]["detail"]["trace"] == 0xA and "trace" not in events[3]["detail"]
        assert [e["ts"] for e in events] == [1.0, 2.0, 2.0, 2.0]
        recorder.emit_many("routed", "alice", [_h(4), _h(5)])  # wraps
        assert recorder.total == 6 and recorder.count == 4
        assert [e["detail"]["seq"] for e in recorder.events()] == [2, 3, 4, 5]

    def test_intern_overflow_maps_to_question_mark(self):
        recorder = HopLog("p", capacity=4)
        # Exhaust the source table (id 0 is reserved for "?").
        for index in range(5000):
            recorder.emit("sent", f"src{index}", _h(index))
        recorder.emit("sent", "one-too-many", _h(1))
        event = recorder.events()[-1]
        assert event["source"] == "?"
        assert event["kind"] == "sent"  # kind table still has room

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            HopLog("p", capacity=0)


class TestDumpFormat:
    def test_dump_load_roundtrip(self, tmp_path):
        recorder = HopLog("learner", capacity=16)
        for seq in range(20):  # wrap once to exercise the split copy
            recorder.emit("sent", "alice", _h(seq, seq + 1))
        path = recorder.dump(str(tmp_path / "ring.bin"), reason="unit")
        meta, events = load_dump(path)
        assert meta["format"] == FLIGHTREC_SCHEMA
        assert meta["process"] == "learner"
        assert meta["reason"] == "unit"
        assert meta["count"] == 16
        assert meta["overwritten"] == 4
        assert [e["detail"]["seq"] for e in events] == list(range(4, 20))

    def test_dump_is_magic_plus_meta_plus_records(self, tmp_path):
        recorder = HopLog("p", capacity=4)
        recorder.emit("sent", "a", _h(1))
        path = recorder.dump(str(tmp_path / "ring.bin"))
        raw = open(path, "rb").read()
        assert raw.startswith(MAGIC)
        meta_len = int.from_bytes(raw[len(MAGIC):len(MAGIC) + 4], "little")
        body = raw[len(MAGIC) + 4:]
        json.loads(body[:meta_len])  # meta block is standalone JSON
        assert len(body) - meta_len == RECORD_SIZE  # exactly one record

    def test_load_rejects_non_dump(self, tmp_path):
        path = tmp_path / "not-a-dump.bin"
        path.write_bytes(b"hello world")
        with pytest.raises(ValueError, match="magic"):
            load_dump(str(path))

    def test_load_rejects_another_layout_naming_what_differs(self, tmp_path):
        """A dump is raw records: read under the wrong layout it would
        decode into plausible nonsense, so the loader refuses it."""
        recorder = HopLog("p", capacity=4)
        recorder.emit("sent", "a", _h(1))
        raw = open(recorder.dump(str(tmp_path / "ring.bin")), "rb").read()
        meta_len = int.from_bytes(raw[len(MAGIC):len(MAGIC) + 4], "little")
        meta = json.loads(raw[len(MAGIC) + 4:len(MAGIC) + 4 + meta_len])
        records = raw[len(MAGIC) + 4 + meta_len:]

        def write(magic=MAGIC, records=records, **changed):
            payload = json.dumps({**meta, **changed}).encode("utf-8")
            path = tmp_path / "changed.bin"
            path.write_bytes(
                magic + len(payload).to_bytes(4, "little") + payload + records
            )
            return str(path)

        assert load_dump(write())[1][0]["detail"] == {"seq": 1}
        with pytest.raises(ValueError, match="FREC1"):
            load_dump(write(magic=b"FREC1\n"))  # the 32-byte v1 layout
        with pytest.raises(ValueError, match="repro.flightrec/v1"):
            load_dump(write(format="repro.flightrec/v1"))
        with pytest.raises(ValueError, match=f"{RECORD_SIZE - 1} bytes"):
            load_dump(write(records=records[:-1]))  # a truncated file
        with pytest.raises(ValueError, match=f"2 x {RECORD_SIZE}"):
            load_dump(write(count=2))


class TestProcessSingleton:
    def test_configure_disabled_removes_recorder(self):
        assert configure(enabled=False) is None
        assert not HOP_LOG.enabled
        emit("sent", "alice", _h(1))  # nowhere to go, and no error
        assert HOP_LOG.events() == []
        assert dump_all("nothing") is None  # must not raise when disabled

    def test_telemetry_refuses_a_log_with_no_ring(self):
        """``REPRO_FLIGHTREC=0`` and ``telemetry=TelemetrySpec()`` ask for
        opposite things: say so, instead of exporting empty span metrics."""
        configure(enabled=False)
        telemetry = Telemetry()
        with pytest.raises(ConfigError, match="REPRO_FLIGHTREC=0"):
            telemetry.start()
        assert not telemetry.sampler.running and HOP_LOG.readers == ()

    def test_dump_all_honors_env_dir(self, tmp_path):
        target = str(tmp_path / "dumps")
        set_process("worker")
        emit("sent", "alice", _h(1))
        path = dump_all("unit-test")
        assert path is not None and path.startswith(target)
        meta, events = load_dump(path)
        assert meta["process"] == "worker"
        assert meta["reason"] == "unit-test"
        assert events

    def test_dump_all_never_raises_on_bad_dir(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where the directory should go")
        assert dump_all("bad-dir", directory=str(blocker)) is None

    def test_concurrent_dumps_get_distinct_files(self, tmp_path):
        """Two threads escalating at once (two endpoints' first
        BackpressureError) must not pick the same file name."""
        emit("sent", "alice", _h(1))
        target = str(tmp_path / "dumps")
        start = threading.Barrier(8)
        paths = []

        def dump():
            start.wait(timeout=10)
            paths.append(dump_all("backpressure", directory=target))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # widen the read-modify-write window
        try:
            threads = [spawn_thread(f"dumper-{i}", dump) for i in range(8)]
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert None not in paths and len(set(paths)) == 8
        assert len(os.listdir(target)) == 8

    def test_configure_keeps_subscribers(self):
        """A reader survives a ring restart: it moves to the new ring, which
        is no smaller than it asked for."""
        tracer = Tracer(capacity=64).attach()
        try:
            emit("sent", "alice", _h(0))
            assert tracer.count("sent") == 1
            configure(enabled=True, capacity=16)
            assert HOP_LOG.readers and HOP_LOG._ring.capacity == 64
            emit("sent", "alice", _h(1))
        finally:
            tracer.detach()
        assert [e.detail["seq"] for e in tracer.events("sent")] == [0, 1]
        assert HOP_LOG.readers == ()


class TestFailureTriggers:
    def test_training_failure_dumps_the_ring(self, tmp_path):
        emit("sent", "explorer0", _h(1, 0xF))
        clock_value = [0.0]
        supervisor = Supervisor(
            suspect_after=0.5, dead_after=1.0, clock=lambda: clock_value[0]
        )
        supervisor.watch("explorer0", object(), restart=None)
        clock_value[0] = 5.0  # well past dead_after, no restart possible
        supervisor.poll_once()
        with pytest.raises(TrainingFailedError):
            supervisor.check()
        dump_root = os.environ["REPRO_FLIGHTREC_DIR"]
        dumps = os.listdir(dump_root)
        assert len(dumps) == 1
        meta, events = load_dump(os.path.join(dump_root, dumps[0]))
        assert meta["reason"] == "training_failed"
        assert any(e["detail"].get("trace") == 0xF for e in events)


class TestCliMerging:
    def test_cli_merges_multi_process_dumps(self, tmp_path):
        dump_dir = tmp_path / "crash"
        dump_dir.mkdir()
        explorer = HopLog("explorer0", capacity=32)
        learner = HopLog("learner", capacity=32)
        for seq in (1, 2):
            explorer.emit("sent", "explorer0.send", _h(seq, seq))
            learner.emit("delivered", "learner.recv", _h(seq, seq))
        learner.emit("consumed", "learner.recv", _h(1, 1))
        explorer.dump(str(dump_dir / "explorer0.bin"), reason="crash")
        learner.dump(str(dump_dir / "learner.bin"), reason="crash")

        out = str(tmp_path / "merged.json")
        assert trace_cli(["merge", str(dump_dir), "-o", out]) == 0
        with open(out, "r", encoding="utf-8") as handle:
            merged = json.load(handle)
        assert merged["format"] == "repro.trace.merged/v1"
        assert sorted(merged["processes"]) == ["explorer0", "learner"]
        stats = merged["chain_stats"]
        assert stats["total"] == 2
        assert stats["complete"] == 1  # seq 1 reached consumed
        assert stats["open"] == 1  # seq 2 delivered but never consumed
