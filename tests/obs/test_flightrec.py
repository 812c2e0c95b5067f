"""Flight recorder: ring semantics, dump format, failure-path triggers."""

from __future__ import annotations

import json
import os

import pytest

from repro.core.errors import TrainingFailedError
from repro.core.supervision import Supervisor
from repro.obs.trace.__main__ import main as trace_cli
from repro.obs.trace.flightrec import (
    FLIGHTREC_SCHEMA,
    MAGIC,
    RECORD_SIZE,
    FlightRecorder,
    configure,
    dump_all,
    get_recorder,
    load_dump,
    set_process,
)


@pytest.fixture(autouse=True)
def isolated_recorder(tmp_path, monkeypatch):
    """Point the process-wide recorder at a fresh ring + tmp dump dir."""
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

        recorder = FlightRecorder("p", capacity=8, clock=clock)
        recorder.record("sent", "alice", seq=1, trace=0xA)
        recorder.record("delivered", "bob", seq=1, trace=0xA)
        events = recorder.events()
        assert [e["kind"] for e in events] == ["sent", "delivered"]
        assert events[0]["detail"] == {"seq": 1, "trace": 0xA}
        assert events[0]["ts"] < events[1]["ts"]

    def test_missing_seq_and_trace_are_omitted(self):
        recorder = FlightRecorder("p", capacity=4)
        recorder.record("tick", "loop")
        (event,) = recorder.events()
        assert event["detail"] == {}

    def test_ring_wraps_keeping_newest(self):
        recorder = FlightRecorder("p", capacity=4)
        for seq in range(10):
            recorder.record("sent", "alice", seq=seq)
        assert recorder.count == 4
        assert recorder.total == 10
        assert [e["detail"]["seq"] for e in recorder.events()] == [6, 7, 8, 9]

    def test_record_many_is_one_timestamp_per_batch(self):
        ticks = iter(range(1, 100))
        recorder = FlightRecorder("p", capacity=4, clock=lambda: float(next(ticks)))
        recorder.record("sent", "alice", seq=0)
        recorder.record_many("routed", "alice", [(1, 0xA), (2, 0xB), (3, 0)])
        recorder.record_many("routed", "alice", [])
        events = recorder.events()  # capacity 4: nothing overwritten yet
        assert [e["kind"] for e in events] == ["sent", "routed", "routed", "routed"]
        assert [e["detail"].get("seq") for e in events] == [0, 1, 2, 3]
        assert events[1]["detail"]["trace"] == 0xA and "trace" not in events[3]["detail"]
        assert [e["ts"] for e in events] == [1.0, 2.0, 2.0, 2.0]
        recorder.record_many("routed", "alice", [(4, 0), (5, 0)])  # wraps
        assert recorder.total == 6 and recorder.count == 4
        assert [e["detail"]["seq"] for e in recorder.events()] == [2, 3, 4, 5]

    def test_intern_overflow_maps_to_question_mark(self):
        recorder = FlightRecorder("p", capacity=4)
        # Exhaust the source table (id 0 is reserved for "?").
        for index in range(5000):
            recorder._intern(
                f"src{index}", recorder._sources, recorder._source_ids
            )
        recorder.record("sent", "one-too-many", seq=1)
        (event,) = recorder.events()
        assert event["source"] == "?"
        assert event["kind"] == "sent"  # kind table still has room

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder("p", capacity=0)


class TestDumpFormat:
    def test_dump_load_roundtrip(self, tmp_path):
        recorder = FlightRecorder("learner", capacity=16)
        for seq in range(20):  # wrap once to exercise the split copy
            recorder.record("sent", "alice", seq=seq, trace=seq + 1)
        path = recorder.dump(str(tmp_path / "ring.bin"), reason="unit")
        meta, events = load_dump(path)
        assert meta["format"] == FLIGHTREC_SCHEMA
        assert meta["process"] == "learner"
        assert meta["reason"] == "unit"
        assert meta["count"] == 16
        assert meta["overwritten"] == 4
        assert [e["detail"]["seq"] for e in events] == list(range(4, 20))

    def test_dump_is_magic_plus_meta_plus_records(self, tmp_path):
        recorder = FlightRecorder("p", capacity=4)
        recorder.record("sent", "a", seq=1)
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
        with pytest.raises(ValueError):
            load_dump(str(path))


class TestProcessSingleton:
    def test_configure_disabled_removes_recorder(self):
        assert configure(enabled=False) is None
        assert get_recorder() is None
        assert dump_all("nothing") is None  # must not raise when disabled

    def test_dump_all_honors_env_dir(self, tmp_path):
        target = str(tmp_path / "dumps")
        set_process("worker")
        get_recorder().record("sent", "alice", seq=1)
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


class TestFailureTriggers:
    def test_training_failure_dumps_the_ring(self, tmp_path):
        get_recorder().record("sent", "explorer0", seq=1, trace=0xF)
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
        explorer = FlightRecorder("explorer0", capacity=32)
        learner = FlightRecorder("learner", capacity=32)
        for seq in (1, 2):
            explorer.record("sent", "explorer0.send", seq=seq, trace=seq)
            learner.record("delivered", "learner.recv", seq=seq, trace=seq)
        learner.record("consumed", "learner.recv", seq=1, trace=1)
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
