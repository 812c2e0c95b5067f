"""Communication micro-benchmarks for the zero-copy hot path.

Times the three layers the hot path crosses, in isolation:

* **serialize / deserialize** — scatter-gather frames vs the wire bytes
  they produce, plus the ``copy=False`` zero-copy read path;
* **object store** — ``put``/``get``/``release`` of a 1 MB array through
  the pooled arena vs the legacy one-segment-per-message path, and the
  lease-against-copy break-even table ``LEASE_MIN_BYTES`` is set from;
* **endpoint throughput** — small (≤4 KB) messages through a live broker
  with coalescing on (the default) vs off (``max_batch=1``: one header
  per message).

Results land in ``BENCH_comm.json`` at the repo root so the perf
trajectory has a committed baseline, and two coarse regression gates are
asserted (the ISSUE's acceptance bars, halved nowhere):

* coalescing must deliver >= 2x small-message throughput;
* the arena must cut 1 MB serialize+write latency by >= 25%.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

import numpy as np
import pytest

from repro.core.broker import Broker
from repro.core.config import CoalescingSpec
from repro.core.endpoint import ProcessEndpoint
from repro.core import object_store
from repro.core.message import MsgType, make_message
from repro.core.object_store import SharedMemoryObjectStore
from repro.core.serialization import deserialize, make_frame, serialize
from repro.bench.reporting import format_table, ratio

from .conftest import emit

BENCH_JSON = os.path.join(os.path.dirname(__file__), os.pardir, "BENCH_comm.json")

MB = 1 << 20

#: acceptance bars from the ISSUE, enforced as coarse CI regression gates
MIN_COALESCING_SPEEDUP = 2.0
MIN_ARENA_LATENCY_CUT = 0.25

SMALL_MESSAGES = 3000  # per throughput run; bodies stay under 4 KB


def _timeit(fn, *, repeats: int = 30, warmup: int = 3) -> float:
    """Median seconds per call over ``repeats`` timed runs."""
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


# -- layer 1: serialization ------------------------------------------------

def _bench_serialization() -> dict:
    payload = {"obs": np.random.default_rng(0).random((256, 1024)),  # 2 MB
               "meta": {"step": 1, "ids": list(range(32))}}
    blob = serialize(payload)
    frame = make_frame(payload)
    dest = bytearray(frame.nbytes)

    return {
        "payload_bytes": len(blob),
        "serialize_s": _timeit(lambda: serialize(payload)),
        "make_frame_s": _timeit(lambda: make_frame(payload)),
        "serialize_into_s": _timeit(lambda: frame.serialize_into(dest)),
        "deserialize_copy_s": _timeit(lambda: deserialize(blob, copy=True)),
        "deserialize_view_s": _timeit(lambda: deserialize(blob, copy=False)),
    }


# -- layer 2: object store (arena vs per-segment) --------------------------

def _store_cycle(store: SharedMemoryObjectStore, body) -> None:
    object_id = store.put(body)
    try:
        store.get(object_id)
    finally:
        store.release(object_id)


def _store_put_release(store: SharedMemoryObjectStore, body) -> None:
    object_id = store.put(body)
    store.release(object_id)


def _bench_object_store() -> dict:
    body = np.random.default_rng(1).random(MB // 8)  # exactly 1 MB
    arena_store = SharedMemoryObjectStore()
    segment_store = SharedMemoryObjectStore(use_arena=False)
    try:
        # serialize+write latency: put alone (release keeps occupancy flat
        # without touching the timed put path's syscall profile).
        arena_put = _timeit(lambda: _store_put_release(arena_store, body))
        segment_put = _timeit(lambda: _store_put_release(segment_store, body))
        arena_rt = _timeit(lambda: _store_cycle(arena_store, body))
        segment_rt = _timeit(lambda: _store_cycle(segment_store, body))
    finally:
        arena_store.close()
        segment_store.close()
    return {
        "body_bytes": body.nbytes,
        "arena_put_release_s": arena_put,
        "segment_put_release_s": segment_put,
        "arena_roundtrip_s": arena_rt,
        "segment_roundtrip_s": segment_rt,
        "put_latency_cut": 1.0 - ratio(arena_put, segment_put),
    }


#: body sizes of the break-even table (bytes)
LEASE_TABLE_SIZES = (1 << 10, 16 << 10, 64 << 10, 256 << 10, MB)


def _bench_lease_break_even() -> dict:
    """One put/get/release cycle per size with ``get`` forced to each side
    of ``LEASE_MIN_BYTES``: a lease costs a fixed few microseconds, a
    copy-out costs per byte.  The constant belongs at the first size in
    this table where the lease wins (docs/PERFORMANCE.md).

    The two sides take turns, a few hundred cycles at a time, so a box
    that drifts between two speeds drifts under both.
    """
    shipped = object_store.LEASE_MIN_BYTES
    sides = (("copy_s", sys.maxsize), ("lease_s", 0))
    table = {}
    try:
        for size in LEASE_TABLE_SIZES:
            body = np.random.default_rng(size).integers(0, 256, size, dtype=np.uint8)
            loops = max(64, min(2000, (64 * MB) // size))
            samples = {side: [] for side, _ in sides}
            store = SharedMemoryObjectStore()
            try:
                for turn in range(8):
                    for side, constant in sides:
                        object_store.LEASE_MIN_BYTES = constant
                        started = time.perf_counter()
                        for _ in range(loops):
                            _store_cycle(store, body)
                        elapsed = time.perf_counter() - started
                        if turn:  # the first turn of each side is warm-up
                            samples[side].append(elapsed / loops)
                assert store.leak_report() == []
            finally:
                store.close()
            table[str(size)] = {
                side: statistics.median(values) for side, values in samples.items()
            }
    finally:
        object_store.LEASE_MIN_BYTES = shipped
    return {"lease_min_bytes": shipped, "cycle": table}


# -- layer 3: endpoint throughput (coalescing on vs max_batch=1) ------------

def _throughput(coalescing: CoalescingSpec) -> float:
    """Messages/s for SMALL_MESSAGES sub-4KB bodies through one pair.

    Runs over the shared-memory store — the deployment the hot path is
    for — so the measurement covers serialization, arena writes, and the
    per-message queue/routing costs coalescing amortizes.
    """
    broker = Broker(
        "bench-broker",
        store=SharedMemoryObjectStore(),
        coalescing=coalescing,
    )
    broker.start()
    sender = ProcessEndpoint("bench-src", broker)
    sink = ProcessEndpoint("bench-dst", broker)
    body = b"x" * 700  # a typical pre-encoded control/stats payload
    try:
        sender.start()
        sink.start()
        started = time.perf_counter()
        for _ in range(SMALL_MESSAGES):
            sender.send(
                make_message("bench-src", ["bench-dst"], MsgType.DATA, body)
            )
        received = 0
        deadline = time.monotonic() + 60.0
        while received < SMALL_MESSAGES and time.monotonic() < deadline:
            received += len(sink.receive_many(512, timeout=0.25))
        elapsed = time.perf_counter() - started
        assert received == SMALL_MESSAGES, f"dropped {SMALL_MESSAGES - received}"
        return SMALL_MESSAGES / elapsed
    finally:
        sender.stop()
        sink.stop()
        broker.stop()


def _bench_coalescing() -> dict:
    # Best-of-2 per mode: throughput is a max-capacity measurement, and a
    # single run is at the mercy of scheduler noise on shared CI boxes.
    # "Off" is the degenerate setting: one header per message.
    baseline = max(_throughput(CoalescingSpec(max_batch=1)) for _ in range(2))
    coalesced = max(_throughput(CoalescingSpec()) for _ in range(2))
    return {
        "messages": SMALL_MESSAGES,
        "baseline_msgs_per_s": baseline,
        "coalesced_msgs_per_s": coalesced,
        "speedup": ratio(coalesced, baseline),
    }


# -- driver ----------------------------------------------------------------

@pytest.mark.benchmark(group="comm-micro")
def test_comm_micro(once):
    def run():
        return {
            "serialization": _bench_serialization(),
            "object_store": _bench_object_store(),
            "lease_break_even": _bench_lease_break_even(),
            "coalescing": _bench_coalescing(),
        }

    results = once(run)

    store = results["object_store"]
    coal = results["coalescing"]
    rows = [
        ["serialize 2MB (ms)", results["serialization"]["serialize_s"] * 1e3],
        ["deserialize 2MB copy (ms)",
         results["serialization"]["deserialize_copy_s"] * 1e3],
        ["deserialize 2MB view (ms)",
         results["serialization"]["deserialize_view_s"] * 1e3],
        ["1MB put: segment (ms)", store["segment_put_release_s"] * 1e3],
        ["1MB put: arena (ms)", store["arena_put_release_s"] * 1e3],
        ["arena put latency cut", f"{store['put_latency_cut'] * 100:.1f}%"],
        *(
            [f"{int(size) >> 10} KiB cycle: copy / lease (us)",
             f"{row['copy_s'] * 1e6:.1f} / {row['lease_s'] * 1e6:.1f}"]
            for size, row in results["lease_break_even"]["cycle"].items()
        ),
        ["small msgs/s: max_batch=1", f"{coal['baseline_msgs_per_s']:,.0f}"],
        ["small msgs/s: coalescing on", f"{coal['coalesced_msgs_per_s']:,.0f}"],
        ["coalescing speedup", f"{coal['speedup']:.2f}x"],
    ]
    emit(
        "comm_micro",
        format_table(["metric", "value"], rows,
                     title="Communication micro-benchmarks (zero-copy hot path)"),
    )

    with open(BENCH_JSON, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")

    # Coarse regression gates (the ISSUE's acceptance bars).
    assert coal["speedup"] >= MIN_COALESCING_SPEEDUP, (
        f"coalescing speedup {coal['speedup']:.2f}x < "
        f"{MIN_COALESCING_SPEEDUP}x"
    )
    assert store["put_latency_cut"] >= MIN_ARENA_LATENCY_CUT, (
        f"arena cut 1MB put latency by only {store['put_latency_cut'] * 100:.1f}% "
        f"(< {MIN_ARENA_LATENCY_CUT * 100:.0f}%)"
    )
