"""One workload in this process: set up, measure, verify, tear down, report.

The runner (``cli.py``) starts a fresh interpreter per workload and reads
the one JSON object this module prints last.  ``setup_s`` runs from the
moment the runner spawned the interpreter to the first timed operation:
imports, building stores, brokers, endpoints, fabric or cluster, payload
generation and warm-up.
"""

from __future__ import annotations

import os
import resource
import threading
import time
from typing import Any, Dict, List, Optional

from repro.core.message import make_message

from . import channel, layers, train
from .proxies import Trace

#: shares of ``--seconds`` in a traced run: the untraced reference of the
#: first phase, then that phase and the one-in-flight phase under trace
_REFERENCE_SHARE, _TRACED_SHARE = 0.3, 0.35

SHM_DIR = "/dev/shm"


def _shm_segments() -> set:
    return set(os.listdir(SHM_DIR)) if os.path.isdir(SHM_DIR) else set()


def _surviving_threads(grace_s: float = 2.0) -> List[str]:
    """Names of threads other than main still alive after a short grace."""
    deadline = time.monotonic() + grace_s
    while True:
        alive = [
            thread.name for thread in threading.enumerate()
            if thread is not threading.main_thread()
        ]
        if not alive or time.monotonic() >= deadline:
            return alive
        time.sleep(0.01)


class Report:
    """What one worker run found, in the shape the runner expects."""

    def __init__(self, workload: str, seed: int, seconds: float, traced: bool):
        self.data: Dict[str, Any] = {
            "workload": workload, "seed": seed, "seconds": seconds,
            "traced": traced, "attempted": 0, "failed": 0, "failures": {},
            "end_to_end": {}, "per_layer": {}, "samples": {}, "notes": [],
        }

    def fail(self, kind: str, count: int) -> None:
        if count:
            failures = self.data["failures"]
            failures[kind] = failures.get(kind, 0) + count
            self.data["failed"] += count

    def phase(self, result: channel.PhaseResult) -> None:
        self.data["attempted"] += result.sent
        for kind in ("lost", "duplicated", "reordered", "corrupt", "timed_out"):
            self.fail(kind, getattr(result, kind))

    def census(self, census: Dict[str, float]) -> None:
        self.fail("leaked", int(census["object_store.leaked"]))
        self.fail("dropped", int(census["router.dropped"]))
        self.fail("protocol_errors", int(census["tcp.protocol_errors"]))

    def hygiene(self, shm_before: set) -> None:
        """Fail the workload if it leaves threads or segments behind."""
        threads = _surviving_threads()
        segments = sorted(_shm_segments() - shm_before)
        if threads:
            self.data["notes"].append(f"threads survived: {threads}")
        if segments:
            self.data["notes"].append(f"{SHM_DIR} segments left: {segments}")
        if threads or segments:
            # Hygiene failures void the run rather than one message.
            self.fail("hygiene", max(1, self.data["attempted"] - self.data["failed"]))


def _run_on_one_cpu() -> None:
    """This interpreter, and every thread and process it starts, on one CPU.

    The program's threads share one interpreter lock, so a second core adds
    next to no parallel work; it adds a cross-core wake-up at every hand-off,
    and on a virtual machine that costs 20-100 us depending on whether the
    hypervisor is still polling for the idle core, a state that flips every
    few seconds.  Spread over two cores the same code read 90 or 250 us
    one-way on ``local_small`` and 140 or 640 us on ``wire_remote``, and its
    throughput was both lower (3.6 k against 10.7 k msg/s over the wire) and
    less steady.  On one CPU a hand-off is a context switch and the numbers
    are the program's, not the scheduler's.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- channel workloads -------------------------------------------------------
def _channel(
    workload: channel.ChannelWorkload, report: Report, spawned_at: float,
    seconds: float, seed: int, setup_only: bool,
) -> None:
    plane, warmed, warm_failed = channel.measure_setup(workload, seed)
    report.data["setup_s"] = time.monotonic() - spawned_at
    report.data["attempted"] += warmed
    report.fail("warmup", warm_failed)
    try:
        if not setup_only:
            for phase in workload.phases:
                result = plane.run(phase, seconds=seconds * phase.share)
                report.phase(result)
                report.data["end_to_end"].update(result.metrics(len(plane.consumers)))
                if result.latencies:
                    report.data["samples"]["oneway"] = result.tails()
                else:
                    report.data["samples"][f"{phase.name}_windows"] = len(result.rates)
    finally:
        report.census(channel.teardown(plane))


def _channel_traced(
    workload: channel.ChannelWorkload, report: Report, seconds: float, seed: int,
    spans_path: Optional[str],
) -> None:
    from repro.core.serialization import serialization_copies_total

    hot, cold = workload.phases[0], workload.phases[-1]
    fanout = workload.consumers
    per_layer = report.data["per_layer"]

    # The untraced reference: the same first phase with no proxy installed.
    plane, _, _ = channel.measure_setup(workload, seed)
    try:
        reference = plane.run(hot, seconds=seconds * _REFERENCE_SHARE)
    finally:
        report.census(channel.teardown(plane))
    report.phase(reference)

    trace = Trace()

    def instrument(built: channel.Plane) -> None:
        trace.instrument(built.brokers, built.producers + built.consumers, built.fabric)
        built.record_journeys = True

    plane, _, _ = channel.measure_setup(workload, seed, instrument)
    try:
        trace.cut()  # the warm-up's spans are not part of any phase
        copies = serialization_copies_total()
        links = channel.link_counters(plane)
        busy = plane.run(hot, seconds=seconds * _TRACED_SHARE)
        busy_cut = trace.cut()
        copies = serialization_copies_total() - copies
        links = {
            key: value - links.get(key, 0.0)
            for key, value in channel.link_counters(plane).items()
        }
        alone = plane.run(cold, seconds=seconds * _TRACED_SHARE)
        alone_cut = trace.cut()
        header = make_message(
            plane.producers[0].name, plane.destinations, workload.msg_type,
            None, body_size=hot.body_bytes,
        ).header
        body = plane.templates[hot.name, 0]
    finally:
        census = channel.teardown(plane)
    report.census(census)
    report.phase(busy)
    report.phase(alone)

    producers = [endpoint.name for endpoint in plane.producers[: hot.producers]]
    consumers = [endpoint.name for endpoint in plane.consumers]
    per_layer.update(layers.throughput_layers(
        busy_cut, busy.completed, busy.completed * fanout, producers, consumers,
        plane.source_broker.name, plane.sink_broker.name,
    ))
    per_layer.update(layers.hop_budget(
        alone_cut, plane.producers[0].name, plane.source_broker.name,
        plane.fabric.name if plane.fabric is not None else None, alone.journeys,
    ))
    per_layer.update(layers.standalone_layers(body, header, workload.wire))
    per_layer.update(census)
    per_layer["serialization.copies_per_msg"] = copies / max(busy.completed, 1)
    items = links.get("items_sent", 0.0)
    per_layer["tcp.syscalls_per_msg"] = links.get("syscalls_total", 0.0) / items if items else 0.0
    per_layer["tcp.overhead_bytes_per_msg"] = (
        links.get("bytes_sent", 0.0) / items - hot.body_bytes if items else 0.0
    )
    per_layer["tcp.partial_writes"] = links.get("partial_writes", 0.0)
    traced_rate = busy.metrics(fanout).get("mb_per_s", 0.0)
    reference_rate = reference.metrics(fanout).get("mb_per_s", 0.0)
    per_layer["trace.overhead_share"] = (
        1.0 - traced_rate / reference_rate if reference_rate else None
    )
    per_layer["trace.spans"] = float(trace.spans())
    report.data["samples"]["hop_deliveries"] = sum(
        len(journeys) for journeys in alone.journeys.values()
    )
    if spans_path:
        trace.save(spans_path)


# -- train_ppo ---------------------------------------------------------------
def _train_outcome(report: Report, result: train.TrainResult) -> None:
    sessions = max(result.sessions, 1)
    report.data["attempted"] += sessions
    if result.error is not None:
        report.data["notes"].append(result.error)
        report.fail("training", sessions)
    report.data["samples"].update(
        sessions=result.sessions,
        steps_per_s=round(result.steps_per_s, 1),
        average_return=result.average_return,
    )


def _train(
    report: Report, spawned_at: float, seconds: float, seed: int, setup_only: bool
) -> None:
    # Building and tearing down happen inside session.run(); its wall time
    # beyond the trained interval is this workload's share of set-up.
    before_run = time.monotonic() - spawned_at
    result = train.run(seed, 0.3 if setup_only else seconds)
    report.data["setup_s"] = before_run + result.overhead_s
    if setup_only:
        return
    _train_outcome(report, result)
    report.data["end_to_end"].update(result.end_to_end)


def _train_traced(
    report: Report, seconds: float, seed: int, spans_path: Optional[str]
) -> None:
    per_layer = report.data["per_layer"]
    reference = train.run(seed, seconds * 0.45)
    _train_outcome(report, reference)
    trace = Trace()

    def instrument(cluster: Any) -> None:
        trace.instrument(
            [machine.broker for machine in cluster.machines],
            train.endpoints_of(cluster),
        )

    result, cluster = train.run_traced(seed, seconds * 0.55, instrument)
    _train_outcome(report, result)
    cut = trace.cut()
    names = [endpoint.name for endpoint in train.endpoints_of(cluster)]
    broker = cluster.machines[0].broker
    messages, _ = cut.batches("send.get", names)
    deliveries, _ = cut.batches("id.get", names)
    per_layer.update(layers.throughput_layers(
        cut, messages, deliveries, names, names, broker.name, broker.name,
    ))
    per_layer.update(result.layers)
    per_layer["trace.overhead_share"] = (
        1.0 - result.steps_per_s / reference.steps_per_s
        if reference.steps_per_s else None
    )
    per_layer["trace.spans"] = float(trace.spans())
    if spans_path:
        trace.save(spans_path)


def run(
    workload: str, seed: int, seconds: float, traced: bool, spawned_at: float,
    setup_only: bool = False, spans_path: Optional[str] = None,
) -> Dict[str, Any]:
    """Run one workload here and now; returns the worker report."""
    _run_on_one_cpu()  # before any thread starts: they inherit it
    report = Report(workload, seed, seconds, traced)
    shm_before = _shm_segments()
    if workload == "train_ppo":
        if traced:
            _train_traced(report, seconds, seed, spans_path)
        else:
            _train(report, spawned_at, seconds, seed, setup_only)
    else:
        spec = channel.WORKLOADS[workload]
        if traced:
            _channel_traced(spec, report, seconds, seed, spans_path)
        else:
            _channel(spec, report, spawned_at, seconds, seed, setup_only)
    report.hygiene(shm_before)
    if not traced and not setup_only:
        report.data["end_to_end"]["peak_rss_mb"] = _peak_rss_mb()
    return report.data
