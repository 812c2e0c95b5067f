"""One OS process per machine: the process deployment of the one data plane.

:func:`run_process_session` forks a child per non-learner machine before it
builds anything; each child hosts its machine (the same ``build_cluster``,
``hosted=[machine]``) and the launcher runs the ordinary session over the
learner's.  The wire fabric joins them as it joins two hosts, and
:func:`_host_machine` is what a second host would run: only the address
exchange over the set-up pipe is this launcher's.
"""

from __future__ import annotations

import os
import sys
import time
import traceback
from typing import Any, Dict, Optional, Tuple

from ..core.config import XingTianConfig
from ..core.errors import TrainingFailedError
from ..core.tracing import Tracer, dump_all, set_process
from ..transport.tcp import SocketFabric
from .cluster import broker_name, build_cluster, check_hosted
from .wire import WireRunReport

#: either side's patience during set-up; the launcher's with leaving children
_CEILING_S = 30.0


def _receive(pipe: Any, who: str, *sentinels: Any, timeout: float = _CEILING_S) -> Any:
    """The next object ``who`` sends, unless it dies first or stays silent."""
    from multiprocessing.connection import wait  # not at every import of repro
    try:
        wait([pipe, *sentinels], timeout)
        if pipe.poll(0):
            return pipe.recv()
    except (EOFError, OSError):
        pass
    raise TrainingFailedError(f"{who} is gone or silent")


def _host_machine(config: XingTianConfig, machine: str, pipe: Any, trace: bool) -> None:
    """A child's whole life: build ``machine``, swap addresses, start, run
    until its workhorses have ended (shutdown is a message) or the launcher
    is gone, stop — the broker's store audit included — report, exit."""
    launcher = os.getppid()
    set_process(machine)
    tracer = Tracer(1 << 20)
    code = 1
    try:
        if trace:  # before anybody can reach this machine: nothing unseen
            tracer.attach()
        fabric = SocketFabric("data")
        cluster = build_cluster(config, data_fabric=fabric, hosted=[machine])
        pipe.send(fabric.addresses()[broker_name(machine)])
        center = broker_name(config.learner_machine.name)
        fabric.add_address(center, _receive(pipe, "the launcher"))
        cluster.start()
        try:
            while os.getppid() == launcher and any(
                process.workhorse.running for process in cluster.processes()
            ):
                time.sleep(0.02)
        finally:
            cluster.stop()
            tracer.detach()
        cluster.raise_worker_errors()
        fabric.raise_errors()
        pipe.send({"link_stats": fabric.link_stats(), "events": tracer.dicts()})
        code = 0
    except Exception:  # noqa: BLE001 - the exit code is the report
        traceback.print_exc()
        dump_all("machine_failed")
    # multiprocessing flushes the streams and leaves through os._exit: none
    # of the launcher's (or pytest's) exit handlers run in a child.
    sys.exit(code)


class _Children:
    """The launcher's handle on its children (``Cluster.children``)."""

    def __init__(self, config: XingTianConfig, trace: bool):
        import multiprocessing  # not at every import of repro
        context = multiprocessing.get_context("fork")
        self._members: Dict[str, Tuple[Any, Any]] = {}
        self.reports: Dict[str, Dict[str, Any]] = {}
        self.exit_codes: Dict[str, Optional[int]] = {}
        for spec in config.machines:
            if spec.has_learner:
                continue
            ours, theirs = context.Pipe()
            child = context.Process(
                target=_host_machine, args=(config, spec.name, theirs, trace),
                name=f"repro-{spec.name}", daemon=True,
            )
            child.start()
            theirs.close()
            self._members[spec.name] = (child, ours)

    def exchange_addresses(self, fabric: SocketFabric, center: str) -> None:
        """Learn where each child listens, then tell each the center's
        address: a child starts once both sides can reach each other."""
        for machine, (child, pipe) in self._members.items():
            address = _receive(pipe, f"machine {machine!r}", child.sentinel)
            fabric.add_address(broker_name(machine), address)
        for _, pipe in self._members.values():
            pipe.send(fabric.addresses()[center])

    def check(self) -> None:
        """A child that has left before shutdown went out is a failed run."""
        for machine, (child, _) in self._members.items():
            if child.exitcode is not None:
                dump_all("child_died")
                raise TrainingFailedError(
                    f"machine {machine!r} (pid {child.pid}) left mid-run "
                    f"with exit code {child.exitcode}"
                )

    def reap(self, ceiling: float = _CEILING_S) -> None:
        """See every child out, once: take its report, wait under the
        ceiling, kill a straggler.  ``exit_codes`` says how each left."""
        deadline = time.monotonic() + ceiling
        for machine, (child, pipe) in self._members.items():
            left = max(0.0, deadline - time.monotonic())
            try:
                self.reports[machine] = _receive(pipe, machine, child.sentinel, timeout=left)
            except TrainingFailedError:
                pass  # the exit code tells
            child.join(max(0.0, deadline - time.monotonic()))
            child.kill()  # a straggler; nothing to one that has left
            child.join()
            self.exit_codes[machine] = child.exitcode
        self._members = {}


def run_process_session(config: XingTianConfig, *, trace: bool = False) -> WireRunReport:
    """Run ``config`` with one OS process per machine, joined by TCP.  This
    process hosts the learner's machine and runs the session over it:
    telemetry, flow controller, stop condition and result observe what it
    hosts.  A child that dies, or leaves with a non-zero code, fails the run."""
    from ..runtime import XingTianSession  # runtime imports this package

    config.validate()
    center = config.learner_machine.name
    check_hosted(config, [center])
    children = _Children(config, trace)  # forked before anything exists here
    fabric = SocketFabric("data")
    tracer = Tracer(1 << 20)
    try:
        session = XingTianSession(config, data_fabric=fabric, hosted=[center])
        session.build().children = children
        if trace:  # before a child learns where to send: nothing unseen
            tracer.attach()
        children.exchange_addresses(fabric, broker_name(center))
        result = session.run()
    finally:
        tracer.detach()
        children.reap(0.0)  # those cluster.stop() never got to: not started
        fabric.close()
    fabric.raise_errors()
    if any(children.exit_codes.values()):
        raise TrainingFailedError(f"machines left with exit codes {children.exit_codes}")
    report = WireRunReport(
        result, fabric.link_stats(), tracer.dicts(), exit_codes=children.exit_codes
    )
    report.traces.append((center, report.trace_events))
    for machine, left in children.reports.items():
        report.link_stats.update(left["link_stats"])
        report.traces.append((machine, left["events"]))
    return report
