"""Process endpoints: send/receive buffers plus sender & receiver threads.

An explorer or learner process holds a send buffer, a receive buffer, a
sender thread and a receiver thread (§3.2.1).  The workhorse thread (rollout
worker or trainer) deals only with local buffer reads and writes; the
sender/receiver threads move data between the local buffers and the broker's
communicator, event-driven off blocking queue gets.  The sender thread also
routes: it inserts into the ID queues of local destinations itself, and only
headers with remote destinations go through the header queue and the
broker's router thread.

The endpoint is thread-backed: the paper runs these as OS processes, but the
push-vs-pull ordering and the communication-computation overlap — the
properties under study — are identical (see DESIGN.md §2).
"""

from __future__ import annotations

import logging
import threading
import time
from typing import Callable, List, Optional, Sequence, Tuple

from .broker import Broker
from .buffers import MessageBuffer
from .concurrency import make_lock, spawn_thread
from .config import CoalescingSpec
from .errors import BackpressureError, LifecycleError
from .flowcontrol import (
    TERMINAL_REJECTED,
    TERMINAL_SHED,
    Lane,
    lane_of,
    never_blocking,
    release_header_shares,
)
from .message import (
    BODY_SIZE,
    COMPRESSED,
    DST,
    OBJECT_ID,
    SRC,
    TYPE,
    Message,
    MsgType,
    ensure_trace,
    pack_batch,
    packable,
    unpack_batch,
)
from .serialization import measure
from .stats import LatencyRecorder, ThroughputMeter
from .tracing import dump_all, emit, emit_many

#: One staged header: (header, originals) — ``originals`` are the
#: workhorse-visible messages the header carries (one, or a batch).
_Staged = Tuple[dict, List[Message]]

#: envelope sizes are counts, not seconds: 2 .. 1024 sub-messages
_BATCH_SIZE_BUCKETS = tuple(float(2 ** power) for power in range(1, 11))

#: Per-wakeup drain bound of the receiver thread, and the sender thread's
#: floor (amortizes queue locks whatever the envelope cap).
_DRAIN_LIMIT = 64

_LOG = logging.getLogger(__name__)


class ProcessEndpoint:
    """One logical XingTian process attached to a broker."""

    def __init__(
        self,
        name: str,
        broker: Broker,
        *,
        coalescing: Optional[CoalescingSpec] = None,
    ):
        self.name = name
        self.broker = broker
        #: how the sender thread packs a wake-up; the broker's unless
        #: overridden per endpoint
        self.coalescing: CoalescingSpec = (
            coalescing if coalescing is not None else broker.coalescing
        )
        #: :class:`~repro.core.config.FlowControlSpec` inherited from the
        #: broker; when set, the local buffers' lanes have watermarks and
        #: the workhorse feels backpressure at :meth:`send`
        self.flow = getattr(broker, "flow", None)
        #: staging for messages the workhorse produced: under a spec,
        #: control sends block it at the watermark (deadline bounded) and
        #: bulk sends shed the oldest staged rollout instead
        self.send_buffer = MessageBuffer(
            f"{name}.send", self.flow,
            on_shed=lambda lost: emit(TERMINAL_SHED, f"{name}.send", lost.header),
        )
        #: staging for delivered messages awaiting use.  The receiver
        #: thread must never block on a deadline (it would stall deliveries
        #: for every lane); a slow consumer sheds its own oldest bulk
        #: deliveries, which keeps memory bounded end-to-end instead of
        #: moving the unbounded queue one hop downstream.
        self.receive_buffer = MessageBuffer(
            f"{name}.recv", never_blocking(self.flow),
            on_shed=lambda lost: emit(TERMINAL_SHED, f"{name}.recv", lost.header),
        )
        #: control-lane sends abandoned because their backpressure deadline
        #: expired (written by the sender thread, read by telemetry)
        self.backpressure_expired = 0
        self._backpressure_warned = False
        self._backpressure_lock = make_lock(f"{name}.backpressure")
        self._id_queue = broker.register_process(name)
        self._sender: Optional[threading.Thread] = None
        self._receiver: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._started = False
        # What this endpoint records about itself — once; telemetry reads
        # these (docs/OBSERVABILITY.md), it attaches nothing.
        self.sent_meter = ThroughputMeter()
        self.received_meter = ThroughputMeter()
        self.delivery_latency = LatencyRecorder(f"{name}.delivery")
        #: sub-messages per coalesced BATCH envelope
        self.coalesce_sizes = LatencyRecorder(
            f"{name}.coalesce", buckets=_BATCH_SIZE_BUCKETS
        )

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        if self._started:
            raise LifecycleError(f"endpoint {self.name!r} already started")
        self._started = True
        self._sender = spawn_thread(f"{self.name}-sender", self._sender_loop)
        self._receiver = spawn_thread(f"{self.name}-receiver", self._receiver_loop)

    def stop(self, timeout: float = 5.0) -> None:
        self._stop.set()
        self.send_buffer.close()
        self.receive_buffer.close()
        self._id_queue.close()
        for thread in (self._sender, self._receiver):
            if thread is not None:
                thread.join(timeout=timeout)
        self._sender = None
        self._receiver = None
        self._release_unconsumed()
        # Delivered but never consumed: a body fetched from a shared-memory
        # store can hold a lease on its block, and a stopped endpoint must
        # pin none (the broker's refcount and arena audits come next).
        self.receive_buffer.drain()

    def _release_unconsumed(self) -> None:
        """Release refcounts of bodies still parked in the ID queue.

        A process that stops (or dies) before draining its ID queue would
        otherwise strand each undelivered body in the object store with a
        positive refcount — a leak per missed message.
        """
        store = self.broker.communicator.object_store
        for header in self._id_queue.drain():
            release_header_shares(store, header, shares=1)

    # -- workhorse-facing API ------------------------------------------------
    def send(self, message: Message) -> None:
        """Stage a message for transmission — returns immediately.

        This is the only "send" a workhorse thread performs: a local buffer
        write.  The sender thread pushes it onward asynchronously, which is
        what lets communication overlap with the computation that follows.
        """
        if message.body_size == 0 and message.body is not None:
            nbytes, frame = measure(message.body)
            message.header[BODY_SIZE] = nbytes
            if frame is not None:
                # The size came from a full serialization pass: keep the
                # frame so the sender thread's store insert reuses it
                # instead of pickling the same body a second time.
                message.frame = frame
        ensure_trace(message.header)
        emit("sent", self.name, message.header)
        try:
            self.send_buffer.put(message)
        except RuntimeError:
            if not self._stop.is_set() and not self.send_buffer.closed:
                raise
            # Shutdown is in progress; a workhorse mid-step may still try to
            # send.  Dropping the message mirrors a process being killed.

    def receive(self, timeout: Optional[float] = None) -> Optional[Message]:
        """Blocking read from the local receive buffer."""
        message = self.receive_buffer.get(timeout=timeout)
        if message is not None:
            emit("consumed", self.name, message.header)
        return message

    def receive_many(
        self, max_items: int, timeout: Optional[float] = None
    ) -> List[Message]:
        """Drain up to ``max_items`` delivered messages in one buffer lock.

        Blocks up to ``timeout`` for the first message, then takes whatever
        else is already buffered — the batch-consuming counterpart of
        :meth:`receive` for workhorses that process deliveries in bulk.
        """
        messages = self.receive_buffer.get_many(max_items, timeout=timeout)
        emit_many("consumed", self.name, [message.header for message in messages])
        return messages

    # -- internal threads -----------------------------------------------------
    def _stage(self, message: Message) -> _Staged:
        """Insert ``message``'s body into the object store; build its header.

        The body goes in with a refcount equal to the destination fan-out;
        the returned header — a copy this thread owns and hands on — carries
        the object ID to the destinations' ID queues.
        ``originals`` is the list of workhorse-level messages this header
        represents — for a BATCH envelope, the coalesced sub-messages.
        """
        store = self.broker.communicator.object_store
        if message.body is not None:
            object_id: Optional[str] = store.put(
                message.body,
                refcount=max(1, len(message.dst)),
                nbytes=message.body_size,
                frame=message.frame,
            )
        else:
            object_id = None
        header = dict(message.header)
        header[OBJECT_ID] = object_id
        return header, [message]

    def _stage_wakeup(
        self, messages: Sequence[Message], spec: CoalescingSpec
    ) -> List[_Staged]:
        """Stage what one wake-up drained, packing each run of consecutive
        small bulk messages that share ``(src, type, dst)`` into one BATCH
        envelope of at most ``spec.max_batch``.

        Everything else — control traffic (a BATCH envelope rides the bulk
        lane, so packing it would forfeit its priority), bodies over
        ``spec.max_message_bytes``, headers with fields a sub-header row
        cannot carry — is staged alone, in order, so per-(destination,
        lane) FIFO is what it would be one message at a time.
        """
        if len(messages) == 1:  # an idle wake-up: nothing to scan
            return [self._stage(messages[0])]
        staged: List[_Staged] = []
        run: List[Message] = []
        run_key: Optional[tuple] = None
        for message in messages:
            header = message.header
            key = None
            if (
                header.get(BODY_SIZE, 0) <= spec.max_message_bytes
                and packable(header)
                and lane_of(header.get(TYPE)) is Lane.BULK
            ):
                key = (header.get(SRC), header.get(TYPE), tuple(header.get(DST, ())))
                if key == run_key and len(run) < spec.max_batch:
                    run.append(message)
                    continue
            self._flush_run(run, staged)
            if key is None:
                run, run_key = [], None
                staged.append(self._stage(message))
            else:
                run, run_key = [message], key
        self._flush_run(run, staged)
        return staged

    def _flush_run(self, run: List[Message], staged: List[_Staged]) -> None:
        if not run:
            return
        if len(run) == 1:
            staged.append(self._stage(run[0]))
            return
        header, _ = self._stage(pack_batch(run))
        staged.append((header, run))
        self.coalesce_sizes.record(len(run))

    def _sender_loop(self) -> None:
        """Monitor the send buffer; push staged messages to their destinations.

        Each wakeup drains the send buffer (up to the batch cap), packs
        small same-destination runs into envelopes, inserts bodies into the
        object store with refcounts equal to their destination fan-out, and
        routes the whole batch on this thread: every local destination's ID
        queue takes its headers in one insert.  Only what is left of a
        header after that — its remote destinations — crosses the header
        queue to the router thread (§3.2.1).
        """
        router = self.broker.router
        while not self._stop.is_set():
            # Re-read the spec every wakeup: the FlowController retunes the
            # coalescing threshold at runtime by swapping self.coalescing.
            spec = self.coalescing
            messages = self.send_buffer.get_many(
                max(spec.max_batch, _DRAIN_LIMIT), timeout=0.25
            )
            if not messages:
                if self.send_buffer.closed:
                    return
                continue
            staged = self._stage_wakeup(messages, spec)
            remainders = router.route_local([entry[0] for entry in staged])
            if remainders:
                staged = self._forward_remote(staged, remainders)
            self.sent_meter.record_many([
                message.body_size
                for _, originals in staged
                for message in originals
            ])

    def _forward_remote(
        self, staged: List[_Staged], remainders: List[Tuple[int, dict]]
    ) -> List[_Staged]:
        """Queue the remote-bound remainders of ``staged`` — ``(index in
        staged, header)`` pairs — for the router thread; returns ``staged``
        without the entries the header queue refused.

        This is where a slow link pushes back on the sender: under a spec a
        control remainder waits at the header queue's watermark up to its
        deadline and bulk ones shed the oldest queued.  The queue reclaims
        the store shares of what it does not enqueue; the messages
        themselves are lost (the communicator is closing, or they queued
        up behind an expired control send).
        """
        header_queue = self.broker.communicator.header_queue
        try:
            accepted = header_queue.put_many(
                [header for _, header in remainders]
            )
        except BackpressureError as exc:
            # A control header hit its admission deadline: fail loudly
            # (once); it and the unenqueued remainder are dropped.
            with self._backpressure_lock:
                self.backpressure_expired += 1
            if not self._backpressure_warned:
                self._backpressure_warned = True
                _LOG.warning(
                    "endpoint %s: control-lane send expired under "
                    "backpressure (%s); further expiries counted silently",
                    self.name, exc,
                )
                # First escalation only: snapshot the last seconds of
                # channel activity for post-mortem (docs/OBSERVABILITY.md).
                dump_all("backpressure")
            accepted = exc.accepted
            rejected = remainders[accepted + 1:]  # the queue traced the expiry
        else:
            rejected = remainders[accepted:]
        for index, header in rejected:
            for message in staged[index][1]:
                # Local destinations (if any) were delivered: the terminal
                # event names only the ones that were not reached.
                emit(
                    TERMINAL_REJECTED, self.name, message.header,
                    dst=",".join(header[DST]),
                )
        if accepted == len(remainders):
            return staged
        refused = {index for index, _ in remainders[accepted:]}
        return [
            entry for index, entry in enumerate(staged) if index not in refused
        ]

    def _receiver_loop(self) -> None:
        """Monitor the ID queue; copy bodies into the local receive buffer.

        BATCH envelopes are unpacked here — one store fetch covers the whole
        run, then each restored sub-message lands in the receive buffer
        individually, so workhorses never see the transport envelope.
        """
        store = self.broker.communicator.object_store
        while not self._stop.is_set():
            headers = self._id_queue.get_many(_DRAIN_LIMIT, timeout=0.25)
            if not headers:
                if self._id_queue.closed:
                    return
                continue
            deliveries: List[Message] = []
            for header in headers:
                object_id = header.get(OBJECT_ID)
                if object_id is not None:
                    body = store.get(object_id)
                    store.release(object_id)
                else:
                    body = None
                if header.get(TYPE) == MsgType.BATCH and body is not None:
                    deliveries.extend(unpack_batch(Message(header, body)))
                    continue
                # The router gave this destination its own header: it
                # becomes the delivered message's, scrubbed of transport
                # fields.
                header[OBJECT_ID] = None
                header[COMPRESSED] = False
                deliveries.append(Message(header, body))
            now = time.monotonic()  # one clock read ages the whole batch
            self.delivery_latency.record_many(
                [message.age(now) for message in deliveries]
            )
            self.received_meter.record_many(
                [message.body_size for message in deliveries]
            )
            emit_many(
                "delivered", self.name, [message.header for message in deliveries]
            )
            try:
                self.receive_buffer.put_many(deliveries)
            except RuntimeError:
                return  # receive buffer closed during shutdown
            # A leased body pins its block for as long as anything refers
            # to it, this frame included: wait for the next batch empty-handed.
            del deliveries, body


class WorkhorseThread:
    """A workhorse (rollout worker or trainer) running a step function.

    ``step_fn`` is called repeatedly until it returns ``False`` or the
    workhorse is stopped.  Exceptions are captured so a crashing workhorse
    surfaces at ``join`` instead of dying silently.
    """

    def __init__(self, name: str, step_fn: Callable[[], bool]):
        self.name = name
        self._step_fn = step_fn
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self.error: Optional[BaseException] = None

    def start(self) -> None:
        if self._thread is not None:
            raise LifecycleError(f"workhorse {self.name!r} already started")
        self._thread = spawn_thread(self.name, self._run)

    def _run(self) -> None:
        try:
            while not self._stop.is_set():
                if not self._step_fn():
                    return
        except BaseException as exc:  # noqa: BLE001 - surfaced via .error
            self.error = exc

    def stop(self) -> None:
        self._stop.set()

    def join(self, timeout: Optional[float] = None) -> None:
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    @property
    def stopping(self) -> bool:
        return self._stop.is_set()
