"""Real TCP transport: scatter-gather socket links between brokers.

What joins brokers in different OS processes or on different hosts: a
:class:`SocketLink` implements the :class:`~repro.transport.link.Link`
interface over a TCP connection, and a :class:`SocketListener` accepts
peer connections and feeds received messages to the local broker.  A
:class:`SocketFabric` ties both into the existing
:class:`~repro.transport.fabric.Fabric` API, so
:meth:`~repro.core.broker.Broker._remote_send` traffic crosses real
sockets with no broker/router changes — including BATCH envelopes (one
wire message carries a sender wake-up's run of small messages; its
counters count the messages) and adaptive wire compression, which both
apply upstream of this module.

The unit of work on both sides is what one wake-up holds, a single
message being the group of one.  The send path is zero-copy:
:func:`~repro.transport.wire.encode_message` yields the wire header plus
every frame segment — header record, body descriptor, raw NumPy views — of
each message, and since messages are self-delimiting the segments of
consecutive small ones simply concatenate into one ``socket.sendmsg``; nothing ever
materializes a contiguous buffer (asserted via
:func:`~repro.core.serialization.serialization_copies_total`).  The
receive side reads ahead into one :data:`_READ_AHEAD`-byte buffer while
messages are small, decodes every complete message a read brought — each
out of an exact-size copy of its own payload — and hands them up
together; a message too large for the buffer is read into one of its
own, reused for a later large message once the body decoded from it has
died.  Bodies are deserialized with ``copy=False``, and a payload buffer
stays alive (and out of reuse) for exactly as long as any zero-copy view
of it does.

**Same-host lane.**  When both ends share ``/dev/shm`` — the handshake's
probe says so — a body frame of at least
:data:`~repro.core.object_store.LEASE_MIN_BYTES` is written into a block of
the link's own :class:`~repro.core.arena.SlabArena` and only its handle
crosses the socket.  The reader hands the body up as a read-only lease on
the block; when the lease dies the block's handle goes back to the link as
a *credit*, on the same connection, and the link frees it.  Anything that
stops the lane (another host, a refused probe, an exhausted arena, a dead
connection) leaves the byte path above.  docs/NETWORKING.md has the
records.
"""

from __future__ import annotations

import functools
import logging
import socket
import threading
import time
import weakref
from bisect import bisect_right
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..core.arena import (
    ArenaError,
    ArenaExhaustedError,
    BlockHandle,
    SlabArena,
    attach_segment,
    create_probe,
    detach_segment,
    read_probe,
    unlink_segment,
)
from ..core.concurrency import make_lock, spawn_thread
from ..core.errors import TransportError
from ..core.message import make_header, message_count, MsgType
from ..core.object_store import LEASE_MIN_BYTES
from ..core.serialization import Frame, _count_copy, view_holder
from ..core.tracing import emit
from .fabric import Fabric
from .link import Link
from .wire import (
    ACK,
    DEFAULT_MAX_MESSAGE_BYTES,
    FLAG_LANE,
    HANDLE,
    MAGIC,
    PREAMBLE,
    WireProtocolError,
    decode_frame_table,
    decode_message,
    decode_preamble,
    encode_handle,
    encode_message,
    preamble_flags,
    wire_header_size,
)

_LOG = logging.getLogger(__name__)

#: Linux IOV_MAX is 1024; chunk sendmsg gather lists beyond it.
_IOV_MAX = 1024

#: The reader's read-ahead buffer, and so also the most a link gathers into
#: one write: a message no larger than this can arrive, whole and with
#: others, in one read; a larger one travels alone and is read into a
#: buffer of its own.
_READ_AHEAD = 64 * 1024

#: A reader reuses the buffer of a message too large for the read-ahead
#: buffer once the last view of its body has died, instead of allocating a
#: fresh one per message: whether ``malloc`` hands such a buffer back warm
#: or trims it and faults new pages in for the next one differs from one
#: process to the next, and large-message throughput with it by up to
#: half.  Buffers are whole pages; a reader keeps at most this many bytes
#: of them idle.
_PAGE = 4096
_IDLE_BYTES = 16 * 1024 * 1024

#: key marking a handshake header (first message on every connection)
HELLO = "wire_hello"
#: HELLO key naming the link's probe segment and its nonce: ``(name, nonce)``
LANE_PROBE = "wire_probe"
#: key marking a raw (non-broker) item wrapped for the wire
RAW = "wire_raw"

#: how long a reader keeps draining an in-flight message after close()
_GRACE_S = 2.0
_POLL_S = 0.25

#: A lane's arena: size classes from LEASE_MIN_BYTES up to _LANE_MAX_BLOCK,
#: four blocks to a slab, at most _LANE_CAPACITY of slabs per link.  A body
#: frame over the largest class travels as bytes.
_LANE_MAX_BLOCK = 16 << 20
_LANE_SLAB_BLOCKS = 4
_LANE_CAPACITY = 64 << 20
#: how much one non-blocking read of credits asks for
_CREDIT_READ = 256 * HANDLE.size
#: how long SocketFabric.unregister waits for a delivery still in progress
_SETTLE_S = 5.0


class WireConnectionError(TransportError):
    """The TCP connection under a wire link failed (reset, refused, EOF).

    ``sent`` counts the messages of the failed call written whole before
    the failing syscall.
    """

    def __init__(self, message: str, sent: int = 0):
        super().__init__(message)
        self.sent = sent


def parse_address(address: str) -> Tuple[str, int]:
    """``"host:port"`` → ``(host, port)`` (IPv4/hostname form)."""
    host, sep, port = address.rpartition(":")
    if not sep or not host:
        raise ValueError(f"address {address!r} is not host:port")
    return host, int(port)


def format_address(address: Tuple[str, int]) -> str:
    return f"{address[0]}:{address[1]}"


class _Lane:
    """A link's same-host lane: the arena bodies are written to, the blocks
    out with the peer, and the credits that bring them back.

    A block is *outstanding* from the write of its handle until the credit
    naming it arrives; only then is it freed.  A lane whose connection died
    abandons what is outstanding — a reader may still hold those blocks, so
    they are never recycled — and the segments go when the link closes.
    """

    def __init__(self, name: str):
        self.lock = make_lock(f"{name}.lane")
        #: created on the first shipment
        self.arena: Optional[SlabArena] = None
        #: handle record sent -> the block, for each outstanding block (a
        #: credit is the record, sent back unchanged)
        self.outstanding: Dict[bytes, BlockHandle] = {}
        #: the start of a credit record whose rest has not been read yet
        self.partial = b""
        self.dead = False
        self.shipments = 0
        self.nbytes = 0
        self.fallbacks = 0

    def abandon(self) -> None:
        """The connection is gone: no credit will come (lock held)."""
        self.dead = True
        self.outstanding.clear()


class SocketLink(Link):
    """One-directional broker link over a TCP connection.

    ``send_many`` accepts the fabric's ``(header, body)`` tuples (anything
    else is wrapped in a RAW header) and writes them with ``sendmsg``
    straight from the frame segments, consecutive small messages in one
    call; ``send`` is ``send_many`` of one.  Thread-safe: concurrent
    senders serialize on a per-link lock, matching the one-NIC-worker
    semantics of :class:`~repro.transport.link.ThrottledLink` without the
    simulation.

    A connection error kills the link: that send and every later one
    raises :class:`WireConnectionError`.  Only :meth:`close` makes sending
    a silent no-op.

    The handshake turns the same-host lane on when the listener can read
    the link's probe segment (see the module docstring).
    """

    def __init__(
        self,
        address: Tuple[str, int],
        *,
        src: str = "",
        dst: str = "",
        name: Optional[str] = None,
        connect_timeout: float = 5.0,
        nodelay: bool = True,
        max_message_bytes: int = DEFAULT_MAX_MESSAGE_BYTES,
    ):
        self.address = address
        self.src = src
        self.dst = dst
        self.name = name or f"wire:{src}->{dst}@{format_address(address)}"
        self.max_message_bytes = max_message_bytes
        self._closed = threading.Event()
        #: what the connection died of; guarded by the send lock
        self._dead: Optional[str] = None
        self._send_lock = make_lock(f"{self.name}.send")
        self._counters_lock = make_lock(f"{self.name}.counters")
        # -- per-link wire counters (exported via stats()) ------------------
        self.bytes_sent = 0
        self.items_sent = 0
        self.syscalls_total = 0
        self.partial_writes = 0
        self.segments_total = 0
        self.send_errors = 0
        #: test/fault hook: cap bytes accepted per sendmsg (forces partial
        #: writes without shrinking SO_SNDBUF); None means unlimited
        self._max_send_bytes: Optional[int] = None
        #: the same-host lane, None while it is off.  Test hook: set it to
        #: None right after construction to keep large bodies on the byte
        #: path.
        self._lane: Optional[_Lane] = None
        self._sock = socket.create_connection(address, timeout=connect_timeout)
        if nodelay:
            # Broker messages are latency-sensitive and already batched
            # upstream (coalescing), so Nagle only adds delay.
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._handshake()
        self._sock.settimeout(None)

    # -- wire plumbing ------------------------------------------------------
    def _handshake(self) -> None:
        """First message on the connection names the sending/receiving node
        and offers the lane: it names a probe segment holding a nonce, and
        the listener's ack says whether it read that nonce.  A listener
        that does not ack within the connect timeout leaves the lane off."""
        hello = make_header(self.src, [self.dst], MsgType.COMMAND)
        hello[HELLO] = 1
        try:
            probe = create_probe()
        except OSError:  # no room or no access in /dev/shm: bytes only
            probe = None
        try:
            if probe is not None:
                hello[LANE_PROBE] = probe
            _, buffers, _ = self._encode((hello, None))
            self._write_buffers(buffers)
            ack = b""
            try:
                while len(ack) < ACK.size:
                    chunk = self._sock.recv(ACK.size - len(ack))
                    if not chunk:
                        break
                    ack += chunk
            except OSError:  # socket.timeout included
                pass
            if probe is not None and len(ack) == ACK.size and ACK.unpack(ack) == (MAGIC, 1):
                self._lane = _Lane(self.name)
        finally:
            if probe is not None:
                unlink_segment(probe[0])

    def _encode(self, item: Any) -> Tuple[Dict[str, Any], List[Any], int]:
        """``item`` as (its header, its wire buffers, its payload bytes);
        anything but a ``(header, body)`` tuple travels RAW-wrapped."""
        if (
            isinstance(item, tuple)
            and len(item) == 2
            and isinstance(item[0], dict)
        ):
            header, body = item
        else:
            header = make_header(self.src, [self.dst], MsgType.DATA)
            header[RAW] = 1
            body = item
        lane = self._ship if self._lane is not None else None
        buffers, payload = encode_message(header, body, lane)
        return header, buffers, payload

    def _check_size(self, payload: int) -> None:
        if payload > self.max_message_bytes:
            raise WireProtocolError(
                f"{self.name}: message of {payload} bytes exceeds "
                f"the {self.max_message_bytes}-byte link maximum"
            )

    # -- the same-host lane -------------------------------------------------
    def _ship(self, frame: Frame) -> Optional[bytes]:
        """Write ``frame`` into a lane block; returns the block's handle
        record, or None when the frame travels as bytes: it is under
        ``LEASE_MIN_BYTES`` or over the largest block, the lane is dead, or
        the arena is exhausted even after reading the credits in."""
        lane = self._lane
        nbytes = frame.nbytes
        if lane is None or lane.dead or not LEASE_MIN_BYTES <= nbytes <= _LANE_MAX_BLOCK:
            return None
        self._check_size(nbytes)
        with lane.lock:
            if lane.arena is None:
                lane.arena = SlabArena(
                    name="lane",
                    min_block=LEASE_MIN_BYTES,
                    max_block=_LANE_MAX_BLOCK,
                    slab_blocks=_LANE_SLAB_BLOCKS,
                    capacity_bytes=_LANE_CAPACITY,
                    track=False,  # close() unlinks; no tracker process
                )
            arena = lane.arena
        try:
            try:
                block = arena.alloc(nbytes)
            except ArenaExhaustedError:
                self._collect_credits()
                block = arena.alloc(nbytes)
        except ArenaExhaustedError:
            with lane.lock:
                lane.fallbacks += 1
            return None
        except ArenaError:  # closed by a concurrent close()
            return None
        frame.serialize_into(block.buf[:nbytes])
        block.release()
        handle = block.handle
        record = encode_handle(BlockHandle(
            handle.segment, handle.offset, nbytes, generation=handle.generation
        ))
        with lane.lock:
            lane.outstanding[record] = handle
            lane.shipments += 1
            lane.nbytes += nbytes
        return record

    def _collect_credits(self) -> None:
        """Free every block the peer has credited back so far, reading the
        socket without blocking and only while blocks are outstanding.  A
        closed connection, or a credit for a block that is not out, ends
        the lane: what is outstanding is abandoned."""
        lane = self._lane
        if lane is None:
            return
        with lane.lock:
            if lane.dead or not lane.outstanding:
                return
            data = lane.partial
            while True:
                try:
                    chunk = self._sock.recv(_CREDIT_READ, socket.MSG_DONTWAIT)
                except BlockingIOError:
                    break
                except OSError:
                    chunk = b""
                if not chunk:
                    lane.abandon()
                    return
                data += chunk
                if len(chunk) < _CREDIT_READ:
                    break
            whole = len(data) - len(data) % HANDLE.size
            lane.partial = data[whole:]
            assert lane.arena is not None  # blocks are outstanding
            for at in range(0, whole, HANDLE.size):
                credit = data[at : at + HANDLE.size]
                handle = lane.outstanding.pop(credit, None)
                if handle is None:
                    _LOG.error("%s: a credit for no block out: %r", self.name, credit)
                    lane.abandon()
                    return
                lane.arena.free(handle)

    def send(self, item: Any, nbytes: int = 0) -> None:
        self.send_many(((item, nbytes),))

    def send_many(self, items: Sequence[Tuple[Any, int]]) -> None:
        """Encode ``items`` and write them in order, gathering consecutive
        messages into one write for as long as together they fit the
        reader's read-ahead buffer (a larger message goes alone).

        A message that cannot be encoded, or is over the link maximum,
        raises :class:`WireProtocolError` once everything before it has
        been written; either error carries as ``sent`` how many messages of
        this call went out whole.
        """
        if self._closed.is_set():
            return
        lane = self._lane
        if lane is not None and lane.outstanding:
            self._collect_credits()
        done = 0
        #: the gather being built: (header, payload bytes) per message, every
        #: message's buffers, and where each message ends in their byte stream
        pending: List[Tuple[Dict[str, Any], int]] = []
        buffers: List[Any] = []
        ends: List[int] = []
        try:
            for item, _ in items:
                try:
                    header, encoded, payload = self._encode(item)
                    self._check_size(payload)
                except WireProtocolError:
                    if pending:
                        self._write_messages(pending, buffers, ends)
                        done += len(pending)
                    raise
                size = len(encoded[0]) + payload  # on the wire
                if pending and ends[-1] + size > _READ_AHEAD:
                    self._write_messages(pending, buffers, ends)
                    done += len(pending)
                    pending, buffers, ends = [], [], []
                pending.append((header, payload))
                buffers.extend(encoded)
                ends.append((ends[-1] if ends else 0) + size)
            if pending:
                self._write_messages(pending, buffers, ends)
        except TransportError as exc:
            exc.sent += done
            raise

    def _write_messages(
        self,
        messages: List[Tuple[Dict[str, Any], int]],
        buffers: List[Any],
        ends: List[int],
    ) -> None:
        """One gather: ``messages`` cross the socket as ``buffers``, the one
        ``wire_send`` stage of each of them."""
        for header, payload in messages:
            emit("stage_begin", self.name, header, stage="wire_send", nbytes=payload)
        written = len(messages)
        try:
            self._write_buffers(buffers, ends)
        except WireConnectionError as exc:
            written = exc.sent
            raise
        finally:
            for header, _ in messages:
                emit("stage_end", self.name, header, stage="wire_send")
            count = sum(message_count(header) for header, _ in messages[:written])
            with self._counters_lock:
                self.items_sent += count

    def _write_buffers(self, buffers: List[Any], ends: Sequence[int] = ()) -> None:
        """Gather-write ``buffers`` fully, advancing across partial writes.

        ``ends`` are the offsets at which the messages in ``buffers`` end.
        The first ``OSError`` kills the link; it, and every call after it,
        raises :class:`WireConnectionError` with the number of ``ends`` the
        bytes written had passed.
        """
        views = [memoryview(buf).cast("B") for buf in buffers]
        total = sum(view.nbytes for view in views)
        with self._send_lock:
            sent_so_far = 0
            first_call = True
            try:
                if self._dead is not None:
                    raise OSError(self._dead)  # fails like the write that killed it
                while views:
                    batch = views[:_IOV_MAX]
                    limit = self._max_send_bytes
                    if limit is not None:
                        batch = self._cap_batch(batch, limit)
                    if hasattr(self._sock, "sendmsg"):
                        sent = self._sock.sendmsg(batch)
                    else:  # pragma: no cover - platforms without sendmsg
                        _count_copy()
                        blob = b"".join(bytes(view) for view in batch)
                        self._sock.sendall(blob)
                        sent = len(blob)
                    sent_so_far += sent
                    with self._counters_lock:
                        self.syscalls_total += 1
                        self.segments_total += len(batch)
                        self.bytes_sent += sent
                        if first_call and sent_so_far < total:
                            self.partial_writes += 1
                    first_call = False
                    views = self._advance(views, sent)
            except OSError as exc:
                lost = "lost mid-send" if self._dead is None else "already lost"
                self._dead = str(exc)
                lane = self._lane
                if lane is not None:
                    with lane.lock:
                        lane.abandon()
                with self._counters_lock:
                    self.send_errors += 1
                raise WireConnectionError(
                    f"{self.name}: connection {lost}: {exc}",
                    sent=bisect_right(ends, sent_so_far),
                ) from exc

    @staticmethod
    def _cap_batch(views: List[memoryview], limit: int) -> List[memoryview]:
        """Trim a gather list to at most ``limit`` bytes (fault injection)."""
        capped: List[memoryview] = []
        remaining = max(1, limit)
        for view in views:
            if remaining <= 0:
                break
            take = min(view.nbytes, remaining)
            capped.append(view[:take])
            remaining -= take
        return capped

    @staticmethod
    def _advance(views: List[memoryview], sent: int) -> List[memoryview]:
        """Drop fully-written views; slice a partially-written head."""
        index = 0
        for view in views:
            if sent < view.nbytes:
                break
            sent -= view.nbytes
            index += 1
        remaining = views[index:]
        if remaining and sent:
            remaining[0] = remaining[0][sent:]
        return remaining

    # -- observability ------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        """Wire counters for the telemetry sampler's per-link gauges.

        ``lane_shipments`` / ``lane_bytes`` count the bodies (and their
        frame bytes) written to lane blocks, ``lane_fallbacks`` the lane
        bodies that went as bytes because the arena was exhausted, and
        ``lane_outstanding`` the blocks not credited back yet (read after
        taking in the credits that have arrived).
        """
        lane = self._lane
        lane_counts = [0, 0, 0, 0]
        if lane is not None:
            if lane.outstanding:
                self._collect_credits()
            with lane.lock:
                lane_counts = [
                    lane.shipments, lane.nbytes, lane.fallbacks,
                    len(lane.outstanding),
                ]
        with self._counters_lock:
            items = self.items_sent
            return {
                "bytes_sent": float(self.bytes_sent),
                "items_sent": float(items),
                "syscalls_total": float(self.syscalls_total),
                "partial_writes": float(self.partial_writes),
                "send_errors": float(self.send_errors),
                "segments_per_message": (
                    self.segments_total / items if items else 0.0
                ),
                "syscalls_per_message": (
                    self.syscalls_total / items if items else 0.0
                ),
                **dict(zip(_LANE_STATS, map(float, lane_counts))),
            }

    def close(self) -> None:
        """Close the connection; a lane abandons its outstanding blocks and
        unlinks its segments (a reader's live lease keeps its mapping)."""
        if self._closed.is_set():
            return
        self._closed.set()
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
        lane = self._lane
        if lane is not None:
            with lane.lock:
                lane.abandon()
                arena = lane.arena
            if arena is not None:
                arena.close()


_LANE_STATS = ("lane_shipments", "lane_bytes", "lane_fallbacks", "lane_outstanding")


#: one decoded wire message: (header, body, payload bytes on the wire)
_Received = Tuple[Dict[str, Any], Any, int]


class _Connection:
    """One accepted peer connection and its reader thread."""

    def __init__(self, listener: "SocketListener", sock: socket.socket, peer: Any):
        self.listener = listener
        self.sock = sock
        self.peer = peer
        self.node: Optional[str] = None  # learned from the handshake
        #: a failing ``deliver`` is logged once per connection
        self.delivery_error_logged = False
        #: when a closing listener stops waiting for the message in flight
        self._grace_deadline: Optional[float] = None
        #: large-message buffers no body uses any more: finalizers on any
        #: thread append, only the reader takes
        self._idle: List[bytearray] = []
        #: whether the peer's lane is on: its HELLO's probe nonce was read
        self.lane = False
        #: handle records of lane bodies that have died, to credit back:
        #: finalizers on any thread append, only the reader takes
        self._credits: List[bytes] = []
        #: a credit write failed: the link is gone and abandons its blocks
        self._credits_lost = False
        sock.settimeout(_POLL_S)
        self.thread: Optional[threading.Thread] = None

    def start(self) -> None:
        self.thread = spawn_thread(
            f"{self.listener.name}-reader-{self.peer}", self._run
        )

    # -- framed reads -------------------------------------------------------
    def _read(self, into: memoryview, held: int) -> int:
        """One ``recv_into`` that brought bytes; returns how many.

        ``held`` is how much of an unfinished message the reader already
        has.  With nothing held the stream is at a message boundary: there
        EOF is clean (returns 0) and a closing listener ends the reader
        (:class:`_Stop`).  Mid-message, EOF is a short read
        (:class:`WireProtocolError`) and a closing listener keeps draining
        for a grace period, so in-flight messages still deliver.
        """
        listener = self.listener
        while True:
            if listener.closing:
                if not held:
                    raise _Stop()
                if self._grace_deadline is None:
                    self._grace_deadline = time.monotonic() + _GRACE_S
                elif time.monotonic() >= self._grace_deadline:
                    raise WireProtocolError(
                        f"{listener.name}: shutdown while a message was in "
                        f"flight ({held} bytes of it read)"
                    )
            try:
                read = self.sock.recv_into(into)
            except socket.timeout:
                self._flush_credits()
                continue
            except OSError as exc:
                if listener.closing and not held:
                    raise _Stop() from None
                raise WireProtocolError(
                    f"{listener.name}: connection error mid-read: {exc}"
                ) from exc
            if read:
                listener._count_read()
            elif held:
                raise WireProtocolError(
                    f"{listener.name}: short read — peer closed after "
                    f"{held} bytes of a message"
                )
            return read

    def _large_buffer(self, nbytes: int) -> bytearray:
        """A buffer for a message of ``nbytes`` too large for the window:
        an idle one of its page-rounded size, else a new one (idle ones of
        another size are let go)."""
        size = -(-nbytes // _PAGE) * _PAGE
        idle = self._idle
        while idle:
            buffer = idle.pop()
            if len(buffer) == size:
                return buffer
        return bytearray(size)

    # -- the same-host lane ---------------------------------------------------
    def hello(self, header: Dict[str, Any]) -> None:
        """The peer's HELLO: learn its node, read its probe, ack."""
        self.node = str(header.get("src") or "")
        probe = header.get(LANE_PROBE)
        if type(probe) is tuple and len(probe) == 2 and type(probe[0]) is str:
            self.lane = read_probe(probe[0]) == probe[1]
        if self.lane:
            # Read once, needed no more: unlinked here as well as by the
            # link, so a link killed while it waits for this ack leaves
            # nothing behind.
            unlink_segment(probe[0])
        self._send(ACK.pack(MAGIC, int(self.lane)))

    def _send(self, data: bytes) -> bool:
        try:
            self.sock.sendall(data)
        except OSError:  # the link is gone; its reader side sees EOF
            return False
        return True

    def _lease(self, attached: Set[str], handle: BlockHandle) -> memoryview:
        """The body frame ``handle`` names, as a read-only view of its
        block that credits the block back once the last array decoded
        from it has died; its segment joins ``attached``."""
        listener = self.listener
        if not self.lane:
            raise WireProtocolError(
                f"{listener.name}: a lane message from a peer whose probe failed"
            )
        if handle.size > listener.max_message_bytes:
            raise WireProtocolError(
                f"oversized message: {handle.size} > "
                f"{listener.max_message_bytes} bytes"
            )
        try:
            segment = attach_segment(handle.segment)
        except OSError as exc:
            raise WireProtocolError(
                f"{listener.name}: cannot attach {handle.segment!r}: {exc}"
            ) from None
        attached.add(handle.segment)
        end = handle.offset + handle.size
        if end > segment.nbytes:
            raise WireProtocolError(
                f"{listener.name}: handle {handle} reaches past its "
                f"{segment.nbytes}-byte segment"
            )
        holder = view_holder(segment[handle.offset : end])
        weakref.finalize(holder, self._credits.append, encode_handle(handle))
        listener._count(lane_arrivals=1)
        return memoryview(holder)

    def _flush_credits(self) -> None:
        """Write back the handles of the lane bodies that have died."""
        credits = self._credits
        if not credits or self._credits_lost:
            return
        taken = credits[:]
        del credits[: len(taken)]
        if self._send(b"".join(taken)):
            self.listener._count(credits_sent=len(taken))
        else:
            self._credits_lost = True

    def _hand_up(self, batch: List["_Received"]) -> None:
        """Deliver what a read completed, then credit what has died.  The
        batch is emptied: a body the consumer let go of must not live on
        in the reader while it waits for the next read."""
        self.listener._on_messages(self, batch)
        batch.clear()
        self._flush_credits()

    def _lend(self, buffer: bytearray, payload: memoryview) -> memoryview:
        """``payload`` (the message's bytes in ``buffer``) as the read-only
        view it is decoded from: ``buffer`` goes idle when the last view of
        the decoded body dies."""
        holder = view_holder(payload)
        weakref.finalize(holder, _go_idle, self._idle, buffer)
        return memoryview(holder)

    def _receive(self, attached: Set[str]) -> None:
        """Read the stream until a clean EOF, handing up what each read
        completed before blocking for the next; the segments lane handles
        named join ``attached``.

        While messages are small (the last one decoded fits the read-ahead
        buffer) a read asks for as much as the buffer holds and every
        complete message in it is decoded without another syscall; after a
        larger one, a read asks only for what the next step of the message
        at hand needs.  Every check of the preamble and of the frame table
        runs as soon as their bytes are there, before anything is
        allocated for the payload they describe.
        """
        listener = self.listener
        lease = functools.partial(self._lease, attached)
        window = memoryview(bytearray(_READ_AHEAD))
        start = end = 0  # window[start:end]: received, not yet decoded
        read_ahead = True
        while True:
            batch: List[_Received] = []
            try:
                while True:
                    held = end - start
                    # What the message at ``start`` needs in the window
                    # before its next step: preamble, frame table, payload.
                    need = PREAMBLE.size
                    if held < need:
                        break
                    preamble = window[start : start + need]
                    frame_count, msg_length = decode_preamble(
                        preamble, max_message_bytes=listener.max_message_bytes
                    )
                    need = payload_at = wire_header_size(frame_count)
                    if held < need:
                        break
                    lengths = decode_frame_table(
                        preamble, window[start + PREAMBLE.size : start + need]
                    )
                    lane = lease if preamble_flags(preamble) & FLAG_LANE else None
                    need += msg_length
                    if need > _READ_AHEAD:
                        # Too large for the window: into a buffer of its
                        # own, starting with what the window holds of it.
                        # Nothing decoded waits for those reads.
                        if batch:
                            self._hand_up(batch)
                            batch = []
                        buffer = self._large_buffer(msg_length)
                        payload = memoryview(buffer)[:msg_length]
                        got = held - payload_at
                        payload[:got] = window[start + payload_at : end]
                        while got < msg_length:
                            got += self._read(payload[got:], payload_at + got)
                        start = end = 0
                        payload = self._lend(buffer, payload)
                    elif held < need:
                        break
                    else:
                        # Its own exact-size copy: a body never aliases
                        # bytes the next read overwrites, nor pins more
                        # than itself.
                        payload = bytes(window[start + payload_at : start + need])
                        start += need
                    batch.append((
                        *decode_message(
                            payload, lengths, zero_copy=listener.zero_copy,
                            lane=lane,
                        ),
                        msg_length,
                    ))
                    read_ahead = need <= _READ_AHEAD
            finally:
                # Also when the stream turns out poisoned further on: what
                # was valid before that point is delivered.
                if batch:
                    self._hand_up(batch)
            if start:
                window[:held] = window[start:end]
                start, end = 0, held
            limit = _READ_AHEAD if read_ahead else need
            read = self._read(window[end:limit], held)
            if not read:
                return
            end += read

    def _run(self) -> None:
        attached: Set[str] = set()
        try:
            self._receive(attached)
        except _Stop:
            pass
        except WireProtocolError as exc:
            self.listener._on_protocol_error(self, exc)
        except Exception as exc:  # noqa: BLE001 - reader must die loudly, not hang
            self.listener._on_protocol_error(
                self, WireProtocolError(f"{self.listener.name}: {exc}")
            )
        finally:
            self.close()
            for name in attached:
                detach_segment(name)
            self.listener._forget(self)

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


def _go_idle(idle: List[bytearray], buffer: bytearray) -> None:
    """Keep ``buffer`` for its reader's next large message, within
    :data:`_IDLE_BYTES` (idle buffers all have one size: see
    :meth:`_Connection._large_buffer`)."""
    if len(buffer) * (len(idle) + 1) <= _IDLE_BYTES:
        idle.append(buffer)


class _Stop(Exception):
    """Internal: clean reader exit during listener shutdown."""


class SocketListener:
    """Accepts wire connections for one node and delivers their messages.

    ``deliver(src_node, items)`` runs synchronously on the connection's
    reader thread with everything one read completed, in order; each item
    is the ``(header, body)`` tuple the sending fabric shipped (RAW-wrapped
    items are unwrapped back to the bare object).  Zero-copy bodies are
    views into a per-message buffer that the reader drops right after
    ``deliver`` returns — anything that outlives the callback does so
    because it still references the views (the buffer stays alive with
    them).
    """

    def __init__(
        self,
        deliver: Callable[[str, List[Any]], None],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        name: str = "wire-listener",
        backlog: int = 16,
        zero_copy: bool = True,
        max_message_bytes: int = DEFAULT_MAX_MESSAGE_BYTES,
    ):
        self.name = name
        self.deliver = deliver
        self.zero_copy = zero_copy
        self.max_message_bytes = max_message_bytes
        self._closing_event = threading.Event()
        self._lock = make_lock(f"{name}.listener")
        self._connections: List[_Connection] = []
        # -- receive counters (exported via stats()) ------------------------
        self.bytes_received = 0
        self.items_received = 0
        self.reads_total = 0
        self.protocol_errors = 0
        self.delivery_errors = 0
        self.connections_total = 0
        self.lane_arrivals = 0
        self.credits_sent = 0
        self.last_error: Optional[WireProtocolError] = None
        self._server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._server.bind((host, port))
        self._server.listen(backlog)
        self._server.settimeout(_POLL_S)
        self.address: Tuple[str, int] = self._server.getsockname()[:2]
        self._accept_thread = spawn_thread(f"{name}-accept", self._accept_loop)

    @property
    def closing(self) -> bool:
        return self._closing_event.is_set()

    def _accept_loop(self) -> None:
        while not self.closing:
            try:
                sock, peer = self._server.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # server socket closed under us during shutdown
            connection = _Connection(self, sock, peer)
            with self._lock:
                self.connections_total += 1
                if self.closing:
                    connection.close()
                else:
                    # Listed before its reader runs, so a reader that ends
                    # at once still finds itself to remove.
                    self._connections.append(connection)
                    connection.start()

    # -- reader callbacks ---------------------------------------------------
    def _on_messages(
        self, connection: _Connection, messages: List[_Received]
    ) -> None:
        """Count, trace and hand up what one read of ``connection``
        completed: one ``deliver`` call, one ``wire_deliver`` stage per
        message."""
        items: List[Any] = []
        headers: List[Dict[str, Any]] = []
        nbytes_total = 0
        for header, body, nbytes in messages:
            if header.get(HELLO):
                connection.hello(header)
                continue
            emit("stage_begin", self.name, header, stage="wire_deliver", nbytes=nbytes)
            items.append(body if header.get(RAW) else (header, body))
            headers.append(header)
            nbytes_total += nbytes
        count = sum(map(message_count, headers))
        with self._lock:
            self.items_received += count
            self.bytes_received += nbytes_total
        if not items:
            return
        try:
            self.deliver(connection.node or "", items)
        except Exception:  # noqa: BLE001 - a dying consumer must not kill the reader
            with self._lock:
                self.delivery_errors += 1
            if not connection.delivery_error_logged:
                connection.delivery_error_logged = True
                _LOG.exception(
                    "%s: delivering %d message(s) from %r failed; counted in "
                    "delivery_errors, not logged again for this connection",
                    self.name, len(items), connection.node,
                )
        finally:
            for header in headers:
                emit("stage_end", self.name, header, stage="wire_deliver")

    def _on_protocol_error(
        self, connection: _Connection, exc: WireProtocolError
    ) -> None:
        """A poisoned stream: count it, remember it, drop the connection.

        The error is *loud* — :meth:`raise_errors` (called from fabric
        close and tests) re-raises the last one — but it must not take the
        whole listener down: other connections are still framed correctly.
        """
        with self._lock:
            self.protocol_errors += 1
            self.last_error = exc

    def _count_read(self) -> None:
        with self._lock:
            self.reads_total += 1

    def _count(self, **counts: int) -> None:
        with self._lock:
            for counter, count in counts.items():
                setattr(self, counter, getattr(self, counter) + count)

    def _forget(self, connection: _Connection) -> None:
        """``connection``'s reader has finished: stop listing it."""
        with self._lock:
            if connection in self._connections:
                self._connections.remove(connection)

    def raise_errors(self) -> None:
        """Re-raise the most recent protocol error, if any arrived."""
        with self._lock:
            if self.last_error is not None:
                raise self.last_error

    def stats(self) -> Dict[str, float]:
        with self._lock:
            items = self.items_received
            return {
                "bytes_received": float(self.bytes_received),
                "items_received": float(items),
                "reads_total": float(self.reads_total),
                "reads_per_message": self.reads_total / items if items else 0.0,
                "protocol_errors": float(self.protocol_errors),
                "delivery_errors": float(self.delivery_errors),
                "connections_total": float(self.connections_total),
                "lane_arrivals": float(self.lane_arrivals),
                "credits_sent": float(self.credits_sent),
            }

    def close(self, timeout: float = 5.0) -> None:
        """Stop accepting, drain in-flight messages, join reader threads."""
        if self.closing:
            return
        self._closing_event.set()
        try:
            self._server.close()
        except OSError:
            pass
        self._accept_thread.join(timeout=timeout)
        with self._lock:
            connections = list(self._connections)
        deadline = time.monotonic() + timeout
        for connection in connections:
            assert connection.thread is not None  # started when it was listed
            connection.thread.join(
                timeout=max(0.1, deadline - time.monotonic())
            )
            connection.close()


class SocketFabric(Fabric):
    """A :class:`Fabric` whose inter-node links are real TCP connections.

    Nodes come in two flavours:

    * **local** nodes ``register`` a handler and ``listen`` on a TCP
      address; remote peers reach them through it.
    * **remote** nodes are declared with ``add_address(node, "host:port")``
      — ``connect``/``send`` to them builds a :class:`SocketLink` lazily.

    Same-process destinations (registered but never given an address) keep
    the base class's in-proc :class:`~repro.transport.link.DirectLink`, so
    one fabric can mix local and wire links — the deployment-mode matrix in
    docs/NETWORKING.md.
    """

    def __init__(
        self,
        name: str = "wire-fabric",
        *,
        nodelay: bool = True,
        zero_copy: bool = True,
        max_message_bytes: int = DEFAULT_MAX_MESSAGE_BYTES,
        connect_timeout: float = 5.0,
    ):
        super().__init__(name)
        self.nodelay = nodelay
        self.zero_copy = zero_copy
        self.max_message_bytes = max_message_bytes
        self.connect_timeout = connect_timeout
        self._addresses: Dict[str, Tuple[str, int]] = {}
        self._listeners: Dict[str, SocketListener] = {}
        #: links :meth:`close` has closed, kept for their final counters
        self._closed_links: Dict[Tuple[str, str], Link] = {}
        #: node -> the reader threads inside a delivery to it right now
        self._delivering: Dict[str, List[int]] = {}
        self._settled = threading.Condition(self._lock)

    # -- wiring -------------------------------------------------------------
    def listen(
        self, node: str, host: str = "127.0.0.1", port: int = 0
    ) -> Tuple[str, int]:
        """Open ``node``'s listener; returns the bound (host, port).

        Incoming messages are handed to the handler ``register``-ed for
        ``node`` (looked up per delivery, so registration order does not
        matter).  The bound address is also recorded, so in-process peers
        can ``connect`` to it by node name alone — the loopback two-node
        topology the wire-smoke CI job runs.
        """

        def deliver(src_node: str, items: List[Any]) -> None:
            # The handler runs outside the lock, so unregister() learns
            # from ``_delivering`` whether a delivery is still under way.
            me = threading.get_ident()
            with self._lock:
                handler_many = self._batch_handlers.get(node)
                if handler_many is None:
                    return
                self._delivering.setdefault(node, []).append(me)
            try:
                handler_many(items)
            finally:
                with self._settled:
                    self._delivering[node].remove(me)
                    self._settled.notify_all()

        listener = SocketListener(
            deliver,
            host=host,
            port=port,
            name=f"{self.name}:{node}",
            zero_copy=self.zero_copy,
            max_message_bytes=self.max_message_bytes,
        )
        with self._lock:
            self._listeners[node] = listener
            self._addresses[node] = listener.address
        return listener.address

    def add_address(self, node: str, address: Any) -> None:
        """Declare where a (possibly remote) ``node`` listens."""
        if isinstance(address, str):
            address = parse_address(address)
        with self._lock:
            self._addresses[node] = tuple(address)

    def addresses(self) -> Dict[str, Tuple[str, int]]:
        with self._lock:
            return dict(self._addresses)

    def listener(self, node: str) -> Optional[SocketListener]:
        with self._lock:
            return self._listeners.get(node)

    # -- Fabric overrides ---------------------------------------------------
    def unregister(self, node: str) -> None:
        """Stop delivering to ``node``, and wait until no reader thread is
        still inside a delivery to it: once this returns, nothing more
        arrives for ``node``.  A delivery on the calling thread itself is
        not waited for, and none is waited for longer than a few seconds."""
        super().unregister(node)
        me = threading.get_ident()
        deadline = time.monotonic() + _SETTLE_S
        with self._settled:
            while any(ident != me for ident in self._delivering.get(node, ())):
                left = deadline - time.monotonic()
                if left <= 0:
                    _LOG.warning("%s: a delivery to %r outlived unregister", self.name, node)
                    return
                self._settled.wait(left)

    def connect(
        self,
        src: str,
        dst: str,
        *,
        bandwidth: Optional[float] = None,
        latency: float = 0.0,
    ) -> Link:
        """Create the src→dst link: TCP when ``dst`` has an address.

        ``bandwidth`` is accepted for interface parity but real sockets are
        not throttled — pass it only to in-proc fallback links.
        """
        with self._lock:
            address = self._addresses.get(dst)
        if address is None:
            return super().connect(src, dst, bandwidth=bandwidth, latency=latency)
        link: Link = SocketLink(
            address,
            src=src,
            dst=dst,
            nodelay=self.nodelay,
            connect_timeout=self.connect_timeout,
            max_message_bytes=self.max_message_bytes,
        )
        with self._lock:
            link = self._decorate_link(link, src, dst)
            self._links[(src, dst)] = link
        return link

    def _link_for(self, src: str, dst: str) -> Link:
        """As the base class, but a ``dst`` with an address is connected to
        on first use."""
        with self._lock:
            link = self._links.get((src, dst))
            has_address = dst in self._addresses
        if link is not None:
            return link
        if has_address:
            return self.connect(src, dst)
        return super()._link_for(src, dst)

    def link_stats(self) -> Dict[str, Dict[str, float]]:
        """Per-link wire counters, keyed ``"src->dst"`` (sampler feed)."""
        with self._lock:
            links = {**self._closed_links, **self._links}
            listeners = dict(self._listeners)
        out: Dict[str, Dict[str, float]] = {}
        for (src, dst), link in links.items():
            stats = getattr(link, "stats", None)
            if callable(stats):
                out[f"{src}->{dst}"] = stats()
        for node, listener in listeners.items():
            out[f"listen:{node}"] = listener.stats()
        return out

    def raise_errors(self) -> None:
        """Surface the first wire-protocol error any listener recorded."""
        with self._lock:
            listeners = list(self._listeners.values())
        for listener in listeners:
            listener.raise_errors()

    def close(self) -> None:
        """Close every link and listener.  They stay readable, so
        :meth:`link_stats` and :meth:`raise_errors` report on a finished
        run as they do on a live one."""
        with self._lock:
            self._closed_links.update(self._links)
            listeners = list(self._listeners.values())
        super().close()
        for listener in listeners:
            listener.close()


__all__ = [
    "SocketFabric",
    "SocketLink",
    "SocketListener",
    "WireConnectionError",
    "format_address",
    "parse_address",
]
