"""Real TCP transport: scatter-gather socket links between brokers.

What joins brokers in different OS processes or on different hosts: a
:class:`SocketLink` implements the :class:`~repro.transport.link.Link`
interface over a TCP connection, and a :class:`SocketListener` accepts
peer connections and feeds received messages to the local broker.  A
:class:`SocketFabric` ties both into the existing
:class:`~repro.transport.fabric.Fabric` API, so
:meth:`~repro.core.broker.Broker._remote_send` traffic crosses real
sockets with no broker/router changes — including coalesced BATCH
envelopes (in-network batching: one wire message carries a whole run of
small messages) and adaptive wire compression, which both apply per-link
upstream of this module.

The unit of work on both sides is what one wake-up holds, a single
message being the group of one.  The send path is zero-copy:
:func:`~repro.transport.wire.encode_message` yields the wire header plus
every frame segment — pickle blobs and raw NumPy views — of each message,
and since messages are self-delimiting the segments of consecutive small
ones simply concatenate into one ``socket.sendmsg``; nothing ever
materializes a contiguous buffer (asserted via
:func:`~repro.core.serialization.serialization_copies_total`).  The
receive side reads ahead into one :data:`_READ_AHEAD`-byte buffer while
messages are small, decodes every complete message a read brought — each
out of an exact-size copy of its own payload — and hands them up
together; a message too large for the buffer is read into its own
pre-sized buffer.  Bodies are deserialized with ``copy=False``, and a
payload buffer stays alive for exactly as long as any zero-copy view of
it does.
"""

from __future__ import annotations

import logging
import socket
import threading
import time
from bisect import bisect_right
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.concurrency import make_lock, spawn_thread
from ..core.errors import TransportError
from ..core.message import make_header, MsgType
from ..core.serialization import _count_copy
from ..core.tracing import emit
from .fabric import Fabric
from .link import Link
from .wire import (
    DEFAULT_MAX_MESSAGE_BYTES,
    PREAMBLE,
    WireProtocolError,
    decode_frame_table,
    decode_message,
    decode_preamble,
    encode_message,
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

#: key marking a handshake header (first message on every connection)
HELLO = "wire_hello"
#: key marking a raw (non-broker) item wrapped for the wire
RAW = "wire_raw"

#: how long a reader keeps draining an in-flight message after close()
_GRACE_S = 2.0
_POLL_S = 0.25


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
        self._sock = socket.create_connection(address, timeout=connect_timeout)
        self._sock.settimeout(None)
        if nodelay:
            # Broker messages are latency-sensitive and already batched
            # upstream (coalescing), so Nagle only adds delay.
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._handshake()

    # -- wire plumbing ------------------------------------------------------
    def _handshake(self) -> None:
        """First message on the connection names the sending/receiving node."""
        hello = make_header(self.src, [self.dst], MsgType.COMMAND)
        hello[HELLO] = 1
        _, buffers, _ = self._encode((hello, None))
        self._write_buffers(buffers)

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
        buffers, payload = encode_message(header, body)
        return header, buffers, payload

    def send(self, item: Any, nbytes: int = 0) -> None:
        self.send_many(((item, nbytes),))

    def send_many(self, items: Sequence[Tuple[Any, int]]) -> None:
        """Encode ``items`` and write them in order, gathering consecutive
        messages into one write for as long as together they fit the
        reader's read-ahead buffer (a larger message goes alone).

        A message over the link maximum raises :class:`WireProtocolError`
        once everything before it has been written; either error carries
        as ``sent`` how many messages of this call went out whole.
        """
        if self._closed.is_set():
            return
        done = 0
        #: the gather being built: (header, payload bytes) per message, every
        #: message's buffers, and where each message ends in their byte stream
        pending: List[Tuple[Dict[str, Any], int]] = []
        buffers: List[Any] = []
        ends: List[int] = []
        try:
            for item, _ in items:
                header, encoded, payload = self._encode(item)
                fits = payload <= self.max_message_bytes
                size = len(encoded[0]) + payload  # on the wire
                if pending and (ends[-1] + size > _READ_AHEAD or not fits):
                    self._write_messages(pending, buffers, ends)
                    done += len(pending)
                    pending, buffers, ends = [], [], []
                if not fits:
                    raise WireProtocolError(
                        f"{self.name}: message of {payload} bytes exceeds the "
                        f"{self.max_message_bytes}-byte link maximum"
                    )
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
            with self._counters_lock:
                self.items_sent += written

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
        """Wire counters for the telemetry sampler's per-link gauges."""
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
            }

    def close(self) -> None:
        if self._closed.is_set():
            return
        self._closed.set()
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


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

    def _receive(self) -> None:
        """Read the stream until a clean EOF, handing up what each read
        completed before blocking for the next.

        While messages are small (the last one decoded fits the read-ahead
        buffer) a read asks for as much as the buffer holds and every
        complete message in it is decoded without another syscall; after a
        larger one, a read asks only for what the next step of the message
        at hand needs.  Every check of the preamble and of the frame table
        runs as soon as their bytes are there, before anything is
        allocated for the payload they describe.
        """
        listener = self.listener
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
                    need += msg_length
                    if need > _READ_AHEAD:
                        # Too large for the window: into a buffer of its
                        # own, starting with what the window holds of it.
                        # Nothing decoded waits for those reads.
                        if batch:
                            listener._on_messages(self, batch)
                            batch = []
                        payload = memoryview(bytearray(msg_length))
                        got = held - payload_at
                        payload[:got] = window[start + payload_at : end]
                        while got < msg_length:
                            got += self._read(payload[got:], payload_at + got)
                        start = end = 0
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
                            payload, lengths, zero_copy=listener.zero_copy
                        ),
                        msg_length,
                    ))
                    read_ahead = need <= _READ_AHEAD
            finally:
                # Also when the stream turns out poisoned further on: what
                # was valid before that point is delivered.
                if batch:
                    listener._on_messages(self, batch)
            if start:
                window[:held] = window[start:end]
                start, end = 0, held
            limit = _READ_AHEAD if read_ahead else need
            read = self._read(window[end:limit], held)
            if not read:
                return
            end += read

    def _run(self) -> None:
        try:
            self._receive()
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
            self.listener._forget(self)

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


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
                connection.node = str(header.get("src") or "")
                continue
            emit("stage_begin", self.name, header, stage="wire_deliver", nbytes=nbytes)
            items.append(body if header.get(RAW) else (header, body))
            headers.append(header)
            nbytes_total += nbytes
        with self._lock:
            self.items_received += len(items)
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
            with self._lock:
                handler_many = self._batch_handlers.get(node)
            if handler_many is not None:
                handler_many(items)

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
