"""Real TCP transport: scatter-gather socket links between brokers.

Third deployment mode next to in-proc fabrics and ``repro.mp``: a
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

The send path is zero-copy: :func:`~repro.transport.wire.encode_message`
hands ``socket.sendmsg`` the wire header plus every frame segment —
pickle blobs and raw NumPy views — so an N-frame message normally costs
one syscall and never materializes a contiguous buffer (asserted via
:func:`~repro.core.serialization.serialization_copies_total`).  The
receive side reads into one pre-sized buffer per message and deserializes
the body with ``copy=False``; the delivery callback runs synchronously,
and the buffer stays alive for exactly as long as any zero-copy view of
it does.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

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
)

#: Linux IOV_MAX is 1024; chunk sendmsg gather lists beyond it.
_IOV_MAX = 1024

#: key marking a handshake header (first message on every connection)
HELLO = "wire_hello"
#: key marking a raw (non-broker) item wrapped for the wire
RAW = "wire_raw"

#: how long a reader keeps draining an in-flight message after close()
_GRACE_S = 2.0
_POLL_S = 0.25


class WireConnectionError(TransportError):
    """The TCP connection under a wire link failed (reset, refused, EOF)."""


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

    ``send`` accepts the fabric's ``(header, body)`` tuples (anything else
    is wrapped in a RAW header) and writes them with ``sendmsg`` straight
    from the frame segments.  Thread-safe: concurrent senders serialize on
    a per-link lock, matching the one-NIC-worker semantics of
    :class:`~repro.transport.link.ThrottledLink` without the simulation.
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
        buffers, _ = encode_message(hello, None)
        self._write_buffers(buffers)

    def send(self, item: Any, nbytes: int = 0) -> None:
        if self._closed.is_set():
            return
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
        if payload > self.max_message_bytes:
            raise WireProtocolError(
                f"{self.name}: message of {payload} bytes exceeds the "
                f"{self.max_message_bytes}-byte link maximum"
            )
        emit("stage_begin", self.name, header, stage="wire_send", nbytes=payload)
        try:
            self._write_buffers(buffers)
        except OSError as exc:
            with self._counters_lock:
                self.send_errors += 1
            self._closed.set()
            raise WireConnectionError(
                f"{self.name}: connection lost mid-send: {exc}"
            ) from exc
        finally:
            emit("stage_end", self.name, header, stage="wire_send")
        with self._counters_lock:
            self.items_sent += 1

    def _write_buffers(self, buffers: List[Any]) -> None:
        """Gather-write ``buffers`` fully, advancing across partial writes."""
        views = [memoryview(buf).cast("B") for buf in buffers]
        total = sum(view.nbytes for view in views)
        with self._send_lock:
            sent_so_far = 0
            first_call = True
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


class _Connection:
    """One accepted peer connection and its reader thread."""

    def __init__(self, listener: "SocketListener", sock: socket.socket, peer: Any):
        self.listener = listener
        self.sock = sock
        self.peer = peer
        self.node: Optional[str] = None  # learned from the handshake
        sock.settimeout(_POLL_S)
        self.thread = spawn_thread(
            f"{listener.name}-reader-{peer}", self._run
        )

    # -- framed reads -------------------------------------------------------
    def _read_exact(self, count: int, *, boundary: bool) -> Optional[memoryview]:
        """Read exactly ``count`` bytes into a fresh buffer.

        Returns None on a clean EOF at a message ``boundary``; raises
        :class:`WireProtocolError` on EOF mid-message (a short read) and
        :class:`_Stop` when the listener is closing and no message is in
        flight.  Mid-message, a closing listener keeps draining for a grace
        period so in-flight messages still deliver.
        """
        buf = bytearray(count)
        view = memoryview(buf)
        got = 0
        grace_deadline: Optional[float] = None
        while got < count:
            if self.listener.closing:
                if boundary and got == 0:
                    raise _Stop()
                if grace_deadline is None:
                    grace_deadline = time.monotonic() + _GRACE_S
                elif time.monotonic() >= grace_deadline:
                    raise WireProtocolError(
                        f"{self.listener.name}: shutdown while a message "
                        f"was in flight ({got}/{count} bytes read)"
                    )
            try:
                read = self.sock.recv_into(view[got:], count - got)
            except socket.timeout:
                continue
            except OSError as exc:
                if self.listener.closing and boundary and got == 0:
                    raise _Stop() from None
                raise WireProtocolError(
                    f"{self.listener.name}: connection error mid-read: {exc}"
                ) from exc
            if read == 0:
                if boundary and got == 0:
                    return None  # clean EOF between messages
                raise WireProtocolError(
                    f"{self.listener.name}: short read — peer closed after "
                    f"{got}/{count} bytes"
                )
            got += read
        return view

    def _run(self) -> None:
        try:
            while True:
                preamble = self._read_exact(PREAMBLE.size, boundary=True)
                if preamble is None:
                    return
                frame_count, msg_length = decode_preamble(
                    bytes(preamble),
                    max_message_bytes=self.listener.max_message_bytes,
                )
                table = self._read_exact(4 * frame_count + 4, boundary=False)
                assert table is not None
                lengths = decode_frame_table(bytes(preamble), bytes(table))
                payload = self._read_exact(msg_length, boundary=False)
                assert payload is not None
                header, body = decode_message(
                    payload, lengths, zero_copy=self.listener.zero_copy
                )
                self.listener._on_message(self, header, body, msg_length)
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

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


class _Stop(Exception):
    """Internal: clean reader exit during listener shutdown."""


class SocketListener:
    """Accepts wire connections for one node and delivers their messages.

    ``deliver(src_node, item)`` runs synchronously on the connection's
    reader thread; ``item`` is the ``(header, body)`` tuple the sending
    fabric shipped (RAW-wrapped items are unwrapped back to the bare
    object).  Zero-copy bodies are views into a per-message buffer that the
    reader drops right after ``deliver`` returns — anything that outlives
    the callback does so because it still references the views (the buffer
    stays alive with them).
    """

    def __init__(
        self,
        deliver: Callable[[str, Any], None],
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
        self.protocol_errors = 0
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
                    self._connections.append(connection)

    # -- reader callbacks ---------------------------------------------------
    def _on_message(
        self,
        connection: _Connection,
        header: Dict[str, Any],
        body: Any,
        nbytes: int,
    ) -> None:
        if header.get(HELLO):
            connection.node = str(header.get("src") or "")
            return
        with self._lock:
            self.items_received += 1
            self.bytes_received += nbytes
        emit("stage_begin", self.name, header, stage="wire_deliver", nbytes=nbytes)
        item = body if header.get(RAW) else (header, body)
        try:
            self.deliver(connection.node or "", item)
        except Exception:  # noqa: BLE001 - a dying consumer must not kill the reader
            pass
        finally:
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

    def raise_errors(self) -> None:
        """Re-raise the most recent protocol error, if any arrived."""
        with self._lock:
            if self.last_error is not None:
                raise self.last_error

    def stats(self) -> Dict[str, float]:
        with self._lock:
            return {
                "bytes_received": float(self.bytes_received),
                "items_received": float(self.items_received),
                "protocol_errors": float(self.protocol_errors),
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

        def deliver(src_node: str, item: Any) -> None:
            with self._lock:
                handler = self._handlers.get(node)
            if handler is not None:
                handler(item)

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

    def send(self, src: str, dst: str, item: Any, nbytes: int = 0) -> None:
        with self._lock:
            known = (src, dst) in self._links
            has_address = dst in self._addresses
        if not known and has_address:
            self.connect(src, dst)
        super().send(src, dst, item, nbytes)

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
