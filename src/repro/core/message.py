"""Messages and message headers.

The paper organizes message headers as Python dicts (§4.1).  A message is a
lightweight header plus a body.  Headers carry routing metadata (source,
destination list, message type, sequence number) and — once the body has been
inserted into the shared-memory communicator's object store — the body's
object ID.  Bodies carry the actual payload: rollouts, DNN parameters,
statistics, or control commands.
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple


class MsgType(str, Enum):
    """Kinds of messages that flow through the asynchronous channel."""

    ROLLOUT = "rollout"
    WEIGHTS = "weights"
    STATS = "stats"
    COMMAND = "command"
    HEARTBEAT = "heartbeat"  # liveness beacon from workhorses to their controller
    DATA = "data"  # generic payloads (dummy DRL algorithm, tests)
    BATCH = "batch"  # transport envelope: several coalesced small messages

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


_SEQ = itertools.count()

# Header keys.  Headers are plain dicts per the paper; these constants keep
# producers and consumers in agreement.
SRC = "src"
DST = "dst"
TYPE = "type"
SEQ = "seq"
OBJECT_ID = "object_id"
CREATED_AT = "created_at"
BODY_SIZE = "body_size"
COMPRESSED = "compressed"
BATCH_COUNT = "batch_count"  # sub-message count of a MsgType.BATCH envelope
#: ``[(seq, trace_id), ...]`` of a BATCH envelope's sub-messages, stamped by
#: :func:`pack_batch` so the router can attribute one "routed" event to each
#: coalesced message without opening the envelope body
BATCH_SEQS = "batch_seqs"
#: compact causal-trace context (see :mod:`repro.obs.trace`): ``TRACE`` is a
#: u64 id shared by every event in one message's causal chain, ``SPAN`` a u64
#: id unique to this hop.  Stamped by :func:`make_header`, so the ids survive
#: coalescing (a sub-header's row on the wire keeps both), metadata hops,
#: and flow-control sheds.
TRACE = "trace"
SPAN = "span"
PARENT_SPAN = "parent_span"
#: codec name set by the broker when a body was compressed at the fabric
#: boundary (adaptive wire compression; see docs/FLOW_CONTROL.md)
WIRE_CODEC = "wire_codec"
#: set on the remote-bound remainder of a header whose local destinations a
#: sender thread already dispatched: its ``routed`` event is on record, so
#: the router thread that ships the remainder must not emit a second one
ROUTED = "routed"
#: the fields :func:`make_header` sets: a header with no other key may ride
#: in a BATCH envelope, whose sub-headers cross the wire as fixed-size rows
PACKABLE_FIELDS = frozenset(
    (SRC, DST, TYPE, SEQ, CREATED_AT, BODY_SIZE, OBJECT_ID, COMPRESSED, TRACE, SPAN)
)


def packable(header: Dict[str, Any]) -> bool:
    """Whether ``header`` fits a BATCH envelope's row: only
    :data:`PACKABLE_FIELDS`, no object ID, not compressed."""
    return (
        header.keys() <= PACKABLE_FIELDS
        and header.get(OBJECT_ID) is None
        and not header.get(COMPRESSED)
    )


def message_count(header: Dict[str, Any]) -> int:
    """How many messages ``header`` stands for: a BATCH envelope's
    sub-message count, else one (what routing and wire counters count)."""
    return header.get(BATCH_COUNT, 1)


# -- trace-context ids ------------------------------------------------------
# Trace/span ids are u64 ints: (32-bit per-process nonce << 32) | 32-bit
# counter.  Ints pack straight into the flight recorder's fixed-size records
# (no allocation, no string interning) and render as hex in exports.  The
# nonce mixes the pid with random bits and is re-derived in a forked child
# (``os.register_at_fork``), so ids from forked explorers never collide even
# though the counter state is inherited.
_TRACE_COUNTER = itertools.count(1)
_TRACE_NONCE = 0


def _reset_trace_nonce() -> None:
    global _TRACE_NONCE
    bits = int.from_bytes(os.urandom(2), "little")
    _TRACE_NONCE = (((os.getpid() & 0xFFFF) << 16) | bits) << 32


_reset_trace_nonce()
os.register_at_fork(after_in_child=_reset_trace_nonce)


def new_trace_id() -> int:
    """A fresh process-unique u64 trace (or span) id."""
    return _TRACE_NONCE | (next(_TRACE_COUNTER) & 0xFFFFFFFF)


def format_trace_id(trace_id: Optional[int]) -> str:
    """Hex rendering used by exports (``0`` / ``None`` -> ``"-"``)."""
    if not trace_id:
        return "-"
    return f"{trace_id:016x}"


def ensure_trace(header: Dict[str, Any]) -> Tuple[int, int]:
    """Stamp trace context into ``header`` if absent; return (trace, span)."""
    trace_id = header.get(TRACE)
    if not trace_id:
        trace_id = new_trace_id()
        header[TRACE] = trace_id
    span_id = header.get(SPAN)
    if not span_id:
        span_id = new_trace_id()
        header[SPAN] = span_id
    return trace_id, span_id


def make_header(
    src: str,
    dst: Iterable[str],
    msg_type: MsgType,
    *,
    body_size: int = 0,
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Build a message header dict.

    ``dst`` is a list because weight broadcasts from the learner may target
    multiple explorers (§3.2.1); rollout messages always target the single
    learner.
    """
    header: Dict[str, Any] = {
        SRC: src,
        DST: list(dst),
        TYPE: msg_type if type(msg_type) is MsgType else MsgType(msg_type),
        SEQ: next(_SEQ),
        OBJECT_ID: None,
        CREATED_AT: time.monotonic(),
        BODY_SIZE: int(body_size),
        COMPRESSED: False,
        TRACE: new_trace_id(),
        SPAN: new_trace_id(),
    }
    if extra:
        header.update(extra)
    return header


@dataclass
class Message:
    """A header/body pair.

    Inside a process the body travels by reference; across the communicator
    the body lives in the object store and only the header (with the body's
    object ID attached) crosses queues.
    """

    header: Dict[str, Any]
    body: Any = None
    #: cached scatter-gather descriptor of ``body`` (see
    #: :func:`repro.core.serialization.measure`): senders that framed the
    #: body to size its header stash the frame here so the object store can
    #: write it without pickling the same object a second time.
    frame: Any = field(default=None, repr=False, compare=False)

    @property
    def src(self) -> str:
        return self.header[SRC]

    @property
    def dst(self) -> List[str]:
        return self.header[DST]

    @property
    def msg_type(self) -> MsgType:
        return MsgType(self.header[TYPE])

    @property
    def seq(self) -> int:
        return self.header[SEQ]

    @property
    def object_id(self) -> Optional[str]:
        return self.header.get(OBJECT_ID)

    @property
    def created_at(self) -> float:
        return self.header[CREATED_AT]

    @property
    def body_size(self) -> int:
        return self.header.get(BODY_SIZE, 0)

    def age(self, now: Optional[float] = None) -> float:
        """Seconds since the message was created.

        Pass ``now`` (a ``time.monotonic()`` reading) to age a whole drained
        batch off one clock read instead of one syscall per message.
        """
        if now is None:
            now = time.monotonic()
        return now - self.created_at

    def with_header(self, **updates: Any) -> "Message":
        """Return a copy of this message with header fields replaced."""
        new_header = dict(self.header)
        new_header.update(updates)
        return Message(new_header, self.body)


def make_message(
    src: str,
    dst: Iterable[str],
    msg_type: MsgType,
    body: Any,
    *,
    body_size: int = 0,
    extra: Optional[Dict[str, Any]] = None,
) -> Message:
    """Convenience constructor pairing :func:`make_header` with a body."""
    return Message(make_header(src, dst, msg_type, body_size=body_size, extra=extra), body)


def pack_batch(messages: Sequence[Message]) -> Message:
    """Coalesce several same-destination messages into one BATCH envelope.

    The envelope's body is the list of ``(header, body)`` pairs; one object
    store insert (and one header-queue put, one routing decision) then
    carries the whole run.  All messages must share the same destination
    list — the caller groups by destination before packing.
    """
    if not messages:
        raise ValueError("cannot pack an empty batch")
    first = messages[0]
    bodies = [(message.header, message.body) for message in messages]
    header = make_header(
        first.src,
        first.dst,
        MsgType.BATCH,
        body_size=sum(message.body_size for message in messages),
        extra={
            BATCH_COUNT: len(messages),
            BATCH_SEQS: [
                (message.seq, message.header.get(TRACE))
                for message in messages
            ],
        },
    )
    return Message(header, bodies)


def unpack_batch(message: Message) -> List[Message]:
    """Inverse of :func:`pack_batch`: the original messages, in send order.

    Sub-headers are copied and scrubbed of transport fields (no object ID —
    the envelope owned the store entry; the receiver already released it).
    """
    restored: List[Message] = []
    for sub_header, sub_body in message.body:
        sub_header = dict(sub_header)
        sub_header[OBJECT_ID] = None
        sub_header[COMPRESSED] = False
        restored.append(Message(sub_header, sub_body))
    return restored


@dataclass
class Command:
    """A control command dispatched by controllers (§3.2.2)."""

    name: str
    payload: Dict[str, Any] = field(default_factory=dict)


# Well-known command names used by the controller fabric.
CMD_START = "start"
CMD_STOP = "stop"
CMD_SHUTDOWN = "shutdown"
CMD_REPORT_STATS = "report_stats"
CMD_KILL_POPULATION = "kill_population"
CMD_START_POPULATION = "start_population"
