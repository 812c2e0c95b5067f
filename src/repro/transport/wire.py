"""The XingTian wire protocol: framing for real socket transports.

One message on the wire is a fixed little-endian header followed by the raw
frame payloads, in order::

    offset  size  field
    0       4     magic      0x31575458  ("XTW1" as LE bytes)
    4       1     version    3
    5       1     flags      reserved, must be 0
    6       2     frame_count (u16)
    8       8     msg_length  (u64, sum of the frame lengths)
    16      4*n   frame lengths, one u32 per frame
    16+4n   4     crc32 of bytes [0, 16+4n)
    ...           frame 0 bytes, frame 1 bytes, ...

The header is self-delimiting (read 16 bytes, then ``4*frame_count + 4``
more, then ``msg_length``) and integrity-checked: a corrupted or misaligned
stream fails loudly with :class:`WireProtocolError` instead of delivering
garbage or hanging on a bogus length.

A broker-to-broker message is two frames: the message header as a *header
record* (:func:`encode_header`; its layout is in docs/NETWORKING.md), then
the body as a :class:`~repro.core.serialization.Frame`.  A BATCH envelope
is three: its header record, a *row table* of its sub-headers, and the
sub-bodies as one frame.  No header is ever unpickled: the record holds
only None, bools, ints, floats, strings and lists or tuples of them, a row
only numbers, and a header holding anything else cannot be sent.
:func:`encode_message` returns the buffer list *unconcatenated* so
:meth:`socket.socket.sendmsg` can gather them straight from their owners
(NumPy array memory, arena views) — an N-frame message costs one syscall
and zero intermediate copies on the send side.  :func:`decode_message` is
the inverse, deserializing the body with ``copy=False`` so receive-side
arrays are read-only views into the receive buffer.
"""

from __future__ import annotations

import functools
import struct
import zlib
from typing import Any, Dict, List, Sequence, Tuple

from ..core.errors import TransportError
from ..core.message import (
    BATCH_COUNT, BATCH_SEQS, BODY_SIZE, COMPRESSED, CREATED_AT, DST, OBJECT_ID,
    SEQ, SPAN, SRC, TRACE, TYPE, MsgType, packable,
)
from ..core.serialization import deserialize, make_frame

MAGIC = 0x31575458  # b"XTW1" read as a little-endian u32
VERSION = 3

#: fixed leading part of the wire header: magic, version, flags,
#: frame_count, msg_length
PREAMBLE = struct.Struct("<IBBHQ")
_CRC = struct.Struct("<I")

#: sanity bound on frames per message (a broker message is at most 3: a
#: BATCH envelope's header record, row table and bodies)
MAX_FRAMES = 256
#: the frame length table, per frame count: one u32 per frame
_TABLES = [struct.Struct(f"<{count}I") for count in range(MAX_FRAMES + 1)]
#: reject messages larger than this instead of trying to allocate a buffer
#: for a corrupted length field (tunable per listener/link)
DEFAULT_MAX_MESSAGE_BYTES = 1 << 30

# -- the header record (frame 0) ---------------------------------------------
#: wire codes of the message types: a table of their own, so reordering or
#: extending :class:`MsgType` never changes what a code on the wire means
_TYPE_CODES = {
    MsgType.ROLLOUT: 1, MsgType.WEIGHTS: 2, MsgType.STATS: 3, MsgType.COMMAND: 4,
    MsgType.HEARTBEAT: 5, MsgType.DATA: 6, MsgType.BATCH: 7,
}
_CODE_TYPES = {code: msg_type for msg_type, code in _TYPE_CODES.items()}
#: fixed part: type code (0: none), flags, absent fields, dst count, extras
#: count, seq, created_at, body_size, trace, span (0: none); then src, the
#: object ID if flagged, each dst, each extra
_RECORD = struct.Struct("<BBBHHqdQQQ")
_COMPRESSED, _OBJECT_ID = 0x1, 0x2  # flags
#: the fields ``make_header`` sets that have a slot; a header without one
#: sets its bit in the absent-fields byte and the slot holds a default
_FIELDS = (SRC, DST, SEQ, OBJECT_ID, CREATED_AT, BODY_SIZE, COMPRESSED)
_ALL_FIELDS = frozenset(_FIELDS)
_I64, _U64 = 1 << 63, 1 << 64
#: extras: a u8 tag, then the value; containers a u32 count and the items
_NONE, _FALSE, _TRUE, _INT, _UINT, _FLOAT, _STR, _LIST, _TUPLE = range(9)
_TAGS = [bytes((tag,)) for tag in range(9)]
#: what follows a tag: the value, a string's length or a container's count
_LAYOUTS = {
    _INT: struct.Struct("<q"), _UINT: struct.Struct("<Q"),
    _FLOAT: struct.Struct("<d"), _STR: struct.Struct("<H"),
    _LIST: struct.Struct("<I"), _TUPLE: struct.Struct("<I"),
}
_U16 = _LAYOUTS[_STR]
#: how deep extras may nest
_MAX_DEPTH = 16
#: one row of a BATCH envelope's row table: a sub-header's seq, created_at,
#: body_size, trace and span (0: none); the table leads with the sub type code
_ROW = struct.Struct("<qdQQQ")


@functools.lru_cache(maxsize=64)
def _row_table(count: int) -> struct.Struct:
    """The row table of ``count`` sub-headers, type code included."""
    return struct.Struct("<B" + "qdQQQ" * count)


class WireProtocolError(TransportError):
    """A malformed, corrupted, or oversized wire message.

    Raised on bad magic/version, a crc32 mismatch, a short read (peer died
    mid-message), or a length field exceeding the configured maximum.  The
    connection that produced it is poisoned and must be closed — framing
    cannot be recovered mid-stream.
    """


def encode_wire_header(frame_lengths: Sequence[int]) -> bytes:
    """The fixed header for a message with the given frame lengths."""
    if not frame_lengths:
        raise WireProtocolError("a wire message needs at least one frame")
    if len(frame_lengths) > MAX_FRAMES:
        raise WireProtocolError(
            f"too many frames: {len(frame_lengths)} > {MAX_FRAMES}"
        )
    count = len(frame_lengths)
    try:  # a length must fit its u32 slot
        head = PREAMBLE.pack(
            MAGIC, VERSION, 0, count, sum(frame_lengths)
        ) + _TABLES[count].pack(*frame_lengths)
    except struct.error:
        raise WireProtocolError(
            f"frame length out of range in {list(frame_lengths)}"
        ) from None
    return head + _CRC.pack(zlib.crc32(head))


def wire_header_size(frame_count: int) -> int:
    """Total header bytes for a message with ``frame_count`` frames."""
    return PREAMBLE.size + 4 * frame_count + _CRC.size


def decode_preamble(
    data: bytes, *, max_message_bytes: int = DEFAULT_MAX_MESSAGE_BYTES
) -> Tuple[int, int]:
    """Validate the 16-byte preamble; returns (frame_count, msg_length)."""
    if len(data) < PREAMBLE.size:
        raise WireProtocolError(
            f"short preamble: {len(data)} < {PREAMBLE.size} bytes"
        )
    magic, version, flags, frame_count, msg_length = PREAMBLE.unpack_from(data)
    if magic != MAGIC:
        raise WireProtocolError(f"bad magic 0x{magic:08x} (not a wire stream)")
    if version != VERSION:
        raise WireProtocolError(f"unsupported wire version {version}")
    if flags != 0:
        raise WireProtocolError(f"reserved flags set: 0x{flags:02x}")
    if not 1 <= frame_count <= MAX_FRAMES:
        raise WireProtocolError(f"frame count {frame_count} out of range")
    if msg_length > max_message_bytes:
        raise WireProtocolError(
            f"oversized message: {msg_length} > {max_message_bytes} bytes"
        )
    return frame_count, msg_length


def decode_frame_table(preamble: bytes, table: bytes) -> List[int]:
    """Validate the length table + crc32; returns the per-frame lengths.

    ``preamble`` is the 16 bytes already consumed by
    :func:`decode_preamble`; ``table`` is the ``4*frame_count + 4`` bytes
    that follow.  The declared ``msg_length`` must equal the sum of the
    frame lengths — a mismatch means the stream is corrupt.
    """
    frame_count, msg_length = decode_preamble(
        preamble, max_message_bytes=(1 << 64) - 1
    )
    expected = 4 * frame_count + _CRC.size
    if len(table) < expected:
        raise WireProtocolError(
            f"short frame table: {len(table)} < {expected} bytes"
        )
    lengths = list(_TABLES[frame_count].unpack_from(table))
    (declared_crc,) = _CRC.unpack_from(table, 4 * frame_count)
    actual_crc = zlib.crc32(table[: 4 * frame_count], zlib.crc32(preamble[:PREAMBLE.size]))
    if declared_crc != actual_crc:
        raise WireProtocolError(
            f"header crc mismatch: declared 0x{declared_crc:08x}, "
            f"computed 0x{actual_crc:08x}"
        )
    if sum(lengths) != msg_length:
        raise WireProtocolError(
            f"frame lengths sum to {sum(lengths)} but header declares "
            f"{msg_length}"
        )
    return lengths


def _text(value: str) -> bytes:
    data = value.encode("utf-8")
    return _U16.pack(len(data)) + data  # over 65535 bytes: struct.error


def _encode_extra(key: str, value: Any, parts: List[bytes], depth: int = 0) -> None:
    """Append ``value`` of extra ``key`` to ``parts`` as a tagged value."""
    kind = type(value)
    if value is None or kind is bool:
        parts.append(_TAGS[_NONE if value is None else _TRUE if value else _FALSE])
    elif kind is int and -_I64 <= value < _U64:
        tag = _INT if value < _I64 else _UINT
        parts += (_TAGS[tag], _LAYOUTS[tag].pack(value))
    elif kind is float:
        parts += (_TAGS[_FLOAT], _LAYOUTS[_FLOAT].pack(value))
    elif kind is str:
        parts += (_TAGS[_STR], _text(value))
    elif (kind is list or kind is tuple) and depth < _MAX_DEPTH:
        tag = _LIST if kind is list else _TUPLE
        parts += (_TAGS[tag], _LAYOUTS[tag].pack(len(value)))
        for item in value:
            _encode_extra(key, item, parts, depth + 1)
    else:
        raise WireProtocolError(
            f"header extra {key!r}: a {kind.__name__} has no wire encoding "
            f"(None, bool, 64-bit int, float, str, list, tuple; {_MAX_DEPTH} deep)"
        )


def encode_header(header: Dict[str, Any]) -> bytes:
    """``header`` as a header record, frame 0 of a wire message.

    The fields :func:`~repro.core.message.make_header` sets travel in the
    record's slots (one left out travels as its default); every other key
    is a typed extra.  A value that fits neither raises
    :class:`WireProtocolError`.
    """
    rest = dict(header)
    absent = 0
    if not rest.keys() >= _ALL_FIELDS:
        for bit, key in enumerate(_FIELDS):
            absent |= (key not in rest) << bit
    try:
        code = _TYPE_CODES[rest.pop(TYPE)] if TYPE in rest else 0
        texts = [rest.pop(SRC, "")]
        object_id = rest.pop(OBJECT_ID, None)
        if object_id is not None:
            texts.append(object_id)
        dst = rest.pop(DST, [])
        if type(dst) is not list:
            raise TypeError(f"dst is a {type(dst).__name__}, not a list")
        texts += dst
        flags = _COMPRESSED if rest.pop(COMPRESSED, False) else 0
        if object_id is not None:
            flags |= _OBJECT_ID
        slots = (
            rest.pop(SEQ, 0), rest.pop(CREATED_AT, 0.0), rest.pop(BODY_SIZE, 0),
            rest.pop(TRACE, None) or 0, rest.pop(SPAN, None) or 0,
        )
        parts = [_RECORD.pack(code, flags, absent, len(dst), len(rest), *slots)]
        for text in texts:
            parts.append(_text(text))
        for key, value in rest.items():
            parts.append(_text(key))
            _encode_extra(key, value, parts)
    except (AttributeError, KeyError, TypeError, UnicodeError, struct.error) as exc:
        raise WireProtocolError(f"header cannot be encoded: {exc!r}") from None
    return b"".join(parts)


def _truncated(field: str) -> WireProtocolError:
    return WireProtocolError(f"header record truncated in {field}")


def _read_text(data: bytes, at: int, field: str) -> Tuple[str, int]:
    """The u16-length UTF-8 string at ``data[at:]``, and where it ends."""
    end = at + 2
    if end <= len(data):
        end += data[at] | data[at + 1] << 8
    if end > len(data):
        raise _truncated(field)
    try:
        return data[at + 2 : end].decode("utf-8"), end
    except UnicodeDecodeError as exc:
        raise WireProtocolError(
            f"header record: {field} is not UTF-8 ({exc.reason})"
        ) from None


def _read_extra(data: bytes, at: int, field: str, depth: int = 0) -> Tuple[Any, int]:
    """The tagged value at ``data[at:]``, and where it ends."""
    if at >= len(data):
        raise _truncated(field)
    tag = data[at]
    if tag <= _TRUE:
        return (None, False, True)[tag], at + 1
    if tag == _STR:
        return _read_text(data, at + 1, field)
    if tag not in _LAYOUTS or depth >= _MAX_DEPTH:
        raise WireProtocolError(
            f"header record: {field} has tag {tag} at depth {depth} (a bad "
            f"tag, or nested deeper than {_MAX_DEPTH})"
        )
    start, at = at + 1, at + 1 + _LAYOUTS[tag].size
    if at > len(data):
        raise _truncated(field)
    (value,) = _LAYOUTS[tag].unpack_from(data, start)
    if tag == _LIST or tag == _TUPLE:
        items: List[Any] = []
        for _ in range(value):
            item, at = _read_extra(data, at, field, depth + 1)
            items.append(item)
        value = items if tag == _LIST else tuple(items)
    return value, at


def decode_header(data: bytes) -> Dict[str, Any]:
    """Inverse of :func:`encode_header`.  Every length is checked against
    ``data``: a malformed record raises :class:`WireProtocolError` naming
    the field it broke in."""
    if len(data) < _RECORD.size:
        raise _truncated("the fixed part")
    (code, flags, absent, dst_count, extras, seq, created_at, body_size,
     trace, span) = _RECORD.unpack_from(data)
    if flags & ~(_COMPRESSED | _OBJECT_ID) or absent >> len(_FIELDS):
        raise WireProtocolError(
            f"header record: unknown flags 0x{flags:02x} / 0x{absent:02x}"
        )
    if code and code not in _CODE_TYPES:
        raise WireProtocolError(f"header record: unknown type code {code}")
    src, at = _read_text(data, _RECORD.size, "src")
    object_id = None
    if flags & _OBJECT_ID:
        object_id, at = _read_text(data, at, "object_id")
    dst: List[str] = []
    for _ in range(dst_count):
        name, at = _read_text(data, at, "dst")
        dst.append(name)
    header: Dict[str, Any] = {
        SRC: src, DST: dst, SEQ: seq, OBJECT_ID: object_id,
        CREATED_AT: created_at, BODY_SIZE: body_size,
        COMPRESSED: bool(flags & _COMPRESSED),
    }
    if absent:
        for bit, key in enumerate(_FIELDS):
            if absent >> bit & 1:
                del header[key]
    if code:
        header[TYPE] = _CODE_TYPES[code]
    if trace:
        header[TRACE] = trace
    if span:
        header[SPAN] = span
    for _ in range(extras):
        key, at = _read_text(data, at, "an extra's key")
        header[key], at = _read_extra(data, at, f"extra {key!r}")
    if at != len(data):
        raise WireProtocolError(f"header record: {len(data) - at} trailing bytes")
    return header


def _encode_rows(header: Dict[str, Any], pairs: Any) -> Tuple[bytes, List[Any]]:
    """A BATCH envelope's ``[(sub-header, sub-body), ...]`` as its row table
    and its list of sub-bodies.  A row carries no src, dst, object ID or
    compressed flag, so a sub-header must have the envelope's src, no
    object ID, no compression and no extras, or :class:`WireProtocolError`
    is raised."""
    if type(pairs) is not list or not pairs or header.get(BATCH_COUNT) != len(pairs):
        raise WireProtocolError(
            f"BATCH envelope of batch_count {header.get(BATCH_COUNT)!r}: its "
            "body must be that many (sub-header, sub-body) pairs"
        )
    src = header.get(SRC)
    values: List[Any] = []
    bodies: List[Any] = []
    try:
        sub_type = pairs[0][0][TYPE]
        code = _TYPE_CODES[sub_type]
        for sub, body in pairs:
            if not packable(sub) or sub[TYPE] != sub_type or sub[SRC] != src:
                raise TypeError("a field the row table does not carry")
            values += (
                sub[SEQ], sub[CREATED_AT], sub[BODY_SIZE],
                sub.get(TRACE) or 0, sub.get(SPAN) or 0,
            )
            bodies.append(body)
        if code == _TYPE_CODES[MsgType.BATCH]:
            raise TypeError("an envelope inside an envelope")
        return _row_table(len(pairs)).pack(code, *values), bodies
    except (AttributeError, KeyError, TypeError, ValueError, struct.error) as exc:
        raise WireProtocolError(
            f"BATCH sub-header does not fit the row table: {exc!r}"
        ) from None


def _decode_rows(header: Dict[str, Any], rows: bytes, bodies: Any) -> List[Any]:
    """Inverse of :func:`_encode_rows`; stamps the envelope's ``BATCH_SEQS``
    back from the rows.  Every part is checked against the others."""
    count = header.get(BATCH_COUNT)
    if type(count) is not int or count < 1 or len(rows) != 1 + count * _ROW.size:
        raise WireProtocolError(
            f"BATCH row table: {len(rows)} bytes do not hold batch_count "
            f"{count!r} rows of {_ROW.size} bytes"
        )
    sub_type = _CODE_TYPES.get(rows[0])
    if sub_type is None or sub_type is MsgType.BATCH:
        raise WireProtocolError(f"BATCH row table: bad sub type code {rows[0]}")
    if type(bodies) is not list or len(bodies) != count:
        raise WireProtocolError(
            f"BATCH bodies frame: {len(bodies) if type(bodies) is list else 'no'} "
            f"bodies for {count} rows"
        )
    src, dst = header.get(SRC), header.get(DST, [])
    pairs: List[Any] = []
    seqs: List[Tuple[int, Any]] = []
    for (seq, created_at, body_size, trace, span), body in zip(
        _ROW.iter_unpack(memoryview(rows)[1:]), bodies
    ):
        sub = {
            SRC: src, DST: list(dst), TYPE: sub_type, SEQ: seq,
            OBJECT_ID: None, CREATED_AT: created_at, BODY_SIZE: body_size,
            COMPRESSED: False,
        }
        if trace:
            sub[TRACE] = trace
        if span:
            sub[SPAN] = span
        pairs.append((sub, body))
        seqs.append((seq, trace or None))
    header[BATCH_SEQS] = seqs
    return pairs


def encode_message(header: Dict[str, Any], body: Any) -> Tuple[List[Any], int]:
    """Scatter-gather buffers for one (header, body) broker message.

    Returns ``(buffers, payload_nbytes)`` where ``buffers`` is the wire
    header followed by every frame segment, ready for
    ``socket.sendmsg(buffers)``; nothing has been concatenated or copied —
    NumPy bodies contribute raw views of their own memory.  A BATCH
    envelope's header record leaves out ``BATCH_SEQS``: its rows carry them.
    """
    rows: List[Any] = []  # a BATCH envelope's row table
    if header.get(TYPE) == MsgType.BATCH:
        table, body = _encode_rows(header, body)
        header = {key: value for key, value in header.items() if key != BATCH_SEQS}
        rows = [table]
    frames: List[Any] = [encode_header(header), *rows]
    lengths = [len(frame) for frame in frames]
    if body is not None:
        body_frame = make_frame(body)
        lengths.append(body_frame.nbytes)
        frames += body_frame.segments
    return [encode_wire_header(lengths), *frames], sum(lengths)


def decode_message(
    payload: Any,
    frame_lengths: Sequence[int],
    *,
    zero_copy: bool = True,
    view_registry: Any = None,
) -> Tuple[Dict[str, Any], Any]:
    """Inverse of :func:`encode_message` over a received payload buffer.

    ``payload`` holds the concatenated frames (``msg_length`` bytes); the
    header record is decoded into a fresh dict, the body is deserialized
    with ``copy=False`` when ``zero_copy`` — arrays come back as read-only
    views into ``payload``, so the caller must keep ``payload`` alive for
    as long as the body is referenced.  A BATCH envelope's sub-headers are
    rebuilt from its row table.
    """
    view = memoryview(payload)
    if view.format != "B" or view.ndim != 1:
        view = view.cast("B")
    frames = len(frame_lengths)
    if not 1 <= frames <= 3:
        raise WireProtocolError(f"broker messages carry 1 to 3 frames, got {frames}")
    start, end = frame_lengths[0], sum(frame_lengths)
    if view.nbytes < end:
        raise WireProtocolError(f"short payload: {view.nbytes} < {end} bytes")
    header = decode_header(bytes(view[:start]))
    batch = header.get(TYPE) is MsgType.BATCH
    if batch != (frames == 3):
        raise WireProtocolError(
            f"a BATCH envelope carries 3 frames, other messages 1 or 2 frames: "
            f"got {frames} for type {header.get(TYPE)}"
        )
    if frames == 1:
        return header, None
    rows = bytes(view[start : start + frame_lengths[1]]) if batch else b""
    start += len(rows)
    try:
        body = deserialize(
            view[start:end],
            copy=not zero_copy,
            view_registry=view_registry if zero_copy else None,
        )
    except Exception as exc:
        raise WireProtocolError(f"undecodable body frame: {exc}") from exc
    return header, _decode_rows(header, rows, body) if batch else body
