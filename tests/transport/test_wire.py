"""Wire-protocol unit tests: framing, integrity checks, edge cases."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.message import (
    Message,
    MsgType,
    make_header,
    make_message,
    pack_batch,
)
from repro.transport.wire import (
    DEFAULT_MAX_MESSAGE_BYTES,
    MAGIC,
    MAX_FRAMES,
    PREAMBLE,
    VERSION,
    WireProtocolError,
    decode_frame_table,
    decode_header,
    decode_message,
    decode_preamble,
    encode_header,
    encode_message,
    encode_wire_header,
    wire_header_size,
)


def _header():
    return make_header("a", ["b"], MsgType.DATA)


def _split(buffers):
    """(wire_header_bytes, payload_bytes) from an encode_message result."""
    wire_header = bytes(buffers[0])
    payload = b"".join(bytes(memoryview(buf).cast("B")) for buf in buffers[1:])
    return wire_header, payload


def _decode_header(wire_header):
    preamble = wire_header[: PREAMBLE.size]
    table = wire_header[PREAMBLE.size :]
    frame_count, msg_length = decode_preamble(preamble)
    lengths = decode_frame_table(preamble, table)
    return frame_count, msg_length, lengths


class TestHeaderFraming:
    def test_roundtrip(self):
        wire_header = encode_wire_header([100, 2000])
        assert len(wire_header) == wire_header_size(2)
        frame_count, msg_length, lengths = _decode_header(wire_header)
        assert frame_count == 2
        assert msg_length == 2100
        assert lengths == [100, 2000]

    def test_empty_rejected(self):
        with pytest.raises(WireProtocolError, match="at least one frame"):
            encode_wire_header([])

    def test_too_many_frames_rejected(self):
        with pytest.raises(WireProtocolError, match="too many frames"):
            encode_wire_header([1] * (MAX_FRAMES + 1))

    def test_negative_length_rejected(self):
        with pytest.raises(WireProtocolError, match="out of range"):
            encode_wire_header([-1])

    def test_bad_magic(self):
        wire_header = bytearray(encode_wire_header([10]))
        wire_header[0] ^= 0xFF
        with pytest.raises(WireProtocolError, match="bad magic"):
            decode_preamble(bytes(wire_header))

    def test_bad_version(self):
        wire_header = bytearray(encode_wire_header([10]))
        wire_header[4] = 99
        with pytest.raises(WireProtocolError, match="version"):
            decode_preamble(bytes(wire_header))

    def test_reserved_flags(self):
        wire_header = bytearray(encode_wire_header([10]))
        wire_header[5] = 1
        with pytest.raises(WireProtocolError, match="flags"):
            decode_preamble(bytes(wire_header))

    def test_crc_mismatch_is_loud(self):
        wire_header = bytearray(encode_wire_header([10, 20]))
        # Corrupt a frame-length byte: the preamble still parses, the crc
        # must catch it.
        wire_header[PREAMBLE.size] ^= 0xFF
        preamble = bytes(wire_header[: PREAMBLE.size])
        table = bytes(wire_header[PREAMBLE.size :])
        with pytest.raises(WireProtocolError, match="crc mismatch"):
            decode_frame_table(preamble, table)

    def test_oversized_message_rejected_before_allocation(self):
        wire_header = encode_wire_header([1 << 20])
        with pytest.raises(WireProtocolError, match="oversized"):
            decode_preamble(wire_header, max_message_bytes=1 << 10)

    def test_default_size_bound(self):
        head = PREAMBLE.pack(MAGIC, VERSION, 0, 1, DEFAULT_MAX_MESSAGE_BYTES + 1)
        with pytest.raises(WireProtocolError, match="oversized"):
            decode_preamble(head)

    def test_length_sum_mismatch(self):
        import struct
        import zlib

        head = PREAMBLE.pack(MAGIC, VERSION, 0, 2, 999)  # lengths sum to 30
        table = struct.pack("<II", 10, 20)
        crc = zlib.crc32(table, zlib.crc32(head))
        with pytest.raises(WireProtocolError, match="sum"):
            decode_frame_table(head, table + struct.pack("<I", crc))

    def test_short_preamble(self):
        with pytest.raises(WireProtocolError, match="short preamble"):
            decode_preamble(b"\x00" * 4)

    def test_short_table(self):
        wire_header = encode_wire_header([10, 20])
        with pytest.raises(WireProtocolError, match="short frame table"):
            decode_frame_table(
                wire_header[: PREAMBLE.size],
                wire_header[PREAMBLE.size : PREAMBLE.size + 3],
            )


class TestMessageCodec:
    def test_roundtrip_array_body(self):
        header = _header()
        body = np.arange(4096, dtype=np.float32)
        buffers, payload_nbytes = encode_message(header, body)
        wire_header, payload = _split(buffers)
        _, msg_length, lengths = _decode_header(wire_header)
        assert msg_length == payload_nbytes == len(payload)
        got_header, got_body = decode_message(bytearray(payload), lengths)
        assert got_header["src"] == "a"
        np.testing.assert_array_equal(got_body, body)

    def test_zero_copy_body_is_readonly_view(self):
        body = np.arange(1024, dtype=np.int64)
        buffers, _ = encode_message(_header(), body)
        wire_header, payload = _split(buffers)
        _, _, lengths = _decode_header(wire_header)
        buf = bytearray(payload)
        _, got = decode_message(buf, lengths, zero_copy=True)
        assert not got.flags.writeable
        # The array really is a view into the receive buffer.
        assert np.shares_memory(got, np.frombuffer(buf, dtype=np.uint8))

    def test_copy_mode_detaches(self):
        body = np.arange(16, dtype=np.int64)
        buffers, _ = encode_message(_header(), body)
        wire_header, payload = _split(buffers)
        _, _, lengths = _decode_header(wire_header)
        buf = bytearray(payload)
        _, got = decode_message(buf, lengths, zero_copy=False)
        assert not np.shares_memory(got, np.frombuffer(buf, dtype=np.uint8))

    def test_header_only_message(self):
        buffers, _ = encode_message(_header(), None)
        wire_header, payload = _split(buffers)
        _, _, lengths = _decode_header(wire_header)
        assert len(lengths) == 1
        got_header, got_body = decode_message(bytearray(payload), lengths)
        assert got_body is None
        assert got_header["src"] == "a"

    def test_sendmsg_buffers_share_body_memory(self):
        """The gather list must reference the array's memory, not a copy."""
        body = np.arange(65536, dtype=np.uint8)
        buffers, _ = encode_message(_header(), body)
        assert any(
            isinstance(buf, memoryview) and np.shares_memory(
                np.frombuffer(buf.cast("B"), dtype=np.uint8), body
            )
            for buf in buffers[1:]
        )

    def test_three_frames_on_a_non_batch_rejected(self):
        buffers, _ = encode_message(_header(), [1, 2, 3])
        wire_header, payload = _split(buffers)
        _, _, lengths = _decode_header(wire_header)
        with pytest.raises(WireProtocolError, match="1 or 2 frames"):
            decode_message(bytearray(payload + b"\0" * 10), [*lengths, 10])

    def test_four_frames_rejected(self):
        with pytest.raises(WireProtocolError, match="1 to 3 frames"):
            decode_message(bytearray(40), [10, 10, 10, 10])

    def test_short_payload_rejected(self):
        with pytest.raises(WireProtocolError, match="short payload"):
            decode_message(bytearray(5), [10])

    def test_non_dict_header_rejected(self):
        # Decode the body slot as if it were the header: a frame that is
        # not a header record must be rejected, not delivered.
        buffers, _ = encode_message(_header(), [1, 2, 3])
        wire_header, payload = _split(buffers)
        _, _, (header_length, body_length) = _decode_header(wire_header)
        body = payload[header_length:]
        with pytest.raises(WireProtocolError, match="header record"):
            decode_message(bytearray(body), [body_length])

    def test_garbage_header_frame_rejected(self):
        with pytest.raises(WireProtocolError, match="header record"):
            decode_message(bytearray(b"\xff" * 64), [64])


def test_version_1_preamble_rejected():
    """A peer that still speaks version 1 (pickled headers) fails at the
    preamble, before anything reads frame 0."""
    stale = PREAMBLE.pack(MAGIC, 1, 0, 1, 10)
    with pytest.raises(WireProtocolError, match="unsupported wire version 1"):
        decode_preamble(stale)


def test_version_2_preamble_rejected():
    """A peer that still pickles BATCH sub-headers (version 2) fails at the
    preamble too, before anything reads a row table it does not send."""
    assert VERSION == 3
    stale = PREAMBLE.pack(MAGIC, 2, 0, 2, 10)
    with pytest.raises(WireProtocolError, match="unsupported wire version 2"):
        decode_preamble(stale)


#: a header of every fixed field, one destination and one nested extra —
#: the victim of every malformed-record case below
_VICTIM = {**make_header("src", ["d1"], MsgType.DATA), "k": [1, "x"]}
_SRC_AT = len(encode_header({}))  # after the fixed part and src's length
_FIXED = _SRC_AT - 2
_EXTRA_TAG_AT = _SRC_AT + 3 + 4 + 3  # src, dst, then the key "k"


def _malformed(case: str) -> bytes:
    record = bytearray(encode_header(_VICTIM))
    if case == "type code":
        record[0] = 99
    elif case == "flags":
        record[1] |= 0x80
    elif case == "fixed part":
        del record[_FIXED - 1 :]
    elif case == "src is not UTF-8":
        record[_SRC_AT : _SRC_AT + 3] = b"\xff\xfe\xfd"
    elif case == "truncated in src":
        del record[_SRC_AT + 1 :]
    elif case == "truncated in dst":
        del record[_SRC_AT + 3 + 3 :]
    elif case == "truncated in extra 'k'":
        del record[-2:]
    elif case == "extra 'k' has tag 42":
        record[_EXTRA_TAG_AT] = 42
    elif case == "trailing bytes":
        record += b"\x00"
    return bytes(record)


#: every way a received record can be malformed, by the words its error
#: must say
MALFORMED = (
    "type code", "flags", "fixed part", "src is not UTF-8", "truncated in src",
    "truncated in dst", "truncated in extra 'k'", "extra 'k' has tag 42",
    "trailing bytes",
)


class TestHeaderRecord:
    def test_the_victim_round_trips(self):
        assert decode_header(encode_header(_VICTIM)) == _VICTIM

    @pytest.mark.parametrize("case", MALFORMED)
    def test_malformed_record_names_its_field(self, case):
        record = _malformed(case)
        with pytest.raises(WireProtocolError, match=case):
            decode_header(record)
        # The same through the message decoder: never an IndexError,
        # struct.error or UnicodeDecodeError.
        with pytest.raises(WireProtocolError, match=case):
            decode_message(record, [len(record)])

    def test_a_partial_header_arrives_as_sent(self):
        """A field the sender left out is not filled in on arrival, and a
        trace or span of 0 or None is no trace at all."""
        for header in (
            {}, {"k": 1}, {"src": "m1", "kind": "test"}, {"seq": 5},
            {"object_id": None}, {"dst": [], "compressed": True},
        ):
            assert decode_header(encode_header(header)) == header
        assert decode_header(encode_header({"trace": 0, "span": None})) == {}

    @pytest.mark.parametrize("extra", [
        {1, 2}, b"bytes", object(), 2 ** 64, -(2 ** 63) - 1, {"a": 1},
        [[[[[[[[[[[[[[[[[1]]]]]]]]]]]]]]]]],
    ])
    def test_an_extra_with_no_encoding_raises(self, extra):
        with pytest.raises(WireProtocolError, match="header extra 'bad'"):
            encode_header({"src": "a", "bad": extra})

    @pytest.mark.parametrize("header", [
        {1: "a"}, {"src": "x" * 70_000}, {"k": "\ud800"}, {"dst": "learner"},
        {"dst": ["a", 1]}, {"seq": "7"}, {"seq": 2 ** 63}, {"body_size": -1},
        {"type": "no such type"}, {"created_at": None},
    ], ids=repr)
    def test_a_field_that_fits_no_slot_raises(self, header):
        with pytest.raises(WireProtocolError, match="cannot be encoded"):
            encode_header(header)


def _typed(value):
    """``value`` with the type of every part spelled out: ``==`` alone
    takes ``True`` for ``1`` and ``1.0`` for ``1``."""
    if isinstance(value, dict):
        return {key: _typed(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return (type(value), [_typed(item) for item in value])
    return (type(value), value)


_I64 = 2 ** 63
_SCALAR_EXTRAS = (
    st.none() | st.booleans() | st.integers(-_I64, 2 ** 64 - 1)
    | st.floats(allow_nan=False) | st.text(max_size=8)
)
_EXTRAS = st.recursive(
    _SCALAR_EXTRAS,
    lambda inner: st.lists(inner, max_size=3) | st.lists(inner, max_size=3).map(tuple),
    max_leaves=10,
)
_FIELDS = {
    "type", "src", "dst", "seq", "object_id", "created_at", "body_size",
    "compressed", "trace", "span",
}
_HEADERS = st.tuples(
    st.fixed_dictionaries(
        {},
        optional={
            "type": st.sampled_from(MsgType),
            "src": st.text(),
            "dst": st.lists(st.text(), max_size=4),
            "seq": st.integers(-_I64, _I64 - 1),
            "object_id": st.none() | st.text(max_size=12),
            "created_at": st.floats(allow_nan=False),
            "body_size": st.integers(0, 2 ** 64 - 1),
            "compressed": st.booleans(),
            "trace": st.integers(1, 2 ** 64 - 1),
            "span": st.integers(1, 2 ** 64 - 1),
        },
    ),
    st.dictionaries(st.text(max_size=6).filter(lambda key: key not in _FIELDS), _EXTRAS,
                    max_size=4),
).map(lambda parts: {**parts[0], **parts[1]})


class TestHeaderRecordProperties:
    @given(_HEADERS)
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, header):
        record = encode_header(header)
        assert _typed(decode_header(record)) == _typed(header)
        if header.get("type") is MsgType.BATCH:  # an envelope needs its body
            with pytest.raises(WireProtocolError, match="BATCH envelope"):
                encode_message(header, None)
            return
        buffers, _ = encode_message(header, None)
        wire_header, payload = _split(buffers)
        _, _, lengths = _decode_header(wire_header)
        assert _typed(decode_message(payload, lengths)[0]) == _typed(header)

    @given(_HEADERS, st.data())
    @settings(max_examples=100, deadline=None)
    def test_any_cut_of_a_record_is_refused(self, header, data):
        record = encode_header(header)
        cut = data.draw(st.integers(0, len(record) - 1))
        with pytest.raises(WireProtocolError, match="header record"):
            decode_header(record[:cut])


class TestNoHeaderIsUnpickled:
    """Every header shape the tree puts on the wire decodes with
    ``pickle.loads`` unavailable."""

    @staticmethod
    def _shapes():
        from repro.transport.tcp import HELLO, RAW

        hello = make_header("m1", ["m0"], MsgType.COMMAND)
        hello[HELLO] = 1
        raw = make_header("m1", ["m0"], MsgType.DATA)
        raw[RAW] = 1
        stats = make_header(
            "learner", ["center"], MsgType.STATS, extra={"trained_steps": 512}
        )
        weights = make_header("learner", ["e0", "e1", "e2"], MsgType.WEIGHTS)
        return [
            (hello, None), (raw, np.arange(8)),
            (stats, None), (weights, [np.ones((4, 4)), np.zeros(4)]),
        ]

    def test_every_shape_decodes_without_pickle(self, monkeypatch):
        import pickle

        shapes = self._shapes()
        encoded = []
        for header, body in shapes:
            buffers, _ = encode_message(header, body)
            wire_header, payload = _split(buffers)
            encoded.append((payload, _decode_header(wire_header)[2]))

        def refuse(*args, **kwargs):
            raise AssertionError("pickle.loads called while decoding")

        monkeypatch.setattr(pickle, "loads", refuse)
        for (header, body), (payload, lengths) in zip(shapes, encoded):
            got_header, got_body = decode_message(payload, lengths)
            assert _typed(got_header) == _typed(header)
            if body is not None:
                assert all(map(np.array_equal, got_body, body)) if isinstance(
                    body, list
                ) else np.array_equal(got_body, body)

    def test_batch_envelope_with_its_body_decodes_without_pickle(self, monkeypatch):
        import pickle

        bodies = [np.full(256, index, dtype=np.uint8) for index in range(4)]
        envelope = pack_batch([
            make_message("e0", ["learner"], MsgType.ROLLOUT, body, body_size=256)
            for body in bodies
        ])
        frames = _frames(envelope.header, envelope.body)

        def refuse(*args, **kwargs):
            raise AssertionError("pickle.loads called while decoding")

        monkeypatch.setattr(pickle, "loads", refuse)
        got_header, got_body = _decode_frames(frames)
        assert _typed(got_header) == _typed(envelope.header)
        for (sub, sub_body), message, expected in zip(
            got_body, envelope.body, bodies
        ):
            assert _typed(sub) == _typed(message[0])
            assert np.array_equal(sub_body, expected)


def _frames(header, body):
    """The frames of ``(header, body)`` on the wire, each as bytes."""
    buffers, _ = encode_message(header, body)
    wire_header, payload = _split(buffers)
    frames, at = [], 0
    for length in _decode_header(wire_header)[2]:
        frames.append(payload[at : at + length])
        at += length
    return frames


def _decode_frames(frames, **kwargs):
    return decode_message(
        bytearray(b"".join(frames)), [len(frame) for frame in frames], **kwargs
    )


def _envelope(rows, bodies, src="e0", dst=("learner",), msg_type=MsgType.DATA):
    """A BATCH envelope of one sub-message per ``(seq, created_at,
    body_size, trace, span)`` row (a trace or span of ``None`` is absent)."""
    messages = []
    for (seq, created_at, body_size, trace, span), body in zip(rows, bodies):
        header = make_header(src, list(dst), msg_type)
        header.update(seq=seq, created_at=created_at, body_size=body_size)
        for key, value in (("trace", trace), ("span", span)):
            if value is None:
                del header[key]
            else:
                header[key] = value
        messages.append(Message(header, body))
    envelope = pack_batch(messages)
    envelope.header["body_size"] = min(envelope.body_size, 2 ** 64 - 1)
    return envelope


def _same_body(got, expected):
    if isinstance(expected, np.ndarray):
        return isinstance(got, np.ndarray) and np.array_equal(got, expected)
    return got == expected


_IDS = st.sampled_from([None, 0, 1, 2 ** 64 - 1]) | st.integers(1, 2 ** 64 - 1)
_ROW_VALUES = st.tuples(
    st.sampled_from([-(2 ** 63), 2 ** 63 - 1]) | st.integers(-(2 ** 63), 2 ** 63 - 1),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(0, 2 ** 64 - 1),
    _IDS,
    _IDS,
)
_ARRAY_BODIES = st.integers(0, 16).map(lambda n: np.arange(n, dtype=np.uint8))
_ANY_BODIES = _ARRAY_BODIES | st.none() | st.integers() | st.text(max_size=8)
_TABLES = st.integers(1, 6).flatmap(lambda count: st.tuples(
    st.lists(_ROW_VALUES, min_size=count, max_size=count),
    st.lists(_ARRAY_BODIES, min_size=count, max_size=count)
    | st.lists(_ANY_BODIES, min_size=count, max_size=count),
))


class TestBatchEnvelope:
    """A BATCH envelope is three frames: header record, row table, bodies."""

    @given(_TABLES, st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_round_trip(self, table, zero_copy):
        rows, bodies = table
        envelope = _envelope(rows, bodies)
        frames = _frames(envelope.header, envelope.body)
        assert len(frames) == 3
        assert b"batch_seqs" not in frames[0]  # the rows carry them
        header, pairs = _decode_frames(frames, zero_copy=zero_copy)
        expected_header = dict(envelope.header)
        expected_header["batch_seqs"] = [
            (seq, trace or None) for seq, _, _, trace, _ in rows
        ]
        assert _typed(header) == _typed(expected_header)
        assert len(pairs) == len(rows)
        for (sub, body), (original, sent_body) in zip(pairs, envelope.body):
            expected = {
                key: value for key, value in original.items()
                if key not in ("trace", "span") or value
            }
            assert _typed(sub) == _typed(expected)
            assert _same_body(body, sent_body)

    @given(_TABLES, st.data())
    @settings(max_examples=150, deadline=None)
    def test_any_cut_of_any_frame_is_refused(self, table, data):
        frames = _frames(*_as_pair(_envelope(*table)))
        index = data.draw(st.integers(0, 2))
        cut = data.draw(st.integers(0, len(frames[index]) - 1))
        frames[index] = frames[index][:cut]
        with pytest.raises(WireProtocolError):
            _decode_frames(frames)

    @pytest.mark.parametrize("bodies", [
        [np.arange(3, dtype=np.uint8), np.arange(0, dtype=np.uint8)],
        [np.arange(3, dtype=np.uint8), None],
    ], ids=["array frame", "pickle frame"])
    def test_every_cut_of_every_frame_is_refused(self, bodies):
        rows = [(1, 2.0, 3, 4, 5), (-1, 0.5, 0, None, None)]
        whole = _frames(*_as_pair(_envelope(rows, bodies)))
        for index, frame in enumerate(whole):
            for cut in range(len(frame)):
                frames = list(whole)
                frames[index] = frame[:cut]
                with pytest.raises(WireProtocolError):
                    _decode_frames(frames)

    def _parts(self, count=3):
        envelope = _envelope(
            [(index, 1.0, 8, 7, 9) for index in range(count)],
            [np.arange(4, dtype=np.uint8)] * count,
        )
        return _frames(envelope.header, envelope.body)

    def test_a_row_table_shorter_than_batch_count_is_refused(self):
        header, rows, bodies = self._parts()
        fewer = _frames(*_as_pair(_envelope(
            [(0, 1.0, 8, 7, 9)] * 2, [np.arange(4, dtype=np.uint8)] * 2
        )))
        with pytest.raises(WireProtocolError, match="row table"):
            _decode_frames([header, rows[: -1], bodies])
        with pytest.raises(WireProtocolError, match="row table"):
            _decode_frames([header, fewer[1], bodies])

    @pytest.mark.parametrize("code", [0, 7, 99])
    def test_a_bad_sub_type_code_is_refused(self, code):
        header, rows, bodies = self._parts()
        with pytest.raises(WireProtocolError, match="row table: bad sub type code"):
            _decode_frames([header, bytes([code]) + rows[1:], bodies])

    def test_one_body_per_row(self):
        header, rows, _ = self._parts(3)
        for count in (2, 4):
            bodies = _frames(*_as_pair(_envelope(
                [(0, 1.0, 8, 7, 9)] * count, [np.arange(4, dtype=np.uint8)] * count
            )))[2]
            with pytest.raises(WireProtocolError, match="bodies frame: .* for 3 rows"):
                _decode_frames([header, rows, bodies])
        not_a_list = _frames(_header(), np.arange(4, dtype=np.uint8))[1]
        with pytest.raises(WireProtocolError, match="bodies frame"):
            _decode_frames([header, rows, not_a_list])

    def test_a_batch_header_needs_three_frames(self):
        header, rows, bodies = self._parts()
        with pytest.raises(WireProtocolError, match="BATCH envelope carries 3"):
            _decode_frames([header, bodies])

    @pytest.mark.parametrize("misfit", [
        {"extra": 1}, {"object_id": "o-1"}, {"compressed": True},
        {"src": "someone-else"}, {"type": MsgType.ROLLOUT}, {"seq": 2 ** 63},
        {"trace": 2 ** 64}, {"body_size": -1}, {"created_at": "noon"},
    ], ids=lambda misfit: next(iter(misfit)))
    def test_a_sub_header_that_does_not_fit_is_refused_at_the_sender(self, misfit):
        envelope = _envelope([(0, 1.0, 1, 1, 1)] * 2, [None, None])
        envelope.body[1][0].update(misfit)
        with pytest.raises(WireProtocolError, match="does not fit the row table"):
            encode_message(envelope.header, envelope.body)

    def test_an_envelope_in_an_envelope_is_refused_at_the_sender(self):
        inner = _envelope([(0, 1.0, 1, 1, 1)], [None])
        header = dict(inner.header)
        del header["batch_count"], header["batch_seqs"]
        outer = pack_batch([Message(header, None)])
        with pytest.raises(WireProtocolError, match="does not fit the row table"):
            encode_message(outer.header, outer.body)

    def test_a_body_that_is_not_the_pairs_is_refused_at_the_sender(self):
        envelope = _envelope([(0, 1.0, 1, 1, 1)] * 2, [None, None])
        for body in (None, envelope.body[:1], tuple(envelope.body)):
            with pytest.raises(WireProtocolError, match="BATCH envelope"):
                encode_message(envelope.header, body)


def _as_pair(message):
    return message.header, message.body
