"""Tests for the compression policy (paper: compress bodies > 1 MB)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compression import (
    DEFAULT_THRESHOLD,
    CompressionPolicy,
    NullCodec,
    WireCompressor,
    ZlibCodec,
    disabled_policy,
    get_codec,
    wire_decode,
)
from repro.core.message import WIRE_CODEC, MsgType, make_header


class TestCodecs:
    def test_null_codec_is_identity(self):
        codec = NullCodec()
        assert codec.decompress(codec.compress(b"abc")) == b"abc"

    def test_zlib_roundtrip(self):
        codec = ZlibCodec()
        data = b"pattern" * 1000
        compressed = codec.compress(data)
        assert len(compressed) < len(data)
        assert codec.decompress(compressed) == data

    def test_zlib_level_validation(self):
        with pytest.raises(ValueError):
            ZlibCodec(level=11)

    def test_get_codec_known(self):
        assert get_codec("zlib").name == "zlib"
        assert get_codec("null").name == "null"

    def test_get_codec_unknown(self):
        with pytest.raises(KeyError, match="unknown codec"):
            get_codec("lz77")


class TestCompressionPolicy:
    def test_default_threshold_is_1mb(self):
        assert CompressionPolicy().threshold == DEFAULT_THRESHOLD == 1 << 20

    def test_small_bodies_not_compressed(self):
        policy = CompressionPolicy(threshold=100)
        framed, compressed = policy.encode(b"x" * 99)
        assert not compressed
        assert policy.decode(framed) == b"x" * 99

    def test_large_bodies_compressed(self):
        policy = CompressionPolicy(threshold=100)
        data = b"y" * 200
        framed, compressed = policy.encode(data)
        assert compressed
        assert policy.decode(framed) == data

    def test_disabled_policy_never_compresses(self):
        policy = disabled_policy()
        framed, compressed = policy.encode(b"z" * (2 << 20))
        assert not compressed
        assert policy.decode(framed) == b"z" * (2 << 20)

    def test_threshold_boundary_inclusive(self):
        policy = CompressionPolicy(threshold=10)
        _, compressed = policy.encode(b"a" * 10)
        assert compressed
        _, compressed = policy.encode(b"a" * 9)
        assert not compressed

    def test_decode_rejects_unknown_prefix(self):
        with pytest.raises(ValueError, match="prefix"):
            CompressionPolicy().decode(b"?payload")

    def test_decode_is_self_describing(self):
        # A receiver with a different threshold still decodes correctly.
        sender = CompressionPolicy(threshold=10)
        receiver = CompressionPolicy(threshold=1 << 30)
        framed, compressed = sender.encode(b"b" * 100)
        assert compressed
        assert receiver.decode(framed) == b"b" * 100

    @given(st.binary(max_size=4096), st.integers(min_value=0, max_value=2048))
    @settings(max_examples=60, deadline=None)
    def test_property_encode_decode_roundtrip(self, data, threshold):
        policy = CompressionPolicy(threshold=threshold)
        framed, compressed = policy.encode(data)
        assert policy.decode(framed) == data
        assert compressed == (len(data) >= threshold)


class TestWireCompressorIsThePolicy:
    """One compressor: the fabric boundary frames bodies with the same
    self-describing prefix the store uses (more in test_flowcontrol.py)."""

    def test_frame_is_the_policys(self):
        wire = WireCompressor("w", min_bytes=16)
        wire.set_enabled(True)
        body = {"payload": "z" * 4096}
        header = make_header("a", ["b"], MsgType.DATA, body_size=5000)
        stamped, blob, nbytes = wire.encode(header, body, 5000)
        assert blob[:1] == b"Z" and nbytes == len(blob) < 5000
        assert stamped[WIRE_CODEC] == "zlib"
        assert wire_decode(stamped, blob)[1] == body
        assert wire.stats()["compressed_total"] == 1

    def test_body_serializing_below_the_threshold_rides_raw(self):
        """The declared size passed ``wants``; the pickled body did not reach
        the threshold.  The prefix says so, and the receiver needs no flag."""
        wire = WireCompressor("w", min_bytes=4096)
        wire.set_enabled(True)
        header = make_header("a", ["b"], MsgType.DATA, body_size=5000)
        assert wire.wants(header, "tiny", 5000)
        stamped, blob, _ = wire.encode(header, "tiny", 5000)
        assert blob[:1] == b"R"
        assert wire_decode(stamped, blob)[1] == "tiny"
        assert wire.stats()["compressed_total"] == 0
