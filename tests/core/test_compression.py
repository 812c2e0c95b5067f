"""Tests for the compression policy (paper: compress bodies > 1 MB)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compression import (
    DEFAULT_THRESHOLD,
    CompressionPolicy,
    NullCodec,
    ZlibCodec,
    disabled_policy,
    get_codec,
)


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
