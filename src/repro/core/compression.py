"""Body compression.

The paper compresses message bodies larger than 1 MB with LZ4 when they are
inserted into the object store, and decompresses on fetch (§4.1).  LZ4 is not
available offline, so the default codec is zlib at a fast level — the same
architectural role (CPU-for-bandwidth trade at the store boundary) with the
same threshold policy.  A null codec disables compression entirely.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, Tuple

DEFAULT_THRESHOLD = 1 << 20  # 1 MB, the paper's default

_HDR_RAW = b"R"
_HDR_ZLIB = b"Z"


class Codec:
    """Interface for body codecs."""

    name = "abstract"

    def compress(self, data: bytes) -> bytes:
        raise NotImplementedError

    def decompress(self, data: bytes) -> bytes:
        raise NotImplementedError


class NullCodec(Codec):
    """Pass-through codec (compression disabled)."""

    name = "null"

    def compress(self, data: bytes) -> bytes:
        return data

    def decompress(self, data: bytes) -> bytes:
        return data


class ZlibCodec(Codec):
    """zlib codec at a fast level — the offline stand-in for LZ4."""

    name = "zlib"

    def __init__(self, level: int = 1):
        if not 0 <= level <= 9:
            raise ValueError(f"zlib level must be in [0, 9], got {level}")
        self.level = level

    def compress(self, data: bytes) -> bytes:
        return zlib.compress(data, self.level)

    def decompress(self, data: bytes) -> bytes:
        return zlib.decompress(data)


_CODECS: Dict[str, Codec] = {}


def register_codec(codec: Codec) -> None:
    _CODECS[codec.name] = codec


register_codec(NullCodec())
register_codec(ZlibCodec())


def get_codec(name: str) -> Codec:
    try:
        return _CODECS[name]
    except KeyError:
        raise KeyError(f"unknown codec {name!r}; known: {sorted(_CODECS)}") from None


@dataclass
class CompressionPolicy:
    """When and how to compress serialized bodies.

    ``threshold`` — only bodies at least this many bytes are compressed
    (paper default: 1 MB).  ``enabled=False`` or ``threshold=None`` disables
    compression regardless of size.
    """

    enabled: bool = True
    threshold: int = DEFAULT_THRESHOLD
    codec: str = "zlib"

    def should_compress(self, nbytes: int) -> bool:
        """Whether a body of ``nbytes`` would be compressed by :meth:`encode`.

        The zero-copy store path asks this *before* materializing a frame:
        bodies below the threshold are scatter-gathered straight into their
        destination buffer (with a raw prefix), and only would-be-compressed
        bodies pay a contiguous intermediate copy for the codec.
        """
        return (
            self.enabled and self.threshold is not None and nbytes >= self.threshold
        )

    def encode(self, data: bytes) -> Tuple[bytes, bool]:
        """Maybe-compress ``data``; returns (framed bytes, compressed?).

        The one-byte frame prefix makes :meth:`decode` self-describing, so a
        receiver does not need to know the sender's policy.
        """
        if self.should_compress(len(data)):
            return _HDR_ZLIB + get_codec(self.codec).compress(data), True
        return _HDR_RAW + data, False

    def decode(self, data: bytes) -> bytes:
        """Inverse of :meth:`encode`."""
        prefix, payload = data[:1], data[1:]
        if prefix == _HDR_RAW:
            return bytes(payload)
        if prefix == _HDR_ZLIB:
            return get_codec(self.codec).decompress(payload)
        raise ValueError(f"unknown compression frame prefix {prefix!r}")


def disabled_policy() -> CompressionPolicy:
    """A policy that never compresses."""
    return CompressionPolicy(enabled=False)
