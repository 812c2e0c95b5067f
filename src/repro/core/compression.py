"""Body compression.

The paper compresses message bodies larger than 1 MB with LZ4 when they are
inserted into the object store, and decompresses on fetch (§4.1).  LZ4 is not
available offline, so the default codec is zlib at a fast level — the same
architectural role (CPU-for-bandwidth trade at the store boundary) with the
same threshold policy.  A null codec disables compression entirely.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace
from typing import Any, Dict, Tuple

import numpy as np

from .concurrency import make_lock
from .flowcontrol import Lane, lane_of
from .message import TYPE, WIRE_CODEC, MsgType
from .serialization import deserialize, serialize

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


class WireCompressor:
    """A :class:`CompressionPolicy` at the fabric boundary, plus counters.

    Off by default; the FlowController enables it when a link's throughput
    sags (CPU-for-bandwidth, the same trade the policy makes at rest in the
    store).  ``encode`` serializes the body, frames it with the policy and
    rewrites the wire byte count, so a throttled NIC model charges the
    compressed size; :func:`wire_decode` on the receiving broker restores
    the original body before routing.  A BATCH envelope keeps its shape:
    each sub-body is framed on its own, as a ``uint8`` array so the wire
    carries the blobs in its raw array frame, and the sub-headers are left
    as they are, for the wire to carry as rows — never serialized.  Only
    bulk-lane bodies of at least ``min_bytes`` (the policy's threshold) are
    taken.
    """

    def __init__(self, name: str, *, codec: str = "zlib", min_bytes: int = 1 << 10):
        self.name = name
        self._lock = make_lock(f"wire.{name}")
        self._policy = CompressionPolicy(
            enabled=False, threshold=min_bytes, codec=codec
        )
        self.compressed_total = 0
        self.bytes_in = 0
        self.bytes_out = 0

    @property
    def enabled(self) -> bool:
        return self._policy.enabled

    def set_enabled(self, active: bool) -> None:
        self._policy = replace(self._policy, enabled=active)

    def wants(self, header: Dict[str, Any], body: Any, nbytes: int) -> bool:
        return (
            self._policy.should_compress(nbytes)
            and body is not None
            and header.get(WIRE_CODEC) is None
            and lane_of(header.get(TYPE)) is Lane.BULK
        )

    def encode(
        self, header: Dict[str, Any], body: Any, nbytes: int
    ) -> Tuple[Dict[str, Any], Any, int]:
        policy = self._policy
        if header.get(TYPE) == MsgType.BATCH:
            coded = [policy.encode(serialize(sub_body)) for _, sub_body in body]
            body = [
                (sub, np.frombuffer(blob, np.uint8))
                for (sub, _), (blob, _) in zip(body, coded)
            ]
        else:
            coded = [policy.encode(serialize(body))]
            body = coded[0][0]
        size = sum(len(blob) for blob, _ in coded)
        header = dict(header)
        header[WIRE_CODEC] = policy.codec
        with self._lock:
            self.compressed_total += sum(compressed for _, compressed in coded)
            self.bytes_in += max(0, int(nbytes))
            self.bytes_out += size
        return header, body, size

    def stats(self) -> Dict[str, float]:
        with self._lock:
            return {
                "enabled": float(self.enabled),
                "compressed_total": float(self.compressed_total),
                "bytes_in": float(self.bytes_in),
                "bytes_out": float(self.bytes_out),
            }


def wire_decode(header: Dict[str, Any], body: Any) -> Tuple[Dict[str, Any], Any]:
    """Restore a body the sending broker framed at the fabric boundary.

    Driven by the header's ``WIRE_CODEC`` stamp and the frame's own prefix
    byte, so a receiving broker decodes correctly regardless of its own
    wire-compression state.
    """
    codec = header.get(WIRE_CODEC)
    if codec is None:
        return header, body
    policy = CompressionPolicy(codec=codec)
    if header.get(TYPE) == MsgType.BATCH:
        restored: Any = [
            (sub, deserialize(policy.decode(memoryview(blob))))
            for sub, blob in body
        ]
    else:
        restored = deserialize(policy.decode(body))
    header = dict(header)
    header[WIRE_CODEC] = None
    return header, restored
