"""Serialization of message bodies.

Bodies must be serialized before insertion into the object store and
deserialized when fetched into a receive buffer (§4.1).  The paper uses the
Arrow/Plasma store; we use pickle with an out-of-band fast path for NumPy
arrays so large tensors are serialized with a cheap header + raw buffer
instead of being pickled element-wise.

The hot path is scatter-gather: :func:`make_frame` produces a
:class:`Frame` — a list of buffer views plus a precomputed byte count —
without concatenating anything.  Stores and channels then call
:meth:`Frame.serialize_into` to write the payload directly into its final
destination (a shared-memory slab, a preallocated segment) with zero
intermediate ``bytes`` objects.  :func:`serialize` remains as the
contiguous-bytes convenience built on the same frame.
"""

from __future__ import annotations

import itertools
import pickle
from typing import Any, List, Optional, Tuple, Union

import numpy as np

_MAGIC = b"XTSER1"
_LEN_MAGIC = len(_MAGIC)

Segment = Union[bytes, memoryview]

# -- copy accounting --------------------------------------------------------
# Every contiguous-bytes materialization of a frame (``Frame.to_bytes`` and
# therefore ``serialize``) bumps this counter.  The scatter-gather wire path
# (``serialize_into`` targets, ``socket.sendmsg`` from frame segments) never
# materializes, so "zero-copy" is an asserted invariant: take a snapshot,
# drive the path, assert the delta is 0.  Exported by the telemetry sampler
# as ``serialization_copies_total``.  ``itertools.count`` keeps the bump
# atomic under the GIL without a lock on the hot fallback path.
_COPIES = itertools.count()


def _count_copy() -> None:
    next(_COPIES)


def serialization_copies_total() -> int:
    """Total contiguous-bytes frame materializations in this process."""
    # Peek the counter without consuming a tick: clone via __reduce__.
    return _COPIES.__reduce__()[1][0]


def _segment_nbytes(segment: Segment) -> int:
    if isinstance(segment, memoryview):
        return segment.nbytes
    return len(segment)


class Frame:
    """A scatter-gather descriptor of one serialized object.

    ``segments`` is the ordered list of byte chunks that, concatenated, form
    the wire representation; out-of-band pickle buffers appear as raw
    *views* into the original arrays, so building a frame copies nothing but
    the (small) pickle payload.  ``nbytes`` is precomputed so senders can
    size headers and destination buffers without serializing twice.
    """

    __slots__ = ("segments", "nbytes")

    def __init__(self, segments: List[Segment]):
        self.segments = segments
        self.nbytes = sum(_segment_nbytes(segment) for segment in segments)

    def serialize_into(self, dest: Any) -> int:
        """Write the frame into ``dest`` (any writable buffer); returns the
        number of bytes written.  ``dest`` must hold at least ``nbytes``."""
        view = memoryview(dest)
        if view.format != "B" or view.ndim != 1:
            view = view.cast("B")
        offset = 0
        for segment in self.segments:
            length = _segment_nbytes(segment)
            view[offset : offset + length] = segment
            offset += length
        return offset

    def to_bytes(self) -> bytes:
        """Contiguous wire bytes (one copy; prefer :meth:`serialize_into`).

        Counted in :func:`serialization_copies_total` — the wire transport
        asserts this fallback never fires on its send path.
        """
        _count_copy()
        return b"".join(self.segments)


def make_frame(obj: Any) -> Frame:
    """Build the scatter-gather :class:`Frame` for ``obj``.

    NumPy arrays inside the object graph are extracted out-of-band via
    pickle-5 buffer callbacks; their raw memory enters the frame as views,
    not copies.  The result is self-describing; feed the written bytes to
    :func:`deserialize`.
    """
    buffers: List[pickle.PickleBuffer] = []
    payload = pickle.dumps(obj, protocol=5, buffer_callback=buffers.append)
    segments: List[Segment] = [
        _MAGIC
        + len(buffers).to_bytes(4, "little")
        + len(payload).to_bytes(8, "little"),
        payload,
    ]
    for buf in buffers:
        raw = buf.raw()
        segments.append(raw.nbytes.to_bytes(8, "little"))
        segments.append(raw)
    return Frame(segments)


def serialize(obj: Any) -> bytes:
    """Serialize ``obj`` to contiguous bytes (via :func:`make_frame`)."""
    return make_frame(obj).to_bytes()


def deserialize(data: Any, *, copy: bool = True, view_registry: Any = None) -> Any:
    """Inverse of :func:`serialize` / :func:`make_frame`.

    With ``copy=True`` (the default) every out-of-band buffer is copied
    into a fresh writable ``bytearray``, so the result is independent of
    ``data`` — required whenever ``data`` aliases reusable memory (an arena
    block, an unlinked segment) or when consumers mutate arrays in place
    (optimizers, in-place replay updates).

    With ``copy=False`` buffers are *read-only views* into ``data``: arrays
    come back with ``writeable=False`` and zero copies.  Callers own two
    obligations: keep ``data`` alive for the life of the result, and never
    hand the result to an in-place mutator.  Consumers that repack anyway
    (trainer batch assembly concatenates fragments into new arrays) take
    this mode for free.  The views keep ``data`` itself alive; when what
    must outlive them is storage *behind* ``data`` (a recyclable block),
    pass a :func:`view_holder` and hang the release on its death.

    ``view_registry`` (zero-copy mode only) receives one ``register(view)``
    call per exported read-only buffer.  When ``data`` is an arena block,
    pass :meth:`SlabArena.export_registry(handle)
    <repro.core.arena.SlabArena.export_registry>` — the arena then refuses
    to recycle the block while any of the exported views is still alive,
    turning a silent use-after-free into an immediate
    :class:`~repro.core.arena.ArenaError`.
    """
    view = memoryview(data)
    if view.format != "B" or view.ndim != 1:
        view = view.cast("B")
    if bytes(view[:_LEN_MAGIC]) != _MAGIC:
        raise ValueError("not a XingTian-serialized payload")
    offset = _LEN_MAGIC
    n_buffers = int.from_bytes(view[offset : offset + 4], "little")
    offset += 4
    payload_len = int.from_bytes(view[offset : offset + 8], "little")
    offset += 8
    payload = view[offset : offset + payload_len]
    offset += payload_len
    buffers: List[Any] = []
    for _ in range(n_buffers):
        buf_len = int.from_bytes(view[offset : offset + 8], "little")
        offset += 8
        chunk = view[offset : offset + buf_len]
        if copy:
            buffers.append(bytearray(chunk))
        else:
            exported = chunk.toreadonly()
            if view_registry is not None:
                view_registry.register(exported)
            buffers.append(exported)
        offset += buf_len
    return pickle.loads(payload, buffers=buffers)


def view_holder(view: memoryview) -> np.ndarray:
    """A weak-referenceable, read-only owner of ``view`` for ``copy=False``.

    Every buffer :func:`deserialize` exports from ``memoryview(holder)``
    keeps the holder alive (they share its managed buffer), and nothing
    else does once the caller drops it: the holder dies exactly when the
    last array of the body does.  A ``weakref.finalize`` on it is therefore
    the body's release hook — how :class:`SharedMemoryObjectStore
    <repro.core.object_store.SharedMemoryObjectStore>` ties a leased body
    to its arena block.  (A ``memoryview`` cannot be weakly referenced and
    the mmap behind a slab is shared by every block, so neither can carry
    the hook itself.)
    """
    return np.frombuffer(view.toreadonly(), dtype=np.uint8)


def measure(obj: Any) -> Tuple[int, Optional[Frame]]:
    """Wire size of ``obj``, plus the :class:`Frame` when one was built.

    Array-shaped objects are sized from their buffers without pickling —
    the frame slot is ``None`` and the (cheap) serialization happens later
    at the store boundary.  Everything else is framed exactly once; callers
    cache the returned frame (``Message.frame``) so the store can reuse it
    instead of pickling the same object a second time.
    """
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj), None
    if isinstance(obj, np.ndarray):
        return obj.nbytes, None
    if isinstance(obj, (list, tuple)) and obj and all(
        isinstance(item, np.ndarray) for item in obj
    ):
        return sum(item.nbytes for item in obj), None
    if isinstance(obj, dict) and obj and all(
        isinstance(value, np.ndarray) for value in obj.values()
    ):
        return sum(value.nbytes for value in obj.values()), None
    try:
        frame = make_frame(obj)
    except Exception:
        return 0, None
    return frame.nbytes, frame


def payload_nbytes(obj: Any) -> int:
    """Estimate the wire size of ``obj`` in bytes without serializing twice.

    Used by senders to fill the ``body_size`` header field and by throttled
    links to charge bandwidth.  Arrays are charged their buffer size; other
    objects are charged their frame size (see :func:`measure`, which also
    hands back the frame so the pickle work is not repeated at the store).
    """
    nbytes, _ = measure(obj)
    return nbytes


def roundtrip(obj: Any) -> Tuple[Any, int]:
    """Serialize then deserialize ``obj``; returns (copy, wire_size).

    Handy for tests and for transports that want a true copy boundary.
    """
    blob = serialize(obj)
    return deserialize(blob), len(blob)
