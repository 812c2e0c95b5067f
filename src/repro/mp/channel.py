"""Cross-process channel primitives.

``write_segment`` serializes a body into a fresh shared-memory segment and
returns its name; ``read_segment`` attaches by name, deserializes, and
(optionally) unlinks.  The :class:`MpChannel` bundles the queues one
explorer needs: a header queue toward the learner and a weights queue back.

Two body-transfer paths exist:

* **pooled** (the default when a :class:`SharedSlabPool` is attached) —
  bodies are scatter-gather-written into fixed-size blocks of slab
  segments the parent created *before* forking.  No ``shm_open`` /
  ``ftruncate`` / ``mmap`` per message; the reader returns the block to a
  shared free list.
* **legacy** — each body gets its own segment and the single consumer
  unlinks it after reading: the degenerate (refcount == 1) case of the
  broker store.  Oversized bodies and pool-exhaustion overflow land here.

Handles crossing the queues are either a legacy segment name (``str``) or
a pool block tuple; :func:`write_body` / :func:`read_body` dispatch.
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import os
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Any, Dict, Optional, Tuple, Union

from ..core.concurrency import runtime_checks_enabled
from ..core.message import DST, SEQ, SPAN, SRC, TRACE, TYPE, MsgType, new_trace_id
from ..core.serialization import Frame, deserialize, make_frame
from ..core.tracing import emit

_SIZE_HEADER = 8

#: first element of a pooled block handle (vs a legacy segment-name str)
_POOL_TAG = "blk"

#: (tag, block_index, total_bytes_including_length_prefix)
PoolHandle = Tuple[str, int, int]
BodyHandle = Union[str, PoolHandle]

_POOL_COUNTER = itertools.count()

#: reserved metadata key carrying cross-process trace context; the receiving
#: session pops it before handing metadata to the algorithm
TRACE_META = "_trace"

#: per-process rollout sequence (trace ids are globally unique via their
#: pid-keyed nonce; seq only orders one sender's stream)
_MP_SEQ = itertools.count(1)


def write_segment(
    body: Any, name: Optional[str] = None, frame: Optional[Frame] = None
) -> str:
    """Serialize ``body`` into a new shared-memory segment; returns its name.

    The first 8 bytes store the payload length so readers can attach
    without knowing the size out of band.  The frame is scatter-gathered
    straight into the mapped segment — no intermediate contiguous bytes.
    """
    framed = make_frame(body) if frame is None else frame
    total = _SIZE_HEADER + framed.nbytes
    segment = shared_memory.SharedMemory(name=name, create=True, size=total)
    try:
        segment.buf[:_SIZE_HEADER] = framed.nbytes.to_bytes(_SIZE_HEADER, "little")
        framed.serialize_into(segment.buf[_SIZE_HEADER:total])
    finally:
        segment.close()
    # Ownership transfers to the consumer (it unlinks after reading), so the
    # creator's resource tracker must forget the segment — otherwise every
    # cross-process handoff draws a leak warning at interpreter shutdown.
    _untrack(segment.name)
    return segment.name


def _untrack(name: str) -> None:
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(f"/{name}", "shared_memory")
    except Exception:  # pragma: no cover - tracker internals vary by version
        pass


def read_segment(name: str, unlink: bool = True) -> Any:
    """Attach to a segment by name and deserialize its body.

    With ``unlink`` (the default) the segment is freed afterwards — the
    consumer owns cleanup, matching the release-after-fetch protocol of the
    in-process store.
    """
    segment = shared_memory.SharedMemory(name=name)
    try:
        length = int.from_bytes(bytes(segment.buf[:_SIZE_HEADER]), "little")
        body = deserialize(segment.buf[_SIZE_HEADER : _SIZE_HEADER + length])
    finally:
        segment.close()
        if unlink:
            try:
                segment.unlink()
            except FileNotFoundError:
                pass
    return body


class SharedSlabPool:
    """A pre-forked pool of fixed-size shared-memory blocks.

    The parent creates one slab segment holding ``num_blocks`` blocks of
    ``block_bytes`` each *before* forking explorers, so every process
    inherits the mapping.  The allocator is a free-index stack kept in a
    small control segment guarded by one ``multiprocessing.Lock`` —
    synchronous, so a block freed by the reader is visible to the very
    next write (unlike an ``mp.Queue``, whose feeder thread makes
    ``get_nowait`` racy).  Writing a body costs a stack pop plus one
    scatter-gather copy into the block — no ``shm_open``/``ftruncate``/
    ``mmap`` syscalls on the per-message path, which is where the legacy
    one-segment-per-message channel spends most of its time for small and
    medium bodies.  Readers deserialize with a copy (the block is recycled
    immediately) and push the index back.

    Bodies larger than a block — and writes finding the stack empty —
    return ``None`` from :meth:`write`; callers fall back to
    :func:`write_segment`.  The pool never blocks a sender.
    """

    # Control layout: 8-byte stack depth, 4-byte indices, then one state
    # byte per block (0 = free, 1 = allocated) shared by every process.
    _TOP = 8

    def __init__(
        self,
        context: Any = None,
        *,
        block_bytes: int = 1 << 20,
        num_blocks: int = 32,
        name: Optional[str] = None,
    ):
        if block_bytes <= _SIZE_HEADER:
            raise ValueError("block_bytes must exceed the length prefix")
        if num_blocks < 1:
            raise ValueError("num_blocks must be >= 1")
        ctx = context if context is not None else mp.get_context("fork")
        self.block_bytes = block_bytes
        self.num_blocks = num_blocks
        self.name = name or f"xtpool-{os.getpid()}-{next(_POOL_COUNTER)}"
        self._shm = shared_memory.SharedMemory(
            name=self.name, create=True, size=block_bytes * num_blocks
        )
        self._state_off = self._TOP + 4 * num_blocks
        self._ctrl = shared_memory.SharedMemory(
            name=f"{self.name}-ctrl",
            create=True,
            size=self._state_off + num_blocks,
        )
        ctrl = self._ctrl.buf
        ctrl[: self._TOP] = num_blocks.to_bytes(self._TOP, "little")
        for index in range(num_blocks):
            ctrl[self._TOP + 4 * index : self._TOP + 4 * index + 4] = (
                index.to_bytes(4, "little")
            )
        # State bytes start zeroed (shared memory is zero-filled) == free.
        self._lock = ctx.Lock()
        self._owner_pid = os.getpid()
        self._closed = False
        # Per-process counters (each fork gets its own copies).
        self.total_pool_writes = 0
        self.total_fallback = 0
        self.total_double_discard = 0
        self.total_stale_reads = 0

    # -- free-index stack -------------------------------------------------
    def _pop_free(self) -> Optional[int]:
        with self._lock:
            ctrl = self._ctrl.buf
            top = int.from_bytes(ctrl[: self._TOP], "little")
            if top == 0:
                return None
            top -= 1
            slot = self._TOP + 4 * top
            index = int.from_bytes(ctrl[slot : slot + 4], "little")
            ctrl[: self._TOP] = top.to_bytes(self._TOP, "little")
            ctrl[self._state_off + index] = 1
            return index

    def _push_free(self, index: int) -> bool:
        """Return the block to the free stack.

        ``False`` means the block was *already* free — a double discard.
        Pushing anyway would duplicate the index on the stack and hand the
        same block to two writers, so the push is skipped instead.
        """
        with self._lock:
            ctrl = self._ctrl.buf
            if ctrl[self._state_off + index] == 0:
                return False
            ctrl[self._state_off + index] = 0
            top = int.from_bytes(ctrl[: self._TOP], "little")
            slot = self._TOP + 4 * top
            ctrl[slot : slot + 4] = index.to_bytes(4, "little")
            ctrl[: self._TOP] = (top + 1).to_bytes(self._TOP, "little")
            return True

    def _allocated(self, index: int) -> bool:
        with self._lock:
            return self._ctrl.buf[self._state_off + index] == 1

    # -- hot path ---------------------------------------------------------
    def write(self, body: Any, frame: Optional[Frame] = None) -> Optional[PoolHandle]:
        """Write ``body`` into a free block; ``None`` means "use the
        fallback path" (body too large, pool exhausted, or closed)."""
        if self._closed:
            return None
        framed = make_frame(body) if frame is None else frame
        total = _SIZE_HEADER + framed.nbytes
        if total > self.block_bytes:
            self.total_fallback += 1
            return None
        index = self._pop_free()
        if index is None:
            self.total_fallback += 1
            return None
        start = index * self.block_bytes
        buf = self._shm.buf
        buf[start : start + _SIZE_HEADER] = framed.nbytes.to_bytes(
            _SIZE_HEADER, "little"
        )
        framed.serialize_into(buf[start + _SIZE_HEADER : start + total])
        self.total_pool_writes += 1
        return (_POOL_TAG, index, total)

    def read(self, handle: PoolHandle) -> Any:
        """Deserialize a block's body (with copy) and recycle the block."""
        _, index, total = handle
        if runtime_checks_enabled() and not self._allocated(index):
            self.total_stale_reads += 1
            raise ValueError(
                f"stale pool handle {handle!r} on {self.name!r}: the block "
                "was already read or discarded"
            )
        start = index * self.block_bytes
        buf = self._shm.buf
        length = int.from_bytes(bytes(buf[start : start + _SIZE_HEADER]), "little")
        try:
            body = deserialize(buf[start + _SIZE_HEADER : start + total])
        finally:
            self.discard(handle)
        assert length + _SIZE_HEADER == total
        return body

    def discard(self, handle: PoolHandle) -> None:
        """Recycle a block without reading it (shutdown drains).

        Discarding a handle whose block is already free is bookkeeping
        corruption waiting to happen (the index would sit on the free stack
        twice, so two writers would later share one block).  The push is
        skipped, the per-process ``total_double_discard`` counter ticks,
        and under ``REPRO_RUNTIME_CHECKS=1`` the caller gets a
        ``ValueError`` instead of a silent save.
        """
        if self._closed:
            return
        index = handle[1]
        if self._push_free(index):
            return
        self.total_double_discard += 1
        if runtime_checks_enabled():
            raise ValueError(
                f"double discard of pool block {index} on {self.name!r}: "
                "the block is already on the free list"
            )

    # -- lifecycle --------------------------------------------------------
    def free_blocks(self) -> int:
        """Current free-stack depth."""
        if self._closed:
            return 0
        with self._lock:
            return int.from_bytes(self._ctrl.buf[: self._TOP], "little")

    def close(self) -> None:
        """Tear down: owner unlinks the segments; everyone drops mappings."""
        if self._closed:
            return
        self._closed = True
        owner = os.getpid() == self._owner_pid
        for segment in (self._shm, self._ctrl):
            try:
                segment.close()
            except BufferError:  # pragma: no cover - view outlived a message
                pass
            if owner:
                try:
                    segment.unlink()
                except FileNotFoundError:
                    pass


def is_pool_handle(handle: Any) -> bool:
    return isinstance(handle, tuple) and len(handle) == 3 and handle[0] == _POOL_TAG


def write_body(body: Any, pool: Optional[SharedSlabPool] = None) -> BodyHandle:
    """Write ``body`` for another process: pooled when possible, else a
    dedicated segment.  The frame is built once either way."""
    frame = make_frame(body)
    if pool is not None:
        handle = pool.write(body, frame=frame)
        if handle is not None:
            return handle
    return write_segment(body, frame=frame)


def read_body(handle: BodyHandle, pool: Optional[SharedSlabPool] = None) -> Any:
    """Inverse of :func:`write_body`; frees the block or segment."""
    if is_pool_handle(handle):
        if pool is None:
            raise ValueError(f"pool handle {handle!r} but no pool attached")
        return pool.read(handle)
    return read_segment(handle)


def discard_body(handle: BodyHandle, pool: Optional[SharedSlabPool] = None) -> None:
    """Free the storage behind ``handle`` without deserializing (drains)."""
    if is_pool_handle(handle):
        if pool is not None:
            pool.discard(handle)
        return
    try:
        stale = shared_memory.SharedMemory(name=handle)
        stale.close()
        stale.unlink()
    except FileNotFoundError:
        pass


@dataclass
class MpChannel:
    """The queue pair connecting one explorer process to the learner.

    ``headers`` carries (explorer_name, body_handle, metadata) tuples —
    lightweight, like the paper's ID queues; ``weights`` carries body
    handles of weight snapshots pushed by the learner.  When a
    :class:`SharedSlabPool` is attached, handles are pooled blocks;
    otherwise (and for oversized bodies) they are per-message segment
    names.
    """

    headers: Any = field(default_factory=lambda: mp.Queue())
    weights: Any = field(default_factory=lambda: mp.Queue())
    pool: Optional[SharedSlabPool] = None

    def send_rollout(
        self, explorer: str, body: Any, metadata: Optional[Dict] = None
    ) -> Dict[str, Any]:
        """Ship one rollout; returns the trace context stamped into it.

        Every rollout carries ``metadata[TRACE_META]`` — the header fields
        the hop log reads (trace/span ids, a per-sender seq, source,
        destination, type) — so the learner's ``delivered``/``consumed``
        events join this process's ``sent`` into one cross-process causal
        chain offline.  On one host ``CLOCK_MONOTONIC`` is system-wide, so
        both processes' event timestamps share a timebase.
        """
        handle = write_body(body, self.pool)
        context: Dict[str, Any] = {
            TRACE: new_trace_id(),
            SPAN: new_trace_id(),
            SEQ: next(_MP_SEQ),
            SRC: explorer,
            DST: ["learner"],
            TYPE: MsgType.ROLLOUT,
        }
        stamped = dict(metadata or {})
        stamped[TRACE_META] = context
        emit("sent", f"{explorer}.send", context)
        self.headers.put((explorer, handle, stamped))
        return context

    def receive_rollout(self, timeout: Optional[float] = None) -> Optional[Tuple[str, Any, Dict]]:
        try:
            explorer, handle, metadata = self.headers.get(timeout=timeout)
        except Exception:
            return None
        return explorer, read_body(handle, self.pool), metadata

    def push_weights(self, body: Any) -> None:
        self.weights.put(write_body(body, self.pool))

    def poll_weights(self) -> Optional[Any]:
        """Non-blocking: newest weights if any are queued, else None."""
        latest = None
        while True:
            try:
                handle = self.weights.get_nowait()
            except Exception:
                break
            if latest is not None:
                # An unconsumed older snapshot: free it.
                discard_body(latest, self.pool)
            latest = handle
        if latest is None:
            return None
        return read_body(latest, self.pool)

    def close(self) -> None:
        for queue in (self.headers, self.weights):
            queue.close()
            queue.join_thread()
