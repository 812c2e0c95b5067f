"""Object stores backing the shared-memory communicator.

The broker's shared-memory communicator keeps message bodies inside an
object store so that cross-process communication is zero-copy: only object
IDs travel through queues (§3.2.1).  Two implementations are provided:

* :class:`InMemoryObjectStore` — bodies stored by reference in one address
  space.  Used by the default thread-backed deployment; "zero-copy" is
  literal because consumers receive the same object.  Reference counting
  mirrors the broadcast fan-out: a body inserted for N destinations is
  freed after N fetch-and-release cycles.

* :class:`SharedMemoryObjectStore` — bodies serialized into
  ``multiprocessing.shared_memory``, the closest stdlib analogue of the
  paper's Arrow/Plasma store, usable across real OS processes.  Bodies are
  scatter-gathered directly into blocks of a pooled
  :class:`~repro.core.arena.SlabArena` (no per-message segment creation, no
  intermediate ``bytes``); the legacy one-segment-per-message path remains
  as the arena-exhaustion fallback and as the ``use_arena=False`` baseline
  the ablation benchmarks compare against.  A large body is fetched as a
  *lease*: read-only arrays over its block, which the body pins until its
  last array dies (the paper's Plasma buffers, §4.1) — see
  :data:`LEASE_MIN_BYTES`.

Both ``put`` methods accept an optional precomputed
:class:`~repro.core.serialization.Frame` so senders that already framed the
body (to size its header) never pickle it a second time.
"""

from __future__ import annotations

import itertools
import logging
import time
import weakref
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Tuple, Union

from .arena import ArenaError, BlockHandle, SlabArena
from .compression import _HDR_RAW, _HDR_ZLIB, CompressionPolicy, disabled_policy
from .concurrency import make_lock
from .errors import ObjectStoreError, RefcountLeakError, UnknownObjectError
from .serialization import Frame, deserialize, make_frame, serialize, view_holder

_OBJECT_COUNTER = itertools.count()

_LOG = logging.getLogger(__name__)


def _new_object_id(prefix: str) -> str:
    return f"{prefix}-{next(_OBJECT_COUNTER)}"


@dataclass
class _Entry:
    body: Any
    refcount: int
    nbytes: int
    compressed: bool = False


class ObjectStore:
    """Interface: insert a body for N consumers, fetch by ID, release.

    ``nbytes`` is an optional caller-supplied payload size used purely for
    cost accounting when the store itself does not serialize.  ``frame`` is
    an optional predigested scatter-gather descriptor of ``body`` — stores
    that serialize reuse it instead of re-framing the same object.
    """

    def put(
        self,
        body: Any,
        refcount: int = 1,
        nbytes: Optional[int] = None,
        frame: Optional[Frame] = None,
    ) -> str:
        raise NotImplementedError

    def get(self, object_id: str) -> Any:
        raise NotImplementedError

    def release(self, object_id: str) -> None:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def close(self, audit: bool = False) -> None:
        """Free any OS-backed resources (segments, arena slabs).

        A no-op for stores that only hold Python references; called by the
        communicator when its broker stops.  Must be idempotent.
        """

    def leak_report(self) -> List[Tuple[str, int, int]]:
        """``(object_id, refcount, nbytes)`` for every unreleased entry.

        At a clean shutdown — every consumer drained its queues and released
        what it fetched — this is empty.  Anything left is a refcount leak.
        """
        raise NotImplementedError

    def assert_balanced(self, context: str = "") -> None:
        """Raise :class:`RefcountLeakError` unless all refcounts balanced.

        This is the shutdown hook the runtime refcount auditor drives (see
        :func:`repro.analysis.runtime.audit_object_store`); the broker calls
        it at :meth:`~repro.core.broker.Broker.stop` when runtime checks are
        enabled.
        """
        leaks = self.leak_report()
        if not leaks:
            return
        where = f" at {context}" if context else ""
        detail = ", ".join(
            f"{object_id} (refcount={refcount}, {nbytes}B)"
            for object_id, refcount, nbytes in leaks[:10]
        )
        more = "" if len(leaks) <= 10 else f" … and {len(leaks) - 10} more"
        raise RefcountLeakError(
            f"object store refcount imbalance{where}: {len(leaks)} "
            f"unreleased object(s): {detail}{more}"
        )


class InMemoryObjectStore(ObjectStore):
    """Reference-passing store for thread-backed deployments.

    When ``copy_on_fetch`` is true, bodies take a serialize/deserialize round
    trip on ``get`` so consumers cannot alias the producer's object — this
    models the copy semantics of a real cross-process store and is what the
    data-transmission benchmarks use to charge realistic costs.
    """

    def __init__(
        self,
        *,
        copy_on_fetch: bool = False,
        compression: Optional[CompressionPolicy] = None,
        capacity_bytes: Optional[int] = None,
        copy_bandwidth: Optional[float] = None,
    ):
        self._entries: Dict[str, _Entry] = {}
        self._lock = make_lock("object_store.in_memory")
        self._copy_on_fetch = copy_on_fetch
        self._compression = compression or disabled_policy()
        self._capacity_bytes = capacity_bytes
        if copy_bandwidth is not None and copy_bandwidth <= 0:
            raise ObjectStoreError("copy_bandwidth must be positive")
        self._copy_bandwidth = copy_bandwidth
        self._used_bytes = 0
        self._total_refcounts = 0
        self.total_put = 0
        self.total_get = 0

    def _charge_copy(self, nbytes: int) -> None:
        """Model serialize/deserialize memory-bandwidth cost.

        Real pickling under CPython holds the GIL, which would serialize the
        very copies whose overlap the paper studies.  When ``copy_bandwidth``
        is set (bytes/s), the store charges the modelled copy time as a
        sleep — which releases the GIL, letting sender/receiver threads
        overlap exactly the way out-of-GIL memcpy/compression do in the real
        system.  Benchmarks set the same bandwidth for every framework under
        comparison; unit tests leave it off.
        """
        if self._copy_bandwidth is not None and nbytes > 0:
            time.sleep(nbytes / self._copy_bandwidth)

    def put(
        self,
        body: Any,
        refcount: int = 1,
        nbytes: Optional[int] = None,
        frame: Optional[Frame] = None,
    ) -> str:
        if refcount < 1:
            raise ObjectStoreError(f"refcount must be >= 1, got {refcount}")
        if self._copy_on_fetch:
            blob = frame.to_bytes() if frame is not None else serialize(body)
            framed, compressed = self._compression.encode(blob)
            stored: Any = framed
            nbytes = len(framed)
            self._charge_copy(nbytes)
        else:
            # Reference-passing mode: no real serialization, but still charge
            # the modelled copy cost for the declared payload size so that
            # comparisons against RPC-based baselines are apples-to-apples.
            stored = body
            compressed = False
            nbytes = int(nbytes or 0)
            self._charge_copy(nbytes)
        object_id = _new_object_id("obj")
        with self._lock:
            if (
                self._capacity_bytes is not None
                and self._used_bytes + nbytes > self._capacity_bytes
            ):
                raise ObjectStoreError(
                    f"object store over capacity: {self._used_bytes + nbytes} "
                    f"> {self._capacity_bytes} bytes"
                )
            self._entries[object_id] = _Entry(stored, refcount, nbytes, compressed)
            self._used_bytes += nbytes
            self._total_refcounts += refcount
            self.total_put += 1
        return object_id

    def get(self, object_id: str) -> Any:
        with self._lock:
            entry = self._entries.get(object_id)
            if entry is None:
                raise UnknownObjectError(object_id)
            self.total_get += 1
            body = entry.body
            nbytes = entry.nbytes
        if self._copy_on_fetch:
            self._charge_copy(nbytes)
            return deserialize(self._compression.decode(body))
        self._charge_copy(nbytes)
        return body

    def release(self, object_id: str) -> None:
        with self._lock:
            entry = self._entries.get(object_id)
            if entry is None:
                raise UnknownObjectError(object_id)
            entry.refcount -= 1
            self._total_refcounts -= 1
            if entry.refcount <= 0:
                del self._entries[object_id]
                self._used_bytes -= entry.nbytes

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def leak_report(self) -> List[Tuple[str, int, int]]:
        with self._lock:
            return [
                (object_id, entry.refcount, entry.nbytes)
                for object_id, entry in sorted(self._entries.items())
            ]

    @property
    def used_bytes(self) -> int:
        with self._lock:
            return self._used_bytes

    @property
    def outstanding_refcounts(self) -> int:
        """Sum of refcounts across live entries, maintained incrementally.

        O(1) so the telemetry sampler can poll it without scanning the store
        under its lock (``leak_report`` contends with the data path).
        """
        with self._lock:
            return self._total_refcounts


#: Where a SHM entry's bytes live: an arena block or a dedicated segment.
_Location = Tuple[str, Union[BlockHandle, str]]
_LOC_ARENA = "arena"
_LOC_SEGMENT = "segment"

#: Stored size from which ``get`` leases an arena block instead of copying
#: out of it.  A lease costs a fixed few microseconds (a share, a holder, a
#: finalizer, a reap) where a copy-out costs per byte; the put/get/release
#: break-even table in docs/PERFORMANCE.md puts the crossing between
#: 64 KiB and 256 KiB on the reference box.
LEASE_MIN_BYTES = 256 * 1024

#: One lease: (object ID, its block, the sanitizer's export token).
_Lease = Tuple[str, BlockHandle, int]


class SharedMemoryObjectStore(ObjectStore):
    """Object store over ``multiprocessing.shared_memory``.

    The fast path scatter-gathers each body's frame directly into a pooled
    :class:`~repro.core.arena.SlabArena` block — one raw-prefix byte plus
    the frame segments, no intermediate ``bytes`` object, no per-message
    segment creation.  Bodies the compression policy wants compressed are
    materialized once for the codec; arena exhaustion (or
    ``use_arena=False``) falls back to the legacy dedicated-segment path.
    The creating process owns block/segment reclamation, driven by the
    refcounts it tracks.

    **Leases.**  ``get`` on an arena entry of at least
    :data:`LEASE_MIN_BYTES` does not copy: the body comes back as read-only
    arrays over the block and holds one more share of the entry, dropped
    when its last array dies.  The block is freed when destination shares
    and leases are both gone, so a consumer's ``release`` right after
    ``get`` never recycles memory somebody reads, and an N-way broadcast is
    one write and N views.  A lease is a share like any other: it shows in
    ``outstanding_refcounts``, ``leak_report()`` and the ``close`` audit.
    Smaller, compressed and overflow-segment entries are copied out —
    writable, independent, no share.
    """

    def __init__(
        self,
        *,
        compression: Optional[CompressionPolicy] = None,
        use_arena: bool = True,
        arena: Optional[SlabArena] = None,
    ):
        from multiprocessing import shared_memory  # local import: optional path

        self._shared_memory = shared_memory
        self._compression = compression or disabled_policy()
        self._refcounts: Dict[str, int] = {}
        self._sizes: Dict[str, int] = {}
        self._locations: Dict[str, _Location] = {}
        self._total_refcounts = 0
        self._used_bytes = 0
        #: leases whose body has died.  The release hook only appends here:
        #: it can run inside the cyclic GC on a thread that already holds
        #: this store's or the arena's lock, so it must take neither.
        self._expired: Deque[_Lease] = deque()
        self._lock = make_lock("object_store.shm")
        if arena is not None:
            self._arena: Optional[SlabArena] = arena
        elif use_arena:
            self._arena = SlabArena(name="store")
        else:
            self._arena = None
        self.total_arena_put = 0
        self.total_segment_put = 0
        #: segment-path puts forced by arena exhaustion specifically — the
        #: silent-degradation signal (total_segment_put also counts bodies
        #: that *chose* the segment path: compressed, or ``use_arena=False``)
        self.total_overflow_put = 0
        self._overflow_warned = False

    @property
    def arena(self) -> Optional[SlabArena]:
        return self._arena

    def arena_stats(self) -> Dict[str, int]:
        """Occupancy gauges for the telemetry sampler (empty: arena off)."""
        if self._arena is None:
            return {}
        self._reap()
        return self._arena.stats()

    # -- write paths --------------------------------------------------------
    def _write_arena(self, frame: Frame) -> Optional[Tuple[BlockHandle, int]]:
        """Scatter-gather ``frame`` into an arena block (None: fall back)."""
        assert self._arena is not None
        total = 1 + frame.nbytes  # raw-compression prefix + frame
        try:
            block = self._arena.alloc(total)
        except ArenaError:
            return None  # exhausted (or closed): dedicated-segment fallback
        block.buf[0:1] = _HDR_RAW
        frame.serialize_into(block.buf[1:total])
        block.release()  # no exported view may outlive the block (huge unlink)
        return block.handle, total

    def _write_segment(self, framed: bytes) -> str:
        """Legacy path: one dedicated segment per body."""
        name = _new_object_id("xtshm")
        segment = self._shared_memory.SharedMemory(
            name=name, create=True, size=max(1, len(framed))
        )
        try:
            segment.buf[: len(framed)] = framed
        finally:
            segment.close()
        return name

    def put(
        self,
        body: Any,
        refcount: int = 1,
        nbytes: Optional[int] = None,
        frame: Optional[Frame] = None,
    ) -> str:
        del nbytes  # the real serialization below defines the size
        if refcount < 1:
            raise ObjectStoreError(f"refcount must be >= 1, got {refcount}")
        self._reap()  # before the alloc: an expired lease's block is reusable
        if frame is None:
            frame = make_frame(body)
        location: Optional[_Location] = None
        total = 0
        wanted_arena = self._arena is not None and not self._compression.should_compress(
            frame.nbytes
        )
        if wanted_arena:
            written = self._write_arena(frame)
            if written is not None:
                handle, total = written
                location = (_LOC_ARENA, handle)
                self.total_arena_put += 1
        if location is None:
            if wanted_arena:
                # Arena exhausted: degrade loudly, not silently — the
                # per-message segment path pays the full shm_open/unlink
                # round trip the arena exists to avoid.
                self.total_overflow_put += 1
                if not self._overflow_warned:
                    self._overflow_warned = True
                    _LOG.warning(
                        "shared-memory store: arena exhausted, falling back "
                        "to per-message overflow segments (%dB body); "
                        "counted in total_overflow_put from here on",
                        frame.nbytes,
                    )
            framed, _ = self._compression.encode(frame.to_bytes())
            total = len(framed)
            location = (_LOC_SEGMENT, self._write_segment(framed))
            self.total_segment_put += 1
        object_id = _new_object_id("xtobj")
        with self._lock:
            self._refcounts[object_id] = refcount
            self._sizes[object_id] = total
            self._locations[object_id] = location
            self._total_refcounts += refcount
            self._used_bytes += total
        return object_id

    # -- read path ----------------------------------------------------------
    def get(self, object_id: str) -> Any:
        self._reap()
        with self._lock:
            size = self._sizes.get(object_id)
            location = self._locations.get(object_id)
            if size is None or location is None:
                raise UnknownObjectError(object_id)
            kind, where = location
            leased = kind == _LOC_ARENA and size >= LEASE_MIN_BYTES
            if leased:
                # The body's share, taken before the lock drops: the
                # caller's release() can come right after this get.
                self._refcounts[object_id] += 1
                self._total_refcounts += 1
        if kind == _LOC_ARENA:
            assert self._arena is not None and isinstance(where, BlockHandle)
            if leased:
                try:
                    holder = view_holder(self._arena.view(where)[:size])
                    # Count-based export (registering the view itself would
                    # keep the holder alive for ever); _reap balances it.
                    token = self._arena.register_export(where)
                except BaseException:
                    self._expired.append((object_id, where, 0))  # share back
                    raise
                weakref.finalize(
                    holder, self._expired.append, (object_id, where, token)
                )
                # Arena entries are always raw (_write_arena): skip the prefix.
                return deserialize(memoryview(holder)[1:], copy=False)
            # Pin the block for the duration of the decode: a concurrent
            # release() of the final refcount now raises in the releasing
            # thread (sanitizer mode) instead of recycling memory we are
            # still parsing.
            token = self._arena.register_export(where)
            try:
                view = self._arena.view(where)[:size]
                return self._decode_view(view)
            finally:
                self._arena.unregister_export(where, token)
        assert isinstance(where, str)
        try:
            segment = self._shared_memory.SharedMemory(name=where)
        except FileNotFoundError:
            raise UnknownObjectError(object_id) from None
        try:
            return self._decode_view(memoryview(segment.buf)[:size])
        finally:
            segment.close()

    def _decode_view(self, view: memoryview) -> Any:
        """Deserialize a framed body straight from shared memory.

        Raw bodies skip the contiguous ``decode`` copy entirely — the
        deserializer parses the view in place and copies only the array
        buffers (mandatory here: this is the copy-out path, whose bodies
        hold no share, so the block is recycled after release).
        """
        prefix = bytes(view[0:1])
        if prefix == _HDR_RAW:
            return deserialize(view[1:], copy=True)
        if prefix == _HDR_ZLIB:
            return deserialize(self._compression.decode(bytes(view)))
        raise ObjectStoreError(f"unknown compression frame prefix {prefix!r}")

    # -- release ------------------------------------------------------------
    def release(self, object_id: str) -> None:
        self._reap()
        self._drop_share(object_id)

    def _reap(self) -> None:
        """Drop the share of every lease whose body has died.

        Every public call starts here, so a block is back on its free list
        by the next store call after its last reader let go, and the audits
        (``leak_report``, ``outstanding_refcounts``, ``close``) read exact
        numbers.
        """
        expired = self._expired
        while expired:
            try:
                object_id, where, token = expired.popleft()
            except IndexError:  # another thread reaped it first
                return
            assert self._arena is not None
            self._arena.unregister_export(where, token)
            try:
                self._drop_share(object_id)
            except UnknownObjectError:
                pass  # close() emptied the store under a live lease

    def _drop_share(self, object_id: str) -> None:
        location: Optional[_Location] = None
        with self._lock:
            if object_id not in self._refcounts:
                raise UnknownObjectError(object_id)
            self._refcounts[object_id] -= 1
            self._total_refcounts -= 1
            if self._refcounts[object_id] <= 0:
                del self._refcounts[object_id]
                self._used_bytes -= self._sizes.pop(object_id)
                location = self._locations.pop(object_id)
        if location is None:
            return
        kind, where = location
        if kind == _LOC_ARENA:
            assert self._arena is not None and isinstance(where, BlockHandle)
            self._arena.free(where)
            return
        assert isinstance(where, str)
        try:
            segment = self._shared_memory.SharedMemory(name=where)
        except FileNotFoundError:
            return
        segment.close()
        segment.unlink()

    def __len__(self) -> int:
        self._reap()
        with self._lock:
            return len(self._refcounts)

    @property
    def outstanding_refcounts(self) -> int:
        """Destination shares plus live leases, maintained incrementally."""
        self._reap()
        with self._lock:
            return self._total_refcounts

    @property
    def used_bytes(self) -> int:
        self._reap()
        with self._lock:
            return self._used_bytes

    def leak_report(self) -> List[Tuple[str, int, int]]:
        self._reap()
        with self._lock:
            return [
                (object_id, refcount, self._sizes.get(object_id, 0))
                for object_id, refcount in sorted(self._refcounts.items())
            ]

    def close(self, audit: bool = False) -> None:
        """Free every remaining entry and the arena's slabs.

        With ``audit`` the arena's block accounting is checked first —
        after all refcounts were balanced, every arena block must have been
        freed, or the store leaked slab space.  A body still holding a
        lease makes the sanitizer's arena refuse to close.
        """
        self._reap()
        with self._lock:
            locations = list(self._locations.values())
            self._refcounts.clear()
            self._sizes.clear()
            self._locations.clear()
            self._total_refcounts = 0
            self._used_bytes = 0
        for kind, where in locations:
            if kind != _LOC_SEGMENT:
                continue
            assert isinstance(where, str)
            try:
                segment = self._shared_memory.SharedMemory(name=where)
            except FileNotFoundError:
                continue
            segment.close()
            segment.unlink()
        if self._arena is not None:
            if audit and not locations:
                self._arena.assert_balanced(context="store close")
            self._arena.close()
