"""Pooled shared-memory arena: size-class free lists over long-lived slabs.

Creating and unlinking one ``multiprocessing.shared_memory`` segment per
message is the dominant fixed cost of the SHM data path: every send pays a
``shm_open``/``ftruncate``/``mmap`` round trip plus an ``unlink`` on
release.  The :class:`SlabArena` replaces that churn with a small set of
long-lived segments ("slabs") carved into power-of-two size classes.
Allocation pops a block off the matching free list; release pushes it back
— no syscalls on the steady-state path.

Occupancy is bounded (``capacity_bytes``): when every free list is empty
and growing would exceed the budget, :meth:`alloc` raises
:class:`ArenaExhaustedError` so callers can fall back to a dedicated
segment instead of growing without bound.  Double frees and foreign
handles raise :class:`ArenaError`.  The arena is leak-audited at shutdown
through the same machinery as the object store: :meth:`leak_report` /
:meth:`assert_balanced` mirror :class:`~repro.core.object_store.ObjectStore`.

**Sanitizer.**  Under ``REPRO_RUNTIME_CHECKS=1`` (or ``sanitize=True``)
the arena arms a use-after-free sanitizer for the zero-copy pipeline:

* *generation tags* — every ``(segment, offset)`` location carries a
  monotonically increasing generation; a stale :class:`BlockHandle` from a
  previous incarnation of the block raises :class:`ArenaError` on
  :meth:`view`/:meth:`free` instead of silently aliasing the new tenant;
* *poison-on-free* — freed block bytes are memset to ``0xDB`` so a dangling
  view reads obviously-corrupt data rather than plausible stale payloads;
* *quarantine* — freed blocks sit out ``quarantine_depth`` subsequent
  frees (``REPRO_ARENA_QUARANTINE``) before rejoining the LIFO free list,
  widening the window in which stale handles fault instead of aliasing;
* *view registration* — consumers exporting zero-copy views
  (:meth:`register_export`, or ``deserialize(..., view_registry=...)`` via
  :meth:`export_registry`) make :meth:`free`/:meth:`close` raise while any
  exported view is still alive, instead of leaving it dangling.  The
  object store registers one count-based export per *lease* (a fetched
  body that reads its block in place) and unregisters it just before the
  lease's share drops, so a block freed under a live reader faults here
  even if the store's own share accounting were wrong.

All sanitizer state is behind one ``self._sanitize`` flag; with checks off
the steady-state alloc/free path is unchanged.

**Attach by name.**  A process that learns a :class:`BlockHandle` reads the
block through :func:`attach_segment`, which maps each segment at most once
per process — and not at all when this process created it — and leaves
ownership (the unlink) with the creator.  :func:`create_probe` /
:func:`read_probe` are the one-page check that two processes share the
same shared-memory namespace at all.
"""

from __future__ import annotations

import itertools
import mmap
import os
from collections import deque
from dataclasses import dataclass, replace
from typing import Any, Deque, Dict, List, Optional, Tuple

from .concurrency import make_lock, runtime_checks_enabled
from .errors import ObjectStoreError, RefcountLeakError

try:  # POSIX shared memory without multiprocessing's resource tracker
    import _posixshmem
except ImportError:  # pragma: no cover - platforms without POSIX shm
    _posixshmem = None

_ARENA_COUNTER = itertools.count()

#: segment name -> a view of the whole segment, for every segment a
#: :class:`SlabArena` of this process created and has not dropped
_CREATED: Dict[str, memoryview] = {}
#: the same for segments this process attached by name (:func:`attach_segment`)
_ATTACHED: Dict[str, memoryview] = {}

#: Default size classes: 4 KB … 4 MB in powers of two.
DEFAULT_MIN_BLOCK = 1 << 12
DEFAULT_MAX_BLOCK = 1 << 22
#: Blocks carved per slab per size class.
DEFAULT_SLAB_BLOCKS = 8
#: Default occupancy bound across all slabs (including huge blocks).
DEFAULT_CAPACITY = 1 << 28  # 256 MB

#: Environment knob for the sanitizer's free-list quarantine depth.
QUARANTINE_ENV = "REPRO_ARENA_QUARANTINE"
#: Blocks held back per size class before re-entering the free list.
DEFAULT_QUARANTINE_DEPTH = 4
#: Fill pattern for freed blocks under the sanitizer.
POISON_BYTE = 0xDB


def _drop_segment(segment: Any) -> None:
    """Close + unlink a segment, tolerating still-alive consumer views.

    A caller may hold a (now stale) ``Block.buf`` view when its block is
    freed; ``mmap.close`` then raises ``BufferError``.  The POSIX unlink
    still reclaims the name immediately and the mapping itself dies with
    the last view's garbage collection.
    """
    _CREATED.pop(segment.name, None)
    try:
        segment.close()
    except BufferError:
        # Views still read the mapping: it goes with the last of them.
        # Let go of it here, so a later close() (the segment's own
        # ``__del__``) does not trip over the same views.
        segment._mmap = None
        try:
            segment.close()
        except BufferError:
            pass
    try:
        segment.unlink()
    except FileNotFoundError:  # pragma: no cover - already gone
        pass


class _UntrackedSegment:
    """A new POSIX shared-memory segment with the part of the
    ``SharedMemory`` interface an arena uses (``name``, ``buf``, ``close``,
    ``unlink``), not registered with ``multiprocessing``'s resource
    tracker: no tracker process is started for it, and nothing unlinks it
    if its process dies without closing the arena."""

    def __init__(self, name: str, size: int):
        fd = _posixshmem.shm_open("/" + name, os.O_CREAT | os.O_EXCL | os.O_RDWR, mode=0o600)
        try:
            os.ftruncate(fd, size)
            self._mmap: Optional[mmap.mmap] = mmap.mmap(fd, size)
        except BaseException:
            unlink_segment(name)
            raise
        finally:
            os.close(fd)
        self.name = name
        self.buf: Optional[memoryview] = memoryview(self._mmap)

    def close(self) -> None:
        if self.buf is not None:
            self.buf.release()
            self.buf = None
        if self._mmap is not None:
            self._mmap.close()
            self._mmap = None

    def unlink(self) -> None:
        unlink_segment(self.name)


def attach_segment(name: str) -> memoryview:
    """The whole of shared-memory segment ``name`` as a writable view.

    Each segment is mapped at most once per process: one this process
    created is read through its creator's mapping, and one attached before
    through the first attach.  The mapping is not registered with
    ``multiprocessing``'s resource tracker — the creator owns the segment
    and unlinks it — and stays valid, even after that unlink, for as long
    as any view of it lives.  Raises ``OSError`` if no such segment exists
    (or the platform has no POSIX shared memory).
    """
    view = _CREATED.get(name)
    if view is None:
        view = _ATTACHED.get(name)
    if view is not None:
        return view
    if _posixshmem is None:  # pragma: no cover - platforms without POSIX shm
        raise OSError(f"no POSIX shared memory here to attach {name!r}")
    fd = _posixshmem.shm_open("/" + name, os.O_RDWR, mode=0o600)
    try:
        mapping = mmap.mmap(fd, os.fstat(fd).st_size)
    finally:
        os.close(fd)
    return _ATTACHED.setdefault(name, memoryview(mapping))


def detach_segment(name: str) -> None:
    """Forget an attached segment: its mapping goes once its last view
    does.  A segment this process created is left alone."""
    _ATTACHED.pop(name, None)


#: bytes of the nonce a probe segment holds
PROBE_BYTES = 8


def create_probe() -> Optional[Tuple[str, int]]:
    """A new one-page segment holding a random nonce: ``(name, nonce)``, or
    None where there is no POSIX shared memory.  The caller unlinks it
    (:func:`unlink_segment`) once the peer has looked."""
    if _posixshmem is None:  # pragma: no cover - platforms without POSIX shm
        return None
    name = f"xt-probe-{os.getpid()}-{os.urandom(4).hex()}"
    nonce = os.urandom(PROBE_BYTES)
    fd = _posixshmem.shm_open("/" + name, os.O_CREAT | os.O_EXCL | os.O_RDWR, mode=0o600)
    try:
        os.ftruncate(fd, mmap.PAGESIZE)
        with mmap.mmap(fd, mmap.PAGESIZE) as mapping:
            mapping[:PROBE_BYTES] = nonce
    except BaseException:
        unlink_segment(name)
        raise
    finally:
        os.close(fd)
    return name, int.from_bytes(nonce, "little")


def read_probe(name: str) -> Optional[int]:
    """The nonce in probe segment ``name``, or None if it cannot be read —
    the segment is not in this process's shared-memory namespace.  Maps
    nothing that outlives the call."""
    if _posixshmem is None:  # pragma: no cover - platforms without POSIX shm
        return None
    try:
        fd = _posixshmem.shm_open("/" + name, os.O_RDONLY, mode=0o600)
    except OSError:
        return None
    try:
        with mmap.mmap(fd, PROBE_BYTES, access=mmap.ACCESS_READ) as mapping:
            return int.from_bytes(mapping[:PROBE_BYTES], "little")
    except (OSError, ValueError):
        return None
    finally:
        os.close(fd)


def unlink_segment(name: str) -> None:
    """Remove segment ``name`` from the namespace (gone already: no-op)."""
    if _posixshmem is None:  # pragma: no cover - platforms without POSIX shm
        return
    try:
        _posixshmem.shm_unlink("/" + name)
    except FileNotFoundError:
        pass


class ArenaError(ObjectStoreError):
    """Bad arena usage: double free, foreign handle, closed arena."""


class ArenaExhaustedError(ArenaError):
    """Allocation would exceed the arena's occupancy bound."""


@dataclass(frozen=True)
class BlockHandle:
    """A serializable reference to one arena block.

    ``segment`` is the slab's OS shared-memory name, so any process that
    learns a handle can attach and read the block without copies.  ``size``
    is the usable byte count (the size class, or the exact size for huge
    blocks); ``huge`` marks blocks with a dedicated segment that is
    unlinked on free rather than recycled.  ``generation`` counts how many
    times this location has been recycled — under the sanitizer a handle
    whose generation lags the location's current one is *stale* (its block
    was freed, and possibly reallocated to someone else) and faults fast.
    """

    segment: str
    offset: int
    size: int
    huge: bool = False
    generation: int = 0


@dataclass
class Block:
    """An allocated block: its handle plus a writable view of its memory."""

    handle: BlockHandle
    buf: memoryview

    def release(self) -> None:
        """Drop the view.  Writers release before the reader can free the
        block, so huge-block unlinks never race an exported buffer."""
        self.buf.release()


class SlabArena:
    """Thread-safe slab allocator over shared-memory segments."""

    def __init__(
        self,
        *,
        name: str = "arena",
        min_block: int = DEFAULT_MIN_BLOCK,
        max_block: int = DEFAULT_MAX_BLOCK,
        slab_blocks: int = DEFAULT_SLAB_BLOCKS,
        capacity_bytes: int = DEFAULT_CAPACITY,
        sanitize: Optional[bool] = None,
        quarantine_depth: Optional[int] = None,
        track: bool = True,
    ):
        """``track=False`` creates slabs without ``multiprocessing``'s
        resource tracker (no tracker process; nothing reclaims the slabs of
        a process killed before :meth:`close`)."""
        if min_block < 1 or max_block < min_block:
            raise ArenaError("need 1 <= min_block <= max_block")
        if slab_blocks < 1:
            raise ArenaError("slab_blocks must be >= 1")
        self._track = track or _posixshmem is None
        # The pid keeps OS-level slab names collision-free across processes
        # (the counter alone restarts in forked children).
        self.name = f"{name}-{os.getpid()}-{next(_ARENA_COUNTER)}"
        self._slab_blocks = slab_blocks
        self._capacity_bytes = capacity_bytes
        self._classes: List[int] = []
        size = min_block
        while size < max_block:
            self._classes.append(size)
            size <<= 1
        self._classes.append(max_block)
        self._lock = make_lock(f"{self.name}.freelists")
        #: size class -> free handles (LIFO for cache warmth)
        self._free: Dict[int, List[BlockHandle]] = {
            cls: [] for cls in self._classes
        }
        #: slab segment name -> SharedMemory
        self._slabs: Dict[str, Any] = {}
        #: (segment, offset) -> handle for live allocations
        self._allocated: Dict[Tuple[str, int], BlockHandle] = {}
        self._slab_bytes = 0
        self._allocated_bytes = 0
        self._closed = False
        self.total_alloc = 0
        self.total_free = 0
        self.total_slabs = 0
        self.total_fallback = 0  # exhaustion signals surfaced to callers
        self.total_huge = 0  # huge-block allocations (dedicated segments)
        # -- sanitizer (opt-in; defaults follow REPRO_RUNTIME_CHECKS) --------
        self._sanitize = runtime_checks_enabled() if sanitize is None else sanitize
        if quarantine_depth is None:
            quarantine_depth = int(
                os.environ.get(QUARANTINE_ENV, DEFAULT_QUARANTINE_DEPTH)
            )
        self._quarantine_depth = max(0, quarantine_depth)
        #: size class -> freed blocks sitting out their quarantine window
        self._quarantine: Dict[int, Deque[BlockHandle]] = {
            cls: deque() for cls in self._classes
        }
        #: (segment, offset) -> current generation of that location
        self._generations: Dict[Tuple[str, int], int] = {}
        #: (segment, offset) -> export token -> registered view (None: counted)
        self._exports: Dict[Tuple[str, int], Dict[int, Optional[memoryview]]] = {}
        self._export_tokens = itertools.count(1)
        self.stale_handle_faults = 0  # generation mismatches caught

    # -- sizing ---------------------------------------------------------------
    def _size_class(self, nbytes: int) -> int:
        for cls in self._classes:
            if nbytes <= cls:
                return cls
        return -1  # huge

    @property
    def max_block(self) -> int:
        return self._classes[-1]

    # -- allocation -----------------------------------------------------------
    def alloc(self, nbytes: int) -> Block:
        """Reserve a block of at least ``nbytes``; raises
        :class:`ArenaExhaustedError` when growth would exceed capacity."""
        if nbytes < 1:
            nbytes = 1
        cls = self._size_class(nbytes)
        with self._lock:
            if self._closed:
                raise ArenaError(f"arena {self.name!r} is closed")
            if cls == -1:
                handle = self._alloc_huge(nbytes)
                self.total_huge += 1
            else:
                free = self._free[cls]
                if not free:
                    quarantine = self._quarantine[cls]
                    if quarantine:
                        # Quarantine delays reuse; it never costs capacity.
                        # Recycle the oldest held-back block rather than
                        # growing a new slab at steady state.
                        free.append(quarantine.popleft())
                    else:
                        self._grow(cls)
                    free = self._free[cls]
                handle = free.pop()
                if self._sanitize:
                    # Recycled handles carry the generation they were freed
                    # at; stamp the location's current generation so this
                    # tenant's handle is the only valid one.
                    current = self._generations.get(
                        (handle.segment, handle.offset), 0
                    )
                    if handle.generation != current:
                        handle = replace(handle, generation=current)
            self._allocated[(handle.segment, handle.offset)] = handle
            self._allocated_bytes += handle.size
            self.total_alloc += 1
            segment = self._slabs[handle.segment]
        view = memoryview(segment.buf)[handle.offset : handle.offset + handle.size]
        return Block(handle, view)

    def _new_segment(self, nbytes: int) -> Any:
        name = f"xt-{self.name}-{self.total_slabs}"
        self.total_slabs += 1
        if self._track:
            from multiprocessing import shared_memory  # local import: optional path

            segment = shared_memory.SharedMemory(name=name, create=True, size=nbytes)
        else:
            segment = _UntrackedSegment(name, nbytes)
        _CREATED[segment.name] = segment.buf
        return segment

    def _grow(self, cls: int) -> None:
        """Carve one new slab for size class ``cls`` (lock held)."""
        slab_size = cls * self._slab_blocks
        if self._slab_bytes + slab_size > self._capacity_bytes:
            self.total_fallback += 1
            raise ArenaExhaustedError(
                f"arena {self.name!r} exhausted: {self._slab_bytes}B of slabs "
                f"+ {slab_size}B would exceed the {self._capacity_bytes}B bound"
            )
        segment = self._new_segment(slab_size)
        self._slabs[segment.name] = segment
        self._slab_bytes += slab_size
        free = self._free[cls]
        for index in range(self._slab_blocks):
            free.append(BlockHandle(segment.name, index * cls, cls))

    def _alloc_huge(self, nbytes: int) -> BlockHandle:
        """One dedicated segment for an over-max-class body (lock held)."""
        if self._slab_bytes + nbytes > self._capacity_bytes:
            self.total_fallback += 1
            raise ArenaExhaustedError(
                f"arena {self.name!r} exhausted: huge block of {nbytes}B "
                f"would exceed the {self._capacity_bytes}B bound"
            )
        segment = self._new_segment(nbytes)
        self._slabs[segment.name] = segment
        self._slab_bytes += nbytes
        return BlockHandle(segment.name, 0, nbytes, huge=True)

    # -- access ----------------------------------------------------------------
    def view(self, handle: BlockHandle) -> memoryview:
        """Writable view of a live block (readers slice what they need)."""
        key = (handle.segment, handle.offset)
        with self._lock:
            if self._closed:
                raise ArenaError(f"arena {self.name!r} is closed")
            if key not in self._allocated:
                raise ArenaError(f"unknown or freed block {handle}")
            if self._sanitize:
                self._check_generation(handle, key, "view")
            segment = self._slabs[handle.segment]
        return memoryview(segment.buf)[handle.offset : handle.offset + handle.size]

    def free(self, handle: BlockHandle) -> None:
        """Return a block to its free list (or unlink a huge block).

        Under the sanitizer a stale-generation handle and a free with live
        exported views both raise :class:`ArenaError` — the caller is about
        to recycle memory somebody can still read.
        """
        unlink = None
        key = (handle.segment, handle.offset)
        with self._lock:
            if self._closed:
                raise ArenaError(f"arena {self.name!r} is closed")
            if self._sanitize and key in self._allocated:
                self._check_generation(handle, key, "free")
                self._check_exports(key)
            live = self._allocated.pop(key, None)
            if live is None:
                raise ArenaError(
                    f"double free or foreign handle on arena {self.name!r}: {handle}"
                )
            self._allocated_bytes -= live.size
            self.total_free += 1
            if self._sanitize:
                self._generations[key] = self._generations.get(key, 0) + 1
                self._exports.pop(key, None)
                self._poison(live)
            if live.huge:
                unlink = self._slabs.pop(live.segment)
                self._slab_bytes -= live.size
            elif self._sanitize and self._quarantine_depth > 0:
                quarantine = self._quarantine[live.size]
                quarantine.append(live)
                while len(quarantine) > self._quarantine_depth:
                    self._free[live.size].append(quarantine.popleft())
            else:
                self._free[live.size].append(live)
        if unlink is not None:
            _drop_segment(unlink)

    # -- sanitizer internals (lock held) ----------------------------------------
    def _check_generation(
        self, handle: BlockHandle, key: Tuple[str, int], op: str
    ) -> None:
        current = self._generations.get(key, 0)
        if handle.generation != current:
            self.stale_handle_faults += 1
            raise ArenaError(
                f"stale handle on arena {self.name!r}: {op} of {handle} at "
                f"generation {handle.generation}, but the block is at "
                f"generation {current} (freed and reallocated since)"
            )

    def _check_exports(self, key: Tuple[str, int]) -> None:
        live = self._live_exports(key)
        if live:
            raise ArenaError(
                f"releasing block {key[0]}:{key[1]} on arena {self.name!r} "
                f"with {live} live exported view(s) — release the views "
                "before freeing the block"
            )

    def _live_exports(self, key: Tuple[str, int]) -> int:
        """Count still-alive registered views, pruning released ones."""
        entries = self._exports.get(key)
        if not entries:
            return 0
        live = 0
        for token, view in list(entries.items()):
            if view is None:
                live += 1  # count-based export: live until unregistered
                continue
            try:
                view.nbytes  # noqa: B018 - released views raise ValueError
            except ValueError:
                del entries[token]
            else:
                live += 1
        if not entries:
            self._exports.pop(key, None)
        return live

    def _poison(self, live: BlockHandle) -> None:
        segment = self._slabs.get(live.segment)
        if segment is None:  # pragma: no cover - defensive
            return
        try:
            memoryview(segment.buf)[
                live.offset : live.offset + live.size
            ] = bytes([POISON_BYTE]) * live.size
        except (ValueError, BufferError):  # pragma: no cover - defensive
            pass

    # -- view export registration ------------------------------------------------
    def register_export(
        self, handle: BlockHandle, view: Optional[memoryview] = None
    ) -> int:
        """Record an exported zero-copy view of ``handle``'s block.

        Returns a token for :meth:`unregister_export`.  With a ``view`` the
        registration expires by itself once the view is ``release()``-d;
        without one it is a plain count the exporter must balance — the
        form for a reader whose views die by garbage collection (a store
        lease: holding the view here would keep it alive for ever).  While
        any registered view is alive, :meth:`free` and :meth:`close` raise
        instead of recycling the memory under the reader.  No-op (token 0)
        when the sanitizer is off.
        """
        if not self._sanitize:
            return 0
        key = (handle.segment, handle.offset)
        with self._lock:
            if self._closed:
                raise ArenaError(f"arena {self.name!r} is closed")
            if key not in self._allocated:
                raise ArenaError(f"unknown or freed block {handle}")
            self._check_generation(handle, key, "export")
            token = next(self._export_tokens)
            self._exports.setdefault(key, {})[token] = view
            return token

    def unregister_export(self, handle: BlockHandle, token: int) -> None:
        """Balance a :meth:`register_export` (idempotent, closed-safe)."""
        if not self._sanitize or token == 0:
            return
        key = (handle.segment, handle.offset)
        with self._lock:
            entries = self._exports.get(key)
            if entries is not None:
                entries.pop(token, None)
                if not entries:
                    self._exports.pop(key, None)

    def export_registry(self, handle: BlockHandle) -> "ExportRegistry":
        """A ``deserialize(..., view_registry=...)`` adapter for ``handle``.

        Every read-only buffer the deserializer creates over this block is
        registered, so freeing the block while any of those views is alive
        raises instead of dangling.
        """
        return ExportRegistry(self, handle)

    # -- audit -----------------------------------------------------------------
    def leak_report(self) -> List[Tuple[str, int, int]]:
        """``(segment:offset, count, size)`` per live block — the
        object-store audit shape, so the same tooling inspects both.  The
        count charges a huge block its dedicated segment *and* its block
        (it leaks both on a missed free); pooled blocks count 1.
        """
        with self._lock:
            return [
                (f"{segment}:{offset}", 2 if handle.huge else 1, handle.size)
                for (segment, offset), handle in sorted(self._allocated.items())
            ]

    def assert_balanced(self, context: str = "") -> None:
        leaks = self.leak_report()
        if not leaks:
            return
        where = f" at {context}" if context else ""
        if self._sanitize:
            # Distinguish the actionable case: the block is unfreed
            # *because* a consumer still holds a zero-copy view of it.
            with self._lock:
                pinned = [
                    key for key in list(self._exports) if self._live_exports(key)
                ]
            if pinned:
                names = ", ".join(f"{seg}:{off}" for seg, off in pinned[:10])
                raise ArenaError(
                    f"arena {self.name!r}{where}: {len(pinned)} block(s) "
                    f"pinned by live exported view(s): {names} — release "
                    "the views before shutdown"
                )
        detail = ", ".join(
            f"{block_id} ({nbytes}B)" for block_id, _, nbytes in leaks[:10]
        )
        more = "" if len(leaks) <= 10 else f" … and {len(leaks) - 10} more"
        raise RefcountLeakError(
            f"arena {self.name!r} block imbalance{where}: {len(leaks)} "
            f"unfreed block(s): {detail}{more}"
        )

    def stats(self) -> Dict[str, int]:
        """Occupancy gauges for telemetry sampling.

        ``free_blocks`` includes quarantined blocks — they are free
        capacity, just not immediately reusable; ``quarantined_blocks``
        breaks them out.  ``huge_blocks`` counts live dedicated-segment
        allocations (also in ``allocated_blocks``); ``total_huge`` is the
        cumulative huge-allocation counter.
        """
        with self._lock:
            quarantined = sum(len(q) for q in self._quarantine.values())
            return {
                "allocated_blocks": len(self._allocated),
                "allocated_bytes": self._allocated_bytes,
                "slab_bytes": self._slab_bytes,
                "capacity_bytes": self._capacity_bytes,
                "free_blocks": sum(len(free) for free in self._free.values())
                + quarantined,
                "quarantined_blocks": quarantined,
                "huge_blocks": sum(
                    1 for handle in self._allocated.values() if handle.huge
                ),
                "total_huge": self.total_huge,
                "live_exports": sum(len(views) for views in self._exports.values()),
                "stale_handle_faults": self.stale_handle_faults,
            }

    # -- lifecycle --------------------------------------------------------------
    def close(self) -> None:
        """Unlink every slab.  Idempotent; live blocks become invalid.

        Under the sanitizer, closing while registered zero-copy views are
        still alive raises — those views would dangle over unlinked
        segments otherwise.
        """
        with self._lock:
            if self._closed:
                return
            if self._sanitize:
                live = sum(self._live_exports(key) for key in list(self._exports))
                if live:
                    raise ArenaError(
                        f"closing arena {self.name!r} with {live} live "
                        "exported view(s) — consumers must release "
                        "zero-copy views before shutdown"
                    )
            self._closed = True
            slabs = list(self._slabs.values())
            self._slabs.clear()
            self._allocated.clear()
            for free in self._free.values():
                free.clear()
            for quarantine in self._quarantine.values():
                quarantine.clear()
            self._exports.clear()
            self._slab_bytes = 0
            self._allocated_bytes = 0
        for segment in slabs:
            _drop_segment(segment)

    @property
    def sanitizing(self) -> bool:
        """Whether the use-after-free sanitizer is armed."""
        return self._sanitize

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed


class ExportRegistry:
    """Registers zero-copy views of one block as they are created.

    The shape :func:`repro.core.serialization.deserialize` expects from its
    ``view_registry`` argument: one ``register(view)`` per read-only buffer
    it exports.  Registered views expire automatically when released; the
    arena refuses to free or close under any that are still alive.
    """

    __slots__ = ("_arena", "_handle", "tokens")

    def __init__(self, arena: SlabArena, handle: BlockHandle):
        self._arena = arena
        self._handle = handle
        self.tokens: List[int] = []

    def register(self, view: memoryview) -> None:
        self.tokens.append(self._arena.register_export(self._handle, view))

    def release(self) -> None:
        """Drop every registration without waiting for view GC."""
        for token in self.tokens:
            self._arena.unregister_export(self._handle, token)
        self.tokens.clear()
