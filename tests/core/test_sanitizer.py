"""Arena sanitizer: use-after-free detection for the zero-copy pipeline.

Everything here runs with the sanitizer armed (the suite-wide
``REPRO_RUNTIME_CHECKS=1`` from ``conftest.py``, or explicit
``sanitize=True``): generation tags, poison-on-free, free-list
quarantine, and exported-view registration.  The point of each test is
that a lifetime bug raises *deterministically* instead of silently
reading recycled memory into a training batch.
"""

import sys

import numpy as np
import pytest

from repro.core.arena import (
    POISON_BYTE,
    ArenaError,
    SlabArena,
)
from repro.core.communicator import ShareMemCommunicator
from repro.core.object_store import SharedMemoryObjectStore
from repro.core.serialization import deserialize, serialize


pytestmark = pytest.mark.skipif(
    sys.platform == "win32", reason="POSIX shared memory semantics assumed"
)


@pytest.fixture
def arena():
    instance = SlabArena(
        name="sanitized", min_block=64, max_block=1024, slab_blocks=4,
        sanitize=True,
    )
    yield instance
    if not instance.closed:
        instance.close()


class TestGenerationTags:
    def test_injected_use_after_free_raises_deterministically(self):
        # The acceptance scenario: a stale handle from a freed block must
        # fault on every run — never read the next tenant's data.
        arena = SlabArena(
            name="uaf", min_block=64, max_block=1024, slab_blocks=4,
            sanitize=True, quarantine_depth=0,
        )
        try:
            block = arena.alloc(64)
            stale = block.handle
            block.release()
            arena.free(stale)
            # Same location is recycled to a new tenant (LIFO, depth 0)...
            tenant = arena.alloc(64)
            assert (tenant.handle.segment, tenant.handle.offset) == (
                stale.segment, stale.offset
            )
            # ...so the stale handle is one generation behind: hard fault.
            with pytest.raises(ArenaError, match="stale handle"):
                arena.view(stale)
            with pytest.raises(ArenaError, match="stale handle"):
                arena.free(stale)
            assert arena.stats()["stale_handle_faults"] == 2
            tenant.release()
            arena.free(tenant.handle)
        finally:
            arena.close()

    def test_quarantined_handle_rejected_before_reuse(self, arena):
        block = arena.alloc(64)
        handle = block.handle
        block.release()
        arena.free(handle)
        # While the block sits in quarantine it is not allocated at all.
        with pytest.raises(ArenaError, match="unknown or freed"):
            arena.view(handle)

    def test_generation_survives_quarantine_cycle(self):
        arena = SlabArena(
            name="gen", min_block=64, max_block=64, slab_blocks=2,
            sanitize=True, quarantine_depth=1,
        )
        try:
            handles = []
            for _ in range(6):  # several free/realloc cycles per location
                block = arena.alloc(64)
                handles.append(block.handle)
                block.release()
                arena.free(block.handle)
            for stale in handles[:-1]:
                with pytest.raises(ArenaError):
                    arena.view(stale)
        finally:
            arena.close()


class TestPoisonOnFree:
    def test_freed_bytes_are_poisoned(self, arena):
        block = arena.alloc(64)
        block.buf[:8] = b"payload!"
        unregistered_view = arena.view(block.handle)
        block.release()
        arena.free(block.handle)
        # A dangling *unregistered* view now reads the poison pattern,
        # not the stale payload — corruption is obvious, not plausible.
        assert bytes(unregistered_view[:8]) == bytes([POISON_BYTE]) * 8
        unregistered_view.release()


class TestQuarantine:
    def test_freed_block_held_back(self):
        arena = SlabArena(
            name="qua", min_block=64, max_block=1024, slab_blocks=4,
            sanitize=True, quarantine_depth=4,
        )
        try:
            block = arena.alloc(64)
            location = (block.handle.segment, block.handle.offset)
            block.release()
            arena.free(block.handle)
            assert arena.stats()["quarantined_blocks"] == 1
            succ = arena.alloc(64)
            # The freed block is NOT handed straight back.
            assert (succ.handle.segment, succ.handle.offset) != location
            succ.release()
            arena.free(succ.handle)
        finally:
            arena.close()

    def test_quarantine_recycles_before_growing(self):
        # One size class, one slab of 2 blocks, deep quarantine: steady
        # state must recycle quarantined blocks, not grow without bound.
        arena = SlabArena(
            name="steady", min_block=64, max_block=64, slab_blocks=2,
            sanitize=True, quarantine_depth=8,
        )
        try:
            for _ in range(32):
                block = arena.alloc(64)
                block.release()
                arena.free(block.handle)
            assert arena.total_slabs == 1
        finally:
            arena.close()


class TestExportRegistration:
    def test_free_with_live_export_raises(self, arena):
        block = arena.alloc(64)
        view = arena.view(block.handle)
        token = arena.register_export(block.handle, view)
        with pytest.raises(ArenaError, match="live exported view"):
            arena.free(block.handle)
        view.release()  # released views expire from the registry...
        block.release()
        arena.free(block.handle)  # ...so the free now goes through
        assert arena.stats()["allocated_blocks"] == 0
        assert token > 0

    def test_close_with_live_export_raises(self):
        arena = SlabArena(name="closing", min_block=64, sanitize=True)
        block = arena.alloc(64)
        view = arena.view(block.handle)
        arena.register_export(block.handle, view)
        with pytest.raises(ArenaError, match="live exported view"):
            arena.close()
        view.release()
        block.release()
        arena.close()

    def test_deserialize_view_registry_pins_block(self, arena):
        payload = np.arange(16, dtype=np.float64)
        blob = serialize(payload)
        block = arena.alloc(len(blob))
        block.buf[: len(blob)] = blob
        block.release()
        registry = arena.export_registry(block.handle)
        restored = deserialize(
            memoryview(arena.view(block.handle))[: len(blob)],
            copy=False,
            view_registry=registry,
        )
        assert np.array_equal(restored, payload)
        # The deserialized array borrows the block: freeing must raise.
        with pytest.raises(ArenaError, match="live exported view"):
            arena.free(block.handle)
        del restored
        registry.release()
        arena.free(block.handle)


class TestReleaseAfterClose:
    def test_free_after_close_raises(self):
        arena = SlabArena(name="rac", min_block=64, sanitize=True)
        block = arena.alloc(64)
        handle = block.handle
        block.release()
        arena.free(handle)
        arena.close()
        with pytest.raises(ArenaError, match="is closed"):
            arena.free(handle)

    def test_view_after_close_raises(self):
        arena = SlabArena(name="vac", min_block=64, sanitize=True)
        block = arena.alloc(64)
        handle = block.handle
        block.release()
        arena.free(handle)
        arena.close()
        with pytest.raises(ArenaError, match="is closed"):
            arena.view(handle)


class TestHugeBlocks:
    def test_huge_double_free_raises(self, arena):
        block = arena.alloc(1 << 20)  # over max_block: dedicated segment
        assert block.handle.huge
        assert arena.total_huge == 1
        block.release()
        arena.free(block.handle)
        with pytest.raises(ArenaError, match="double free"):
            arena.free(block.handle)

    def test_leak_report_charges_huge_segment_and_block(self, arena):
        pooled = arena.alloc(64)
        huge = arena.alloc(1 << 20)
        report = {entry[0]: entry[1] for entry in arena.leak_report()}
        pooled_key = f"{pooled.handle.segment}:{pooled.handle.offset}"
        huge_key = f"{huge.handle.segment}:{huge.handle.offset}"
        assert report[pooled_key] == 1
        assert report[huge_key] == 2  # its block AND its dedicated segment
        assert arena.stats()["huge_blocks"] == 1
        for block in (pooled, huge):
            block.release()
            arena.free(block.handle)

    def test_stale_huge_handle_faults(self, arena):
        block = arena.alloc(1 << 20)
        stale = block.handle
        block.release()
        arena.free(stale)
        with pytest.raises(ArenaError):
            arena.view(stale)


class TestStorePinning:
    def test_view_kept_across_communicator_close_raises(self):
        # A consumer that exported a zero-copy view of an arena block and
        # never released it turns shutdown into a hard error instead of a
        # dangling mapping.
        store = SharedMemoryObjectStore()
        comm = ShareMemCommunicator("sanitized-comm", store=store)
        arena = store.arena
        assert arena is not None and arena.sanitizing
        blob = serialize(np.arange(64, dtype=np.float64))
        block = arena.alloc(len(blob))
        block.buf[: len(blob)] = blob
        block.release()
        registry = arena.export_registry(block.handle)
        view = deserialize(
            memoryview(arena.view(block.handle))[: len(blob)],
            copy=False,
            view_registry=registry,
        )
        with pytest.raises(ArenaError, match="live exported view"):
            comm.close()
        del view
        registry.release()
        arena.free(block.handle)
        comm.close()

    def test_store_get_pins_block_during_decode(self):
        store = SharedMemoryObjectStore()
        try:
            object_id = store.put(np.arange(32, dtype=np.float64))
            fetched = store.get(object_id)  # register/unregister balanced
            assert np.array_equal(fetched, np.arange(32, dtype=np.float64))
            store.release(object_id)
            assert store.arena_stats()["live_exports"] == 0
        finally:
            store.close()


class TestSanitizerOff:
    def test_hot_path_unchanged_without_checks(self):
        # sanitize=False: no generation stamping, no quarantine, no
        # poison — the steady-state path the benchmarks measure.
        arena = SlabArena(name="fast", min_block=64, sanitize=False)
        try:
            assert not arena.sanitizing
            block = arena.alloc(64)
            handle = block.handle
            block.release()
            arena.free(handle)
            succ = arena.alloc(64)
            # Immediate LIFO reuse, untouched bytes.
            assert (succ.handle.segment, succ.handle.offset) == (
                handle.segment, handle.offset
            )
            assert arena.stats()["quarantined_blocks"] == 0
            assert arena.register_export(succ.handle) == 0  # no-op token
            succ.release()
            arena.free(succ.handle)
        finally:
            arena.close()
