"""Reopen tests: structures must be rebuildable from their disk images.

The simulation keeps structures in memory, but every index page, root,
directory, and descriptor also has an up-to-date serialized disk image;
these tests rebuild from those images and verify nothing is lost.
"""

import pytest

from repro.buddy.area import DATA_AREA_BASE
from repro.buddy.directory import deserialize_directory, serialize_directory
from repro.core.api import LargeObjectStore
from repro.core.config import small_page_config
from repro.starburst.descriptor import LongFieldDescriptor
from repro.tree.tree import PositionalTree
from tests.conftest import pattern_bytes

PAGE = 128
CONFIG = small_page_config()


def _reopen(store, oid, **tree_options):
    tree = PositionalTree(
        store.config,
        store.env.pool,
        store.env.areas.meta,
        data_base=DATA_AREA_BASE,
        **tree_options,
    )
    tree.reopen(oid)
    return tree


class TestTreeReopen:
    @pytest.mark.parametrize("scheme", ["esm", "eos"])
    def test_tree_rebuilds_from_disk(self, scheme, store_factory):
        store = store_factory(scheme)
        data = pattern_bytes(20 * PAGE)
        oid = store.create(data)
        for i in range(8):
            store.insert(oid, (i * 997) % store.size(oid), b"edit")
        old_tree = store.manager.tree_of(oid)
        expected = [
            (e.page_id, e.used_bytes)
            for e in old_tree.iter_extents(charged=False)
        ]

        reopened = _reopen(
            store, oid, leaf_alloc_pages=store.manager._leaf_alloc_pages
        )
        assert reopened._get_node(oid) is not None
        assert reopened.total_bytes == store.size(oid)
        assert reopened.height == old_tree.height
        got = [
            (e.page_id, e.used_bytes)
            for e in reopened.iter_extents(charged=True)
        ]
        assert got == expected

    def test_reopened_tree_locates_bytes(self, store_factory):
        store = store_factory("eos")
        data = pattern_bytes(10 * PAGE)
        oid = store.create(data)
        reopened = _reopen(store, oid)
        cursor = reopened.locate(5 * PAGE)
        assert cursor.extent_start <= 5 * PAGE

    @pytest.mark.parametrize("scheme", ["esm", "eos"])
    def test_reopen_keeps_every_extents_allocation(
        self, scheme, store_factory
    ):
        """EOS leaves untrimmed slack on the rightmost segment after an
        append; only the root header records it, and a reopen that drops
        it would leak those pages on the next free."""
        store = store_factory(scheme, threshold_pages=2)
        oid = store.create(pattern_bytes(3 * PAGE + 5))
        store.append(oid, pattern_bytes(200))
        live = store.manager.tree_of(oid)
        reopened = _reopen(
            store, oid, leaf_alloc_pages=store.manager._leaf_alloc_pages
        )
        assert [
            (e.page_id, e.alloc_pages)
            for e in reopened.iter_extents(charged=False)
        ] == [
            (e.page_id, e.alloc_pages)
            for e in live.iter_extents(charged=False)
        ]


class TestDescriptorReopen:
    def test_descriptor_rebuilds_from_disk(self, store_factory):
        store = store_factory("starburst")
        oid = store.create()
        store.append(oid, pattern_bytes(9 * PAGE + 30))
        original = store.manager.descriptor_of(oid)
        image = store.env.disk.peek_pages(oid, 1)
        rebuilt = LongFieldDescriptor.deserialize(
            image, oid, store.config, DATA_AREA_BASE
        )
        assert [s.page_id for s in rebuilt.segments] == [
            s.page_id for s in original.segments
        ]
        assert rebuilt.total_bytes == original.total_bytes


class TestDirectoryReopen:
    def test_buddy_state_survives_serialization(self, store_factory):
        store = store_factory("esm", leaf_pages=2)
        oid = store.create(pattern_bytes(30 * PAGE))
        for i in range(5):
            store.delete(oid, i * 100, 50)
        allocator = store.env.areas.data
        for index in range(allocator.space_count):
            space = allocator._spaces[index]
            rebuilt = deserialize_directory(serialize_directory(space))
            assert serialize_directory(rebuilt) == serialize_directory(space)
            assert rebuilt.free_blocks == space.free_blocks
            rebuilt.check_invariants()


class TestContentDurability:
    @pytest.mark.parametrize("scheme", ["esm", "starburst", "eos"])
    def test_all_object_bytes_live_on_disk(self, scheme, store_factory):
        """In recorded mode, reading straight from the disk image (via the
        extent/segment maps) reproduces the object, byte for byte."""
        store = store_factory(scheme)
        data = pattern_bytes(15 * PAGE + 11)
        oid = store.create(data)
        store.insert(oid, 100, b"ABCDEF")
        store.delete(oid, 5, 3)
        expected = bytearray(data)
        expected[100:100] = b"ABCDEF"
        del expected[5:8]

        disk = store.env.disk
        pieces = []
        if scheme == "starburst":
            segments = store.manager.descriptor_of(oid).segments
            for segment in segments:
                raw = disk.peek_pages(
                    segment.page_id, segment.used_pages(PAGE)
                )
                pieces.append(raw[: segment.used_bytes])
        else:
            tree = store.manager.tree_of(oid)
            for extent in tree.iter_extents(charged=False):
                raw = disk.peek_pages(extent.page_id, extent.used_pages(PAGE))
                pieces.append(raw[: extent.used_bytes])
        assert b"".join(pieces) == bytes(expected)
