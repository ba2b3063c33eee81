"""Reopen tests: structures must be rebuildable from their disk images.

The simulation keeps structures in memory, but every index page, root,
directory, and descriptor also has an up-to-date serialized disk image;
these tests rebuild from those images — through each manager's
``image_extents`` and ``reload`` — and verify nothing is lost.
"""

import random

import pytest

from repro.buddy.area import DATA_AREA_BASE
from repro.buddy.directory import deserialize_directory, serialize_directory
from repro.core.api import LargeObjectStore
from repro.core.config import small_page_config
from repro.core.fsck import check
from repro.core.manager import ImageExtent
from repro.recovery.crash import rebuild_content
from repro.starburst.descriptor import LongFieldDescriptor
from repro.tree.tree import PositionalTree
from tests.conftest import pattern_bytes

PAGE = 128
CONFIG = small_page_config()


def _height3_eos_with_slack():
    """A three-level EOS object whose rightmost segment carries append
    slack, recorded only in the root header."""
    store = LargeObjectStore("eos", CONFIG, threshold_pages=1)
    oid = store.create(bytes(range(256)) * 78)
    rng = random.Random(7)
    for i in range(700):
        store.insert(oid, rng.randrange(store.size(oid)), bytes([i % 251]) * 3)
    store.append(oid, b"a" * 500)     # doubling: the last of 4 pages
    store.append(oid, b"b" * 10)      # ... is still unused after this
    tree = store.manager.tree_of(oid)
    last, _start = tree.last_extent()
    assert tree.height == 3
    assert last.alloc_pages > last.used_pages(PAGE)      # the slack
    return store, oid


def _edited(scheme, **options):
    def build():
        store = LargeObjectStore(scheme, CONFIG, **options)
        oid = store.create(pattern_bytes(20 * PAGE))
        for i in range(8):
            store.insert(oid, (i * 997) % store.size(oid), b"edit")
        return store, oid
    return build


def _appended_slack(scheme, **options):
    def build():
        store = LargeObjectStore(scheme, CONFIG, **options)
        oid = store.create(pattern_bytes(3 * PAGE + 5))
        store.append(oid, pattern_bytes(9 * PAGE + 30, salt=1))
        return store, oid
    return build


def _empty(scheme):
    def build():
        store = LargeObjectStore(scheme, CONFIG)
        return store, store.create()
    return build


def _overflow_directory():
    store = LargeObjectStore("blockbased", CONFIG)
    oid = store.create(pattern_bytes(70 * PAGE))
    store.insert(oid, 5, b"split")
    assert len(store.manager.directory_of(oid)) > 1
    return store, oid


IMAGE_CASES = {
    "esm-empty": _empty("esm"),
    "eos-empty": _empty("eos"),
    "starburst-empty": _empty("starburst"),
    "blockbased-empty": _empty("blockbased"),
    "esm-edited": _edited("esm", leaf_pages=2),
    "eos-edited": _edited("eos", threshold_pages=2),
    "blockbased-edited": _edited("blockbased"),
    "esm-slack": _appended_slack("esm", leaf_pages=2),
    "eos-slack": _appended_slack("eos", threshold_pages=2),
    "starburst-slack": _appended_slack("starburst"),
    "eos-height3-slack": _height3_eos_with_slack,
    "blockbased-overflow-directory": _overflow_directory,
}


def _live_records(manager, oid):
    """(meta records sorted, data records in order) of the in-memory
    structure, in ``image_extents``' record shape (a tree's meta records
    are the image's, held to the live tree's page count)."""
    page_size = manager.config.page_size
    if manager.scheme in ("esm", "eos"):
        tree = manager.tree_of(oid)
        meta = [e.page_id for e in manager.image_extents(oid) if e.meta]
        assert len(meta) == tree.index_page_count()
        data = [tuple(e) for e in tree.iter_extents(charged=False)]
    elif manager.scheme == "starburst":
        meta = [oid]
        data = [
            (s.page_id, s.used_bytes, s.alloc_pages)
            for s in manager.descriptor_of(oid).segments
        ]
    else:
        meta = manager.directory_of(oid)
        data = [(p.page_id, p.used_bytes, 1) for p in manager.pages_of(oid)]
    return (
        sorted(ImageExtent(page, page_size, 1, True) for page in meta),
        [ImageExtent(*record, False) for record in data],
    )


@pytest.mark.parametrize("case", IMAGE_CASES)
def test_image_matches_live_structure(case):
    """``image_extents`` reads back what memory holds, ``rebuild_content``
    joins its data records into the object, and ``reload`` swaps in an
    equal structure that reads the same bytes."""
    store, oid = IMAGE_CASES[case]()
    manager = store.manager
    image = list(manager.image_extents(oid))
    meta, data = _live_records(manager, oid)
    assert sorted(e for e in image if e.meta) == meta
    assert [e for e in image if not e.meta] == data

    content = store.read(oid, 0, store.size(oid))
    runs = []
    assert rebuild_content(store, oid, runs) == content
    assert runs == [(e.page_id, -(-e.used_bytes // PAGE)) for e in image]

    if store.scheme == "blockbased":
        return
    live = (store.size(oid), manager.allocated_pages(oid), meta, data)
    manager.reload(oid)
    assert (
        store.size(oid), manager.allocated_pages(oid),
        *_live_records(manager, oid),
    ) == live
    assert store.read(oid, 0, store.size(oid)) == content
    assert check([(manager, [oid])]).clean
    if store.scheme != "starburst":
        manager.tree_of(oid).check_invariants()


class TestTreeReopen:
    @pytest.mark.parametrize("scheme", ["esm", "eos"])
    def test_tree_rebuilds_from_disk(self, scheme, store_factory):
        store = store_factory(scheme)
        oid = store.create(pattern_bytes(20 * PAGE))
        for i in range(8):
            store.insert(oid, (i * 997) % store.size(oid), b"edit")
        old_tree = store.manager.tree_of(oid)
        expected = [
            (e.page_id, e.used_bytes)
            for e in old_tree.iter_extents(charged=False)
        ]

        store.manager.reload(oid)
        reopened = store.manager.tree_of(oid)
        assert reopened is not old_tree
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
        oid = store.create(pattern_bytes(10 * PAGE))
        reopened = PositionalTree(
            store.config,
            store.env.pool,
            store.env.areas.meta,
            data_base=DATA_AREA_BASE,
        )
        reopened.reopen(oid)
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
        expected = [
            (e.page_id, e.alloc_pages)
            for e in live.iter_extents(charged=False)
        ]
        store.manager.reload(oid)
        assert [
            (e.page_id, e.alloc_pages)
            for e in store.manager.tree_of(oid).iter_extents(charged=False)
        ] == expected


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
