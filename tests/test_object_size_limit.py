"""A tree-backed object stops at 2**32 - 1 bytes, cleanly.

An index page stores 4-byte cumulative counts, so that is the largest
object the positional tree can describe.  Growth past it is refused with
a typed error before the first change — by the managers before their
first segment write, by the tree's own mutators for any other caller —
and the refused operation leaves no trace: the next one works.
"""

import dataclasses

import pytest

from repro.buddy.area import DATA_AREA_BASE
from repro.core.api import LargeObjectStore
from repro.core.config import PAPER_CONFIG
from repro.core.errors import ObjectTooLargeError, ReproError
from repro.core.fsck import check
from repro.core.payload import SizedPayload
from repro.tree.node import MAX_OBJECT_BYTES, LeafExtent
from tests.conftest import end_op

GIB = 1 << 30
#: The paper's configuration at 64 KB pages: fsck visits every page, and
#: 4 GiB is 65,536 of these against a million of 4 KB.
BIG_PAGES = dataclasses.replace(PAPER_CONFIG, page_size=1 << 16)


def _state(store, oid):
    """What a refused operation must leave as it was."""
    report = check([(store.manager, [oid])])
    assert report.clean, report.summary()
    tree = store.manager.tree_of(oid)
    return {
        "size": store.size(oid),
        "io": dataclasses.astuple(store.stats),
        "pool": dataclasses.astuple(store.env.pool.stats),
        "data pages": store.env.areas.data.allocated_pages,
        "index pages": store.env.areas.meta.allocated_pages,
        "allocated": store.allocated_pages(oid),
        "dirty": sorted(tree._dirty),
        "root image": store.env.disk.peek_pages(oid, 1),
    }


def test_the_limit_is_what_four_bytes_hold():
    assert MAX_OBJECT_BYTES == 2**32 - 1
    assert issubclass(ObjectTooLargeError, ReproError)


def test_the_reported_wedge():
    """Four 1 GiB appends to a phantom EOS object (32 MB segments): the
    fourth used to die in ``end_op`` with ``struct.error`` after the tree
    had changed, and so did every operation after it."""
    store = LargeObjectStore("eos", record_data=False)
    oid = store.create()
    for _ in range(3):
        store.append(oid, SizedPayload(GIB))
    with pytest.raises(ObjectTooLargeError):
        store.append(oid, SizedPayload(GIB))
    assert store.size(oid) == 3 * GIB
    store.append(oid, b"x" * 10)
    assert store.size(oid) == 3 * GIB + 10


class TestEOS:
    @pytest.fixture()
    def store(self):
        store = LargeObjectStore("eos", BIG_PAGES, record_data=False)
        oid = store.create()
        for _ in range(3):
            store.append(oid, SizedPayload(GIB))
        return store, oid

    def test_fourth_gibibyte_is_refused_and_the_next_append_works(self, store):
        store, oid = store
        before = _state(store, oid)
        with pytest.raises(ObjectTooLargeError, match="4294967295"):
            store.append(oid, SizedPayload(GIB))
        assert _state(store, oid) == before
        with pytest.raises(ObjectTooLargeError):
            store.insert(oid, 12345, SizedPayload(GIB))
        assert _state(store, oid) == before
        store.append(oid, b"x" * 10)
        assert store.size(oid) == 3 * GIB + 10
        # ... and the object fills to the last byte the counts can hold.
        store.append(oid, SizedPayload(MAX_OBJECT_BYTES - store.size(oid)))
        assert store.size(oid) == MAX_OBJECT_BYTES
        full = _state(store, oid)
        for grow in (
            lambda: store.append(oid, b"y"),
            lambda: store.insert(oid, 0, b"y"),
            lambda: store.insert(oid, MAX_OBJECT_BYTES, b"y"),
        ):
            with pytest.raises(ObjectTooLargeError):
                grow()
        assert _state(store, oid) == full
        store.delete(oid, GIB, 5)
        store.insert(oid, 77, b"12345")
        assert store.size(oid) == MAX_OBJECT_BYTES
        assert len(store.read(oid, MAX_OBJECT_BYTES - 3, 3)) == 3

    def test_create_larger_than_the_limit_allocates_nothing(self):
        store = LargeObjectStore("eos", BIG_PAGES, record_data=False)
        meta, data = store.env.areas.meta, store.env.areas.data
        before = (meta.allocated_pages, data.allocated_pages)
        with pytest.raises(ObjectTooLargeError):
            store.create(SizedPayload(4 * GIB))
        assert (meta.allocated_pages, data.allocated_pages) == before
        assert store.manager.oids() == []


class TestESM:
    def test_insert_past_the_limit_is_refused_and_the_next_works(self):
        store = LargeObjectStore(
            "esm", BIG_PAGES, record_data=False, leaf_pages=512
        )
        oid = store.create(SizedPayload(MAX_OBJECT_BYTES - 100))
        before = _state(store, oid)
        with pytest.raises(ObjectTooLargeError):
            store.insert(oid, GIB + 3, b"z" * 101)
        with pytest.raises(ObjectTooLargeError):
            store.append(oid, b"z" * 101)
        assert _state(store, oid) == before
        store.insert(oid, GIB + 3, b"z" * 100)
        assert store.size(oid) == MAX_OBJECT_BYTES
        report = check([(store.manager, [oid])])
        assert report.clean, report.summary()


class TestTheTreeItself:
    """The mutators refuse on their own: not every caller is a manager."""

    @pytest.fixture()
    def tree(self):
        store = LargeObjectStore("eos", record_data=False)
        oid = store.create(SizedPayload(MAX_OBJECT_BYTES - 10))
        return store.manager.tree_of(oid)

    def test_replace_span_and_append_extent(self, tree):
        extents = list(tree.iter_extents(charged=False))
        big = LeafExtent(DATA_AREA_BASE + 10**6, 11, 1)
        for attempt in (
            lambda: tree.append_extent(big),
            lambda: tree.replace_span(0, 0, [big]),
            lambda: tree.replace_span(
                0, extents[0].used_bytes,
                [extents[0]._replace(used_bytes=extents[0].used_bytes + 11)],
            ),
        ):
            with pytest.raises(ObjectTooLargeError):
                attempt()
            assert not tree._dirty
            assert list(tree.iter_extents(charged=False)) == extents
        tree.begin_op()
        tree.append_extent(big._replace(used_bytes=10))
        end_op(tree)
        assert tree.total_bytes == MAX_OBJECT_BYTES
        tree.check_invariants()

    def test_update_extent(self, tree):
        cursor = tree.locate(5)
        grown = cursor.extent.used_bytes + 11
        with pytest.raises(ObjectTooLargeError):
            tree.update_extent(cursor, used_bytes=grown)
        assert not tree._dirty
        assert tree.total_bytes == MAX_OBJECT_BYTES - 10
        assert tree.locate(5).extent == cursor.extent
