"""Directed tests for the ESM large-object manager (Sections 2.1, 3.4)."""

import pytest

from repro.core.config import small_page_config
from repro.core.errors import ByteRangeError, ObjectNotFoundError
from tests.conftest import pattern_bytes

PAGE = 128
LEAF_PAGES = 2
CAPACITY = PAGE * LEAF_PAGES


@pytest.fixture
def store(store_factory):
    return store_factory("esm", leaf_pages=LEAF_PAGES)


def leaves(store, oid):
    return list(store.manager.tree_of(oid).iter_extents(charged=False))


class TestCreate:
    def test_empty_object(self, store):
        oid = store.create()
        assert store.size(oid) == 0
        assert store.read(oid, 0, 0) == b""

    def test_initial_content(self, store):
        data = pattern_bytes(3 * CAPACITY + 40)
        oid = store.create(data)
        assert store.read(oid, 0, len(data)) == data

    def test_leaves_are_fixed_size(self, store):
        oid = store.create(pattern_bytes(5 * CAPACITY))
        assert all(e.alloc_pages == LEAF_PAGES for e in leaves(store, oid))

    def test_unknown_oid(self, store):
        with pytest.raises(ObjectNotFoundError):
            store.read(12345, 0, 1)


class TestAppend:
    def test_in_place_append_fills_leaf(self, store):
        oid = store.create(pattern_bytes(100))
        store.append(oid, pattern_bytes(50, salt=1))
        assert store.size(oid) == 150
        assert len(leaves(store, oid)) == 1

    def test_in_place_append_is_not_shadowed(self, store):
        oid = store.create(pattern_bytes(100))
        page_before = leaves(store, oid)[0].page_id
        store.append(oid, pattern_bytes(50, salt=1))
        assert leaves(store, oid)[0].page_id == page_before

    def test_exact_multiple_appends_leave_full_leaves(self, store):
        oid = store.create()
        for salt in range(4):
            store.append(oid, pattern_bytes(CAPACITY, salt=salt))
        assert [e.used_bytes for e in leaves(store, oid)] == [CAPACITY] * 4

    def test_exact_appends_do_not_rewrite_existing_leaves(self, store):
        oid = store.create(pattern_bytes(CAPACITY))
        first_page = leaves(store, oid)[0].page_id
        store.append(oid, pattern_bytes(CAPACITY, salt=1))
        assert leaves(store, oid)[0].page_id == first_page

    def test_overflow_redistributes_with_left_neighbour(self, store):
        # Build [full, half] then overflow the rightmost: the left
        # neighbour participates when it has free space.
        oid = store.create(pattern_bytes(CAPACITY + CAPACITY // 2))
        store.append(oid, pattern_bytes(CAPACITY, salt=2))
        sizes = [e.used_bytes for e in leaves(store, oid)]
        assert sum(sizes) == store.size(oid)
        # All but the two rightmost leaves full; those two at least half.
        assert all(size == CAPACITY for size in sizes[:-2])
        assert all(2 * size >= CAPACITY for size in sizes[-2:])

    def test_content_preserved_across_overflows(self, store):
        oid = store.create()
        expected = bytearray()
        for salt in range(10):
            chunk = pattern_bytes(90 + salt * 17, salt=salt)
            store.append(oid, chunk)
            expected.extend(chunk)
        assert store.read(oid, 0, len(expected)) == bytes(expected)


class TestInsert:
    def test_within_leaf(self, store):
        oid = store.create(pattern_bytes(100))
        store.insert(oid, 40, b"XYZ")
        expected = pattern_bytes(100)
        assert store.read(oid, 0, 103) == expected[:40] + b"XYZ" + expected[40:]

    def test_within_leaf_is_shadowed(self, store):
        oid = store.create(pattern_bytes(100))
        page_before = leaves(store, oid)[0].page_id
        store.insert(oid, 40, b"XYZ")
        assert leaves(store, oid)[0].page_id != page_before

    def test_insert_at_end_is_append(self, store):
        oid = store.create(pattern_bytes(100))
        store.insert(oid, 100, b"tail")
        assert store.read(oid, 100, 4) == b"tail"

    def test_overflow_keeps_leaves_half_full(self, store):
        oid = store.create(pattern_bytes(4 * CAPACITY))
        store.insert(oid, CAPACITY + 3, pattern_bytes(CAPACITY, salt=3))
        sizes = [e.used_bytes for e in leaves(store, oid)]
        assert all(2 * size >= CAPACITY for size in sizes[:-1])
        store.manager.tree_of(oid).check_invariants()

    def test_improved_avoids_new_leaf_when_neighbour_has_room(
        self, store_factory
    ):
        improved = store_factory("esm", leaf_pages=LEAF_PAGES)
        basic = store_factory(
            "esm", leaf_pages=LEAF_PAGES, improved_insert=False
        )
        layout = [CAPACITY, CAPACITY // 2, CAPACITY]  # middle has room
        results = {}
        for name, s in (("improved", improved), ("basic", basic)):
            oid = s.create()
            for index, size in enumerate(layout):
                s.append(oid, pattern_bytes(size, salt=index))
            # Fill leaves exactly as laid out (appends may reshuffle), so
            # rebuild via insert into the first leaf to force overflow.
            before = len(
                list(s.manager.tree_of(oid).iter_extents(charged=False))
            )
            s.insert(oid, 10, pattern_bytes(CAPACITY // 4, salt=9))
            after = len(
                list(s.manager.tree_of(oid).iter_extents(charged=False))
            )
            results[name] = after - before
        assert results["improved"] < results["basic"]


class TestDelete:
    def test_within_leaf(self, store):
        data = pattern_bytes(200)
        oid = store.create(data)
        store.delete(oid, 50, 30)
        assert store.read(oid, 0, 170) == data[:50] + data[80:]

    def test_spanning_leaves(self, store):
        data = pattern_bytes(6 * CAPACITY)
        oid = store.create(data)
        store.delete(oid, CAPACITY // 2, 4 * CAPACITY)
        expected = data[: CAPACITY // 2] + data[CAPACITY // 2 + 4 * CAPACITY :]
        assert store.read(oid, 0, len(expected)) == expected
        store.manager.tree_of(oid).check_invariants()

    def test_whole_object(self, store):
        oid = store.create(pattern_bytes(5 * CAPACITY))
        store.delete(oid, 0, 5 * CAPACITY)
        assert store.size(oid) == 0
        assert leaves(store, oid) == []

    def test_underflow_merges_with_neighbour(self, store):
        data = pattern_bytes(4 * CAPACITY)
        oid = store.create(data)
        # Delete most of the second leaf: survivors underflow and must be
        # merged/redistributed with a neighbour.
        store.delete(oid, CAPACITY + 10, CAPACITY - 20)
        sizes = [e.used_bytes for e in leaves(store, oid)]
        assert all(
            2 * size >= CAPACITY for size in sizes[:-1]
        ) or len(sizes) == 1
        store.manager.tree_of(oid).check_invariants()

    def test_bounds_checked(self, store):
        oid = store.create(pattern_bytes(100))
        with pytest.raises(ByteRangeError):
            store.delete(oid, 50, 51)


class TestReplace:
    def test_replace_within_leaf(self, store):
        data = pattern_bytes(200)
        oid = store.create(data)
        store.replace(oid, 60, b"NEW")
        assert store.read(oid, 0, 200) == data[:60] + b"NEW" + data[63:]
        assert store.size(oid) == 200

    def test_replace_spanning_leaves(self, store):
        data = pattern_bytes(4 * CAPACITY)
        oid = store.create(data)
        patch = pattern_bytes(2 * CAPACITY, salt=5)
        store.replace(oid, CAPACITY - 10, patch)
        expected = (
            data[: CAPACITY - 10] + patch + data[CAPACITY - 10 + len(patch) :]
        )
        assert store.read(oid, 0, len(expected)) == expected

    def test_replace_shadows_leaf(self, store):
        oid = store.create(pattern_bytes(100))
        page_before = leaves(store, oid)[0].page_id
        store.replace(oid, 0, b"z")
        assert leaves(store, oid)[0].page_id != page_before

    def test_replace_without_shadowing_stays_in_place(self, store_factory):
        s = store_factory("esm", leaf_pages=LEAF_PAGES, shadowing=False)
        oid = s.create(pattern_bytes(100))
        page_before = list(
            s.manager.tree_of(oid).iter_extents(charged=False)
        )[0].page_id
        s.replace(oid, 0, b"z")
        page_after = list(
            s.manager.tree_of(oid).iter_extents(charged=False)
        )[0].page_id
        assert page_after == page_before


class TestDestroy:
    def test_destroy_frees_all_space(self, store):
        oid = store.create(pattern_bytes(10 * CAPACITY))
        store.destroy(oid)
        assert store.env.areas.data.allocated_pages == 0
        assert store.env.areas.meta.allocated_pages == 0

    def test_destroyed_object_is_gone(self, store):
        oid = store.create(b"x")
        store.destroy(oid)
        with pytest.raises(ObjectNotFoundError):
            store.size(oid)


class TestWholeLeafIOAblation:
    def test_whole_leaf_reads_cost_more(self, store_factory):
        partial = store_factory("esm", leaf_pages=4)
        whole = store_factory("esm", leaf_pages=4, partial_leaf_io=False)
        for s in (partial, whole):
            oid = s.create(pattern_bytes(8 * PAGE))
            before = s.snapshot()
            s.read(oid, 0, 10)
            s.io_pages = s.stats.delta(before).pages_read
        assert whole.io_pages > partial.io_pages
