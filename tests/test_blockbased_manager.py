"""Tests for the block-based baseline manager (Section 1's first class)."""

import random

import pytest

from repro.blockbased.manager import DataPage
from repro.core.api import LargeObjectStore
from repro.core.config import PAPER_CONFIG, small_page_config
from repro.core.errors import ObjectNotFoundError
from repro.core.fsck import check as fsck_check
from repro.exec.plan import BatchOp, MultiOp
from repro.workload.model import ObjectModel
from tests.conftest import pattern_bytes

PAGE = 128


@pytest.fixture
def store(store_factory):
    return store_factory("blockbased")


class TestBasics:
    def test_roundtrip(self, store):
        data = pattern_bytes(7 * PAGE + 19)
        oid = store.create(data)
        assert store.read(oid, 0, len(data)) == data

    def test_single_block_pieces(self, store):
        oid = store.create(pattern_bytes(5 * PAGE))
        pages = store.manager.pages_of(oid)
        assert len(pages) == 5
        assert all(p.used_bytes == PAGE for p in pages)

    def test_unknown_oid(self, store):
        with pytest.raises(ObjectNotFoundError):
            store.size(99)


class TestDefiningCost:
    def test_one_seek_per_page_even_when_adjacent(self):
        # The class's defining property: consecutive byte ranges are
        # fetched one block per I/O call, so sequential reads pay a seek
        # for virtually every page.
        store = LargeObjectStore("blockbased", PAPER_CONFIG,
                                 record_data=False)
        n_pages = 20
        oid = store.create(bytes(n_pages * PAPER_CONFIG.page_size))
        before = store.snapshot()
        store.read(oid, 0, n_pages * PAPER_CONFIG.page_size)
        delta = store.env.io_since(before)
        assert delta.read_calls == n_pages

    def test_sequential_scan_slower_than_any_segment_scheme(self):
        costs = {}
        for scheme in ("blockbased", "starburst", "eos"):
            store = LargeObjectStore(scheme, PAPER_CONFIG,
                                     record_data=False)
            oid = store.create(bytes(1 << 20))
            trim = getattr(store.manager, "trim", None)
            if trim:
                trim(oid)
            before = store.snapshot()
            size = store.size(oid)
            position = 0
            while position < size:
                store.read(oid, position, min(256 * 1024, size - position))
                position += 256 * 1024
            costs[scheme] = store.elapsed_ms(before)
        assert costs["blockbased"] > 3 * costs["starburst"]
        assert costs["blockbased"] > 3 * costs["eos"]


class TestUpdates:
    def test_insert_splits_page(self, store):
        data = pattern_bytes(2 * PAGE)
        oid = store.create(data)
        patch = pattern_bytes(PAGE, salt=1)
        store.insert(oid, 30, patch)
        expected = data[:30] + patch + data[30:]
        assert store.read(oid, 0, len(expected)) == expected
        # The affected page split; no rebalancing happened.
        assert len(store.manager.pages_of(oid)) >= 3

    def test_no_rebalancing_degrades_utilization(self, store):
        oid = store.create(pattern_bytes(8 * PAGE))
        for i in range(10):
            store.insert(oid, (i * 631) % store.size(oid), b"..")
            store.delete(oid, (i * 433) % (store.size(oid) - 2), 2)
            store.manager.check_invariants(oid)
        # Pages become sparse: utilization falls well below full.
        assert store.utilization(oid) < 0.9

    def test_delete_frees_empty_pages(self, store):
        oid = store.create(pattern_bytes(6 * PAGE))
        pages_before = store.env.areas.data.allocated_pages
        store.delete(oid, PAGE, 3 * PAGE)
        assert store.env.areas.data.allocated_pages <= pages_before - 3
        store.manager.check_invariants(oid)

    def test_replace_shadows_pages(self, store):
        oid = store.create(pattern_bytes(3 * PAGE))
        first_before = store.manager.pages_of(oid)[0].page_id
        store.replace(oid, 0, b"Z")
        assert store.manager.pages_of(oid)[0].page_id != first_before

    def test_replace_in_place_without_shadowing(self, store_factory):
        store = store_factory("blockbased", shadowing=False)
        oid = store.create(pattern_bytes(3 * PAGE))
        first_before = store.manager.pages_of(oid)[0].page_id
        store.replace(oid, 0, b"Z")
        assert store.manager.pages_of(oid)[0].page_id == first_before


class TestDirectory:
    def test_directory_grows_with_object(self, store):
        oid = store.create()
        slots = store.manager._slots_per_directory_page()
        store.append(oid, pattern_bytes((slots + 1) * PAGE))
        assert len(store.manager._directories[oid]) == 2
        store.manager.check_invariants(oid)

    def test_directory_shrinks_after_deletes(self, store):
        slots = store.manager._slots_per_directory_page()
        oid = store.create(pattern_bytes((slots + 1) * PAGE))
        store.delete(oid, 0, slots * PAGE)
        assert len(store.manager._directories[oid]) == 1

    def test_directory_image_decodes(self, store):
        oid = store.create(pattern_bytes(4 * PAGE + 9))
        image = store.env.disk.peek_pages(oid, 1)
        pages, next_link = store.manager.load_directory(store.env, image)
        assert next_link is None
        assert [(p.page_id, p.used_bytes) for p in pages] == [
            (p.page_id, p.used_bytes) for p in store.manager.pages_of(oid)
        ]

    def test_directory_chain_decodes(self, store):
        slots = store.manager._slots_per_directory_page()
        oid = store.create(pattern_bytes((slots + 3) * PAGE))
        image = list(store.manager.image_extents(oid))
        assert [e.page_id for e in image if e.meta] == (
            store.manager.directory_of(oid)
        )
        assert [(e.page_id, e.used_bytes) for e in image if not e.meta] == [
            (p.page_id, p.used_bytes) for p in store.manager.pages_of(oid)
        ]


    def test_a_stream_across_directory_pages_matches_the_model(self, store):
        """Inserts, deletes, replaces and reads located by the per-block
        offset sums, on an object spanning many directory pages and sum
        blocks: after every op the bytes match the model, the committed
        directory chain lists the live pages, and fsck is clean."""
        slots = store.manager._slots_per_directory_page()
        rng = random.Random(49)
        model = ObjectModel()
        oid = store.create(pattern_bytes(10 * slots * PAGE + 41))
        model.create(oid, pattern_bytes(10 * slots * PAGE + 41))
        assert len(store.manager.directory_of(oid)) >= 3
        for step in range(160):
            kind = rng.choice(["insert", "delete", "replace", "read"])
            size = model.size(oid)
            nbytes = rng.randrange(1, 4 * PAGE)
            if kind == "insert":
                op = BatchOp(kind, rng.randrange(size + 1),
                             data=pattern_bytes(nbytes, salt=step))
            else:
                offset = rng.randrange(size)
                nbytes = min(nbytes, size - offset)
                op = BatchOp(kind, offset, nbytes,
                             pattern_bytes(nbytes, salt=step))
            got = model.run(store, MultiOp(oid, op))
            assert got is None or got == model.read(oid, op.offset, op.nbytes)
            assert model.differences(store) == []
            store.manager.check_invariants(oid)
            image = list(store.manager.image_extents(oid))
            listed = [(e.page_id, e.used_bytes) for e in image if not e.meta]
            assert listed == [
                (p.page_id, p.used_bytes) for p in store.manager.pages_of(oid)
            ]
            report = fsck_check([(store.manager, [oid])])
            assert report.clean, report.summary()
        assert len(store.manager.directory_of(oid)) >= 3


def write_directory():
    """A recorded object whose directory spans two adjacent pages, as a
    writer row of ``tests/test_disk.py``'s snapshot test: (disk, first
    directory page, pages, change), where ``change()`` edits the live
    page list the directory images were sliced from."""
    store = LargeObjectStore("blockbased", small_page_config())
    slots = store.manager._slots_per_directory_page()
    oid = store.create(pattern_bytes((slots + 6) * store.config.page_size))
    assert store.manager.directory_of(oid) == [oid, oid + 1]
    pages = store.manager._objects[oid].pages

    def change():
        slot = pages[1]
        try:
            slot.used_bytes = 1  # a page that allows it is edited in place
        except AttributeError:
            pages[1] = slot._replace(used_bytes=1)
        pages.append(DataPage(pages[-1].page_id + 1, 9))
    return store.env.disk, oid, 2, change


class TestDestroy:
    def test_destroy_frees_everything(self, store):
        oid = store.create(pattern_bytes(12 * PAGE))
        store.insert(oid, 5, b"xx")
        store.destroy(oid)
        assert store.env.areas.data.allocated_pages == 0
        assert store.env.areas.meta.allocated_pages == 0
