"""Tests for the storage consistency checker."""

import random

import pytest

from repro.core.api import LargeObjectStore, make_manager
from repro.core.config import small_page_config
from repro.core.env import StorageEnvironment
from repro.core.fsck import check
from tests.conftest import pattern_bytes

CONFIG = small_page_config()
PAGE = 128
SCHEMES = ("esm", "starburst", "eos", "blockbased")


class TestCleanStates:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_fresh_object_is_clean(self, scheme):
        store = LargeObjectStore(scheme, CONFIG)
        oid = store.create(pattern_bytes(10 * PAGE + 7))
        report = check([(store.manager, [oid])])
        assert report.clean, report.summary()

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_clean_after_randomized_workload(self, scheme):
        rng = random.Random(13)
        store = LargeObjectStore(scheme, CONFIG)
        oid = store.create(pattern_bytes(8 * PAGE))
        for step in range(120):
            kind = rng.choice(["append", "insert", "delete", "replace"])
            size = store.size(oid)
            if kind == "append":
                store.append(oid, pattern_bytes(rng.randint(1, 300)))
            elif kind == "insert":
                store.insert(oid, rng.randint(0, size),
                             pattern_bytes(rng.randint(1, 300), salt=step))
            elif kind == "delete" and size > 1:
                offset = rng.randint(0, size - 1)
                store.delete(oid, offset,
                             rng.randint(1, min(300, size - offset)))
            elif kind == "replace" and size > 1:
                offset = rng.randint(0, size - 1)
                n = rng.randint(1, min(300, size - offset))
                store.replace(oid, offset, pattern_bytes(n, salt=step))
        report = check([(store.manager, [oid])])
        assert report.clean, f"{scheme}: {report.summary()}"

    def test_multiple_objects_and_managers_share_cleanly(self):
        env = StorageEnvironment(CONFIG)
        esm = make_manager("esm", env, leaf_pages=2)
        eos = make_manager("eos", env, threshold_pages=2)
        oids_esm = [esm.create(pattern_bytes(5 * PAGE, salt=i))
                    for i in range(3)]
        oids_eos = [eos.create(pattern_bytes(4 * PAGE, salt=i))
                    for i in range(3)]
        report = check([(esm, oids_esm), (eos, oids_eos)])
        assert report.clean, report.summary()

    def test_destroy_leaves_no_leaks(self):
        store = LargeObjectStore("eos", CONFIG)
        keep = store.create(pattern_bytes(4 * PAGE))
        victim = store.create(pattern_bytes(6 * PAGE))
        store.destroy(victim)
        report = check([(store.manager, [keep])])
        assert report.clean, report.summary()


class TestDetection:
    def test_leak_detected(self):
        store = LargeObjectStore("eos", CONFIG)
        oid = store.create(pattern_bytes(2 * PAGE))
        store.env.areas.data.allocate(3)  # orphan allocation
        report = check([(store.manager, [oid])])
        assert not report.clean
        assert len(report.leaked_data_pages) == 3

    def test_dangling_reference_detected(self):
        store = LargeObjectStore("eos", CONFIG)
        oid = store.create(pattern_bytes(2 * PAGE))
        tree = store.manager.tree_of(oid)
        extent = next(tree.iter_extents(charged=False))
        store.env.areas.data.free(extent.page_id, extent.alloc_pages)
        report = check([(store.manager, [oid])])
        assert report.dangling
        assert not report.clean

    def test_double_reference_detected(self):
        env = StorageEnvironment(CONFIG)
        eos = make_manager("eos", env, threshold_pages=2)
        a = eos.create(pattern_bytes(2 * PAGE))
        b = eos.create(pattern_bytes(2 * PAGE, salt=1))
        tree_b = eos.tree_of(b)
        extent_a = next(eos.tree_of(a).iter_extents(charged=False))
        cursor = tree_b.locate(0)
        tree_b.update_extent(cursor, page_id=extent_a.page_id)
        tree_b.commit_root()  # fsck walks the committed image
        report = check([(eos, [a, b])])
        assert report.doubly_referenced

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_unparsable_first_page_is_reported_corrupt(self, scheme):
        store = LargeObjectStore(scheme, CONFIG)
        oid = store.create(pattern_bytes(1000))
        data_pages = sorted(
            page
            for extent in store.manager.image_extents(oid)
            if not extent.meta
            for page in extent.pages
        )
        env = store.env
        env.pool.flush_all()
        env.pool.reset()
        env.disk.corrupt_page(oid, 0)
        report = check([(store.manager, [oid])])
        assert report.corrupt_pages == [oid]
        assert report.leaked_data_pages == data_pages
        assert not (report.leaked_meta_pages or report.dangling
                    or report.doubly_referenced)

    def test_mismatched_environments_rejected(self):
        a = LargeObjectStore("eos", CONFIG)
        b = LargeObjectStore("eos", CONFIG)
        with pytest.raises(ValueError):
            check([(a.manager, []), (b.manager, [])])

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            check([])


class TestPageRuns:
    def test_runs_cover_object_bytes(self):
        store = LargeObjectStore("esm", CONFIG, leaf_pages=2)
        oid = store.create(pattern_bytes(7 * PAGE))
        image = list(store.manager.image_extents(oid))
        data_pages = sum(e.alloc_pages for e in image if not e.meta)
        assert data_pages * PAGE >= store.size(oid)
        assert any(e.meta for e in image)  # at least the root page

