"""Tests for the shadowing recovery policy and its cost impact (§3.3)."""

import pytest

from repro.core.api import LargeObjectStore
from repro.core.config import PAPER_CONFIG
from repro.recovery.shadow import DEFAULT_SHADOW, NO_SHADOW, ShadowPolicy


class TestPolicy:
    def test_default_shadows_overwrites(self):
        assert DEFAULT_SHADOW.overwrite_needs_new_segment()

    def test_default_shadows_non_root_index_pages_only(self):
        assert DEFAULT_SHADOW.index_update_needs_new_page(is_root=False)
        assert not DEFAULT_SHADOW.index_update_needs_new_page(is_root=True)

    def test_disabled_policy(self):
        assert not NO_SHADOW.overwrite_needs_new_segment()
        assert not NO_SHADOW.index_update_needs_new_page(is_root=False)

    def test_policy_is_a_value(self):
        assert ShadowPolicy(enabled=True) == DEFAULT_SHADOW


class TestPaperExample:
    """Section 3.3: "with no shadowing, the cost of updating a page that
    belongs to a 2-block segment would be the same with the cost of
    updating ... a single page ... part of a 64-block segment.  With
    shadowing, the two updates will have substantially different costs
    (with the second update being approximately 6 to 7 times more costly
    than the first)."
    """

    @staticmethod
    def update_cost(segment_pages, shadowing):
        store = LargeObjectStore(
            "eos",
            PAPER_CONFIG,
            threshold_pages=segment_pages,
            record_data=False,
            shadowing=shadowing,
        )
        nbytes = segment_pages * PAPER_CONFIG.page_size
        oid = store.create(bytes(nbytes))
        store.manager.trim(oid)
        before = store.snapshot()
        store.replace(oid, 10, b"y" * 100)
        return store.elapsed_ms(before)

    def test_without_shadowing_costs_match(self):
        small = self.update_cost(2, shadowing=False)
        large = self.update_cost(64, shadowing=False)
        assert small == pytest.approx(large, rel=0.10)

    def test_with_shadowing_large_segment_costs_6_to_7x(self):
        small = self.update_cost(2, shadowing=True)
        large = self.update_cost(64, shadowing=True)
        ratio = large / small
        assert 4.0 < ratio < 10.0  # the paper says approximately 6-7x

    def test_shadowing_always_at_least_as_expensive(self):
        # The model gives 82 / 130 / 578 ms with shadowing for 2 / 8 /
        # 64-block segments (7.0x, the paper's "6 to 7 times") and 74 ms
        # each without, pinned within 0.5 %.
        for pages, shadowed in ((2, 82.0), (8, 130.0), (64, 578.0)):
            shadow, plain = (
                self.update_cost(pages, True), self.update_cost(pages, False)
            )
            assert shadow == pytest.approx(shadowed, rel=0.005)
            assert plain == pytest.approx(74.0, rel=0.005)


class TestAppendInPlace:
    def test_appends_not_shadowed_even_with_policy_on(self):
        # "If the update just appends bytes in the leaf, the segment is
        #  not shadowed; the update is performed in place."
        store = LargeObjectStore(
            "eos", PAPER_CONFIG, threshold_pages=4, record_data=False
        )
        oid = store.create(bytes(PAPER_CONFIG.page_size))
        tree = store.manager.tree_of(oid)
        page_before = next(tree.iter_extents(charged=False)).page_id
        store.append(oid, b"tail bytes")
        assert next(tree.iter_extents(charged=False)).page_id == page_before
