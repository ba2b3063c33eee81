"""Unit and property tests for the positional count tree."""

import random

import pytest

from repro.buddy.area import DATA_AREA_BASE
from repro.core.config import small_page_config
from repro.core.env import StorageEnvironment
from repro.core.errors import ByteRangeError, StorageCorruptionError
from repro.tree.node import LeafExtent
from repro.tree.tree import PositionalTree
from tests.conftest import end_op, fingerprint


@pytest.fixture
def env():
    # Page 128 -> root fanout 11, node fanout 15: splits happen quickly.
    return StorageEnvironment(small_page_config(page_size=128))


def make_tree(env):
    tree = PositionalTree(
        env.config, env.pool, env.areas.meta, data_base=DATA_AREA_BASE
    )
    tree.create()
    return tree


def extent(env, nbytes):
    """A data-area extent of the right size (content irrelevant here)."""
    pages = max(1, -(-nbytes // env.config.page_size))
    page_id = env.areas.data.allocate(pages)
    return LeafExtent(page_id=page_id, used_bytes=nbytes, alloc_pages=pages)


def extent_count(tree):
    """Number of leaf extents, read uncharged."""
    return sum(1 for _ in tree.iter_extents(charged=False))


class ReferenceTree:
    """Flat list-of-sizes model the real tree must agree with."""

    def __init__(self):
        self.sizes: list[int] = []

    def boundaries(self):
        total = 0
        result = []
        for size in self.sizes:
            result.append((total, size))
            total += size
        return result

    @property
    def total(self):
        return sum(self.sizes)


def assert_agrees(tree, ref):
    tree.check_invariants()
    assert tree.total_bytes == ref.total
    got = [e.used_bytes for e in tree.iter_extents(charged=False)]
    assert got == ref.sizes


class TestBasics:
    def test_empty_tree(self, env):
        tree = make_tree(env)
        assert tree.total_bytes == 0
        assert tree.height == 1
        assert extent_count(tree) == 0
        assert tree.last_extent() is None

    def test_append_and_locate(self, env):
        tree = make_tree(env)
        tree.append_extent(extent(env, 100))
        tree.append_extent(extent(env, 50))
        end_op(tree)
        cursor = tree.locate(0)
        assert cursor.extent.used_bytes == 100
        assert cursor.extent_start == 0
        cursor = tree.locate(120)
        assert cursor.extent.used_bytes == 50
        assert cursor.extent_start == 100

    def test_locate_at_total_returns_rightmost(self, env):
        tree = make_tree(env)
        tree.append_extent(extent(env, 100))
        cursor = tree.locate(100)
        assert cursor.extent.used_bytes == 100

    def test_locate_out_of_bounds(self, env):
        tree = make_tree(env)
        tree.append_extent(extent(env, 10))
        with pytest.raises(ByteRangeError):
            tree.locate(11)
        with pytest.raises(ByteRangeError):
            tree.locate(-1)

    def test_extents_covering(self, env):
        tree = make_tree(env)
        for size in (100, 50, 200):
            tree.append_extent(extent(env, size))
        covering = tree.extents_covering(90, 100)
        assert [e.used_bytes for e, _s in covering] == [100, 50, 200]
        assert [s for _e, s in covering] == [0, 100, 150]

    def test_neighbors(self, env):
        tree = make_tree(env)
        for size in (10, 20, 30):
            tree.append_extent(extent(env, size))
        cursor = tree.locate(15)
        left, right = tree.neighbors(cursor)
        assert left.used_bytes == 10
        assert right.used_bytes == 30
        first = tree.locate(0)
        left, right = tree.neighbors(first)
        assert left is None
        assert right.used_bytes == 20


class TestUpdateExtent:
    def test_grow_updates_counts(self, env):
        tree = make_tree(env)
        tree.append_extent(extent(env, 100))
        cursor = tree.locate(0)
        tree.update_extent(cursor, used_bytes=120)  # still one page
        assert tree.total_bytes == 120
        tree.check_invariants()

    def test_relocate_changes_page(self, env):
        tree = make_tree(env)
        tree.append_extent(extent(env, 100))
        cursor = tree.locate(0)
        tree.update_extent(cursor, page_id=DATA_AREA_BASE + 999)
        assert tree.locate(0).extent.page_id == DATA_AREA_BASE + 999

    def test_zero_size_rejected(self, env):
        tree = make_tree(env)
        tree.append_extent(extent(env, 100))
        with pytest.raises(ByteRangeError):
            tree.update_extent(tree.locate(0), used_bytes=0)


class TestReplaceSpan:
    def test_split_one_extent_into_three(self, env):
        tree = make_tree(env)
        tree.append_extent(extent(env, 300))
        tree.replace_span(
            0, 300, [extent(env, 100), extent(env, 80), extent(env, 120)]
        )
        assert extent_count(tree) == 3
        assert tree.total_bytes == 300
        tree.check_invariants()

    def test_merge_three_into_one(self, env):
        tree = make_tree(env)
        for size in (100, 80, 120):
            tree.append_extent(extent(env, size))
        tree.replace_span(0, 300, [extent(env, 300)])
        assert extent_count(tree) == 1
        tree.check_invariants()

    def test_delete_middle_span(self, env):
        tree = make_tree(env)
        for size in (100, 80, 120):
            tree.append_extent(extent(env, size))
        tree.replace_span(100, 80, [])
        assert tree.total_bytes == 220
        assert [e.used_bytes for e in tree.iter_extents(charged=False)] == [
            100, 120,
        ]

    def test_size_change_through_replace(self, env):
        tree = make_tree(env)
        tree.append_extent(extent(env, 100))
        tree.replace_span(0, 100, [extent(env, 60), extent(env, 75)])
        assert tree.total_bytes == 135

    def test_unaligned_span_rejected(self, env):
        tree = make_tree(env)
        tree.append_extent(extent(env, 100))
        with pytest.raises(StorageCorruptionError):
            tree.replace_span(10, 50, [])

    def test_empty_replacement_of_nothing_touches_nothing(self, env):
        tree = make_tree(env)
        tree.append_extent(extent(env, 100))
        end_op(tree)
        before = fingerprint(env)
        tree.replace_span(100, 0, [])
        end_op(tree)                    # a dirty mark would flush here
        assert fingerprint(env) == before


class TestGrowthAndShrink:
    def test_height_grows_past_root_fanout(self, env):
        tree = make_tree(env)
        fanout = env.config.root_fanout
        for _ in range(fanout + 1):
            tree.append_extent(extent(env, 10))
        assert tree.height == 2
        tree.check_invariants()

    def test_height_collapses_after_deletes(self, env):
        tree = make_tree(env)
        fanout = env.config.root_fanout
        for _ in range(fanout + 1):
            tree.append_extent(extent(env, 10))
        assert tree.height == 2
        while extent_count(tree) > 1:
            tree.replace_span(0, 10, [])
        assert tree.height == 1
        tree.check_invariants()

    def test_three_levels(self, env):
        tree = make_tree(env)
        count = env.config.root_fanout * env.config.node_fanout + 1
        for _ in range(count):
            tree.append_extent(extent(env, 1))
        assert tree.height == 3
        tree.check_invariants()
        # Every extent is still reachable at the right offset.
        assert tree.locate(count - 1).extent_start == count - 1

    def test_end_op_flushes_dirty_nodes(self, env):
        tree = make_tree(env)
        for _ in range(env.config.root_fanout + 1):
            tree.append_extent(extent(env, 10))
        before = env.cost.stats.write_calls
        end_op(tree)
        assert env.cost.stats.write_calls > before
        end_op(tree)  # idempotent: nothing left to flush
        assert env.cost.stats.write_calls >= before + 1


class TestShadowing:
    def test_non_root_nodes_move_on_update(self, env):
        tree = make_tree(env)
        fanout = env.config.root_fanout
        for _ in range(fanout + 1):
            tree.append_extent(extent(env, 10))
        end_op(tree)
        pages_before = {n.page_id for n in tree._walk_nodes()}
        tree.begin_op()
        cursor = tree.locate(0)
        tree.update_extent(cursor, used_bytes=15)
        end_op(tree)
        pages_after = {n.page_id for n in tree._walk_nodes()}
        moved = pages_before - pages_after
        assert moved, "a non-root index page should have been relocated"
        assert tree.root_page_id in pages_before & pages_after

    def test_shadowing_disabled_keeps_pages(self, env):
        from repro.recovery.shadow import NO_SHADOW

        tree = PositionalTree(
            env.config, env.pool, env.areas.meta,
            data_base=DATA_AREA_BASE, shadow=NO_SHADOW,
        )
        tree.create()
        for _ in range(env.config.root_fanout + 1):
            tree.append_extent(extent(env, 10))
        end_op(tree)
        pages_before = {n.page_id for n in tree._walk_nodes()}
        tree.begin_op()
        tree.update_extent(tree.locate(0), used_bytes=15)
        end_op(tree)
        pages_after = {n.page_id for n in tree._walk_nodes()}
        assert pages_before == pages_after


class TestDestroy:
    def test_destroy_returns_extents_and_frees_index(self, env):
        tree = make_tree(env)
        extents_in = [extent(env, 10) for _ in range(20)]
        for e in extents_in:
            tree.append_extent(e)
        end_op(tree)
        returned = tree.destroy()
        assert [e.page_id for e in returned] == [
            e.page_id for e in extents_in
        ]
        assert env.areas.meta.allocated_pages == 0


def test_random_edit_script_matches_reference(env):
    """Property-style: random replace_span edits against a flat model."""
    rng = random.Random(7)
    tree = make_tree(env)
    ref = ReferenceTree()
    for step in range(300):
        tree.begin_op()
        boundaries = ref.boundaries()
        if boundaries and rng.random() < 0.5:
            # Replace a random run of extents with 0-3 new ones.
            first = rng.randrange(len(boundaries))
            last = min(len(boundaries) - 1, first + rng.randrange(3))
            span_start = boundaries[first][0]
            span_bytes = sum(size for _s, size in boundaries[first:last + 1])
            new_sizes = [
                rng.randint(1, 400) for _ in range(rng.randint(0, 3))
            ]
            tree.replace_span(
                span_start, span_bytes, [extent(env, s) for s in new_sizes]
            )
            ref.sizes[first : last + 1] = new_sizes
        else:
            size = rng.randint(1, 400)
            tree.append_extent(extent(env, size))
            ref.sizes.append(size)
        end_op(tree)
        if step % 10 == 0:
            assert_agrees(tree, ref)
    assert_agrees(tree, ref)
