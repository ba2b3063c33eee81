"""Deeper positional-tree tests: multi-level navigation and maintenance."""

import pytest

from repro.buddy.area import DATA_AREA_BASE
from repro.core.config import small_page_config
from repro.core.env import StorageEnvironment
from repro.core.errors import StorageCorruptionError
from repro.tree.node import LeafExtent
from repro.tree.tree import PositionalTree
from tests.conftest import end_op, fingerprint


@pytest.fixture
def env():
    return StorageEnvironment(small_page_config(page_size=128))


def make_tree(env, extents=0, size=10):
    tree = PositionalTree(
        env.config, env.pool, env.areas.meta, data_base=DATA_AREA_BASE
    )
    tree.create()
    for _ in range(extents):
        tree.append_extent(extent(env, size))
    end_op(tree)
    return tree


def extent(env, nbytes):
    pages = max(1, -(-nbytes // env.config.page_size))
    page_id = env.areas.data.allocate(pages)
    return LeafExtent(page_id=page_id, used_bytes=nbytes, alloc_pages=pages)


def leaf_parents(tree):
    """``(start byte, non-root path pages top-down)`` of every leaf
    parent, left to right, from an uncharged walk."""
    found = []

    def walk(node, start, path):
        if node.is_leaf_parent:
            found.append((start, path))
            return
        for index, ref in enumerate(node.refs):
            child_start = start + (node.cums[index - 1] if index else 0)
            walk(tree._peek_node(ref), child_start, path + [ref])

    walk(tree._peek_node(tree.root_page_id), 0, [])
    return found


class TestMultiLevelNavigation:
    def test_extents_covering_across_node_boundaries(self, env):
        fanout = env.config.root_fanout
        count = fanout * 3  # four leaf-parent nodes after splitting
        tree = make_tree(env, extents=count, size=10)
        assert tree.height >= 2
        covering = tree.extents_covering(0, count * 10)
        assert len(covering) == count
        starts = [start for _extent, start in covering]
        assert starts == list(range(0, count * 10, 10))
        for height in (2, 3):
            for crossings in (0, 1, 2):
                self.check_covering_from_mid_node(height, crossings)

    @staticmethod
    def check_covering_from_mid_node(height, crossings):
        """A range from mid-node across ``crossings`` leaf-parent
        boundaries: the extents and their starts, one pool access per
        non-root node entered and none for a step within a node, and
        those nodes left at the recency end in the order entered."""
        env = StorageEnvironment(small_page_config(page_size=128))
        config = env.config
        count = (
            config.root_fanout * 3 if height == 2
            else config.root_fanout * config.node_fanout + 5
        )
        tree = make_tree(env, extents=count, size=10)
        assert tree.height == height
        parents = leaf_parents(tree)
        # In the 3-level tree the second crossing also leaves the first
        # level-2 node, so it enters two nodes.
        first = 1 if height == 2 else len(
            tree._peek_node(parents[0][1][0]).refs
        ) - 2
        last = first + crossings
        offset = parents[first][0] + 15  # inside the node's second extent
        end = parents[last][0] + 45
        entered = list(parents[first][1])
        for index in range(first + 1, last + 1):
            previous = parents[index - 1][1]
            entered += [page for page in parents[index][1]
                        if page not in previous]
        assert len(entered) == height - 1 + crossings + (
            height == 3 and crossings == 2
        )
        expected, start = [], 0
        for extent in tree.iter_extents(charged=False):
            if start < end and start + extent.used_bytes > offset:
                expected.append((extent, start))
            start += extent.used_bytes
        assert len(expected) > crossings + 1  # same-node steps as well
        pool = env.pool
        for resident in (False, True):  # cold, then every node a hit
            before = (pool.stats.hits, pool.stats.misses)
            assert tree.extents_covering(offset, end - offset) == expected
            assert (
                pool.stats.hits - before[0], pool.stats.misses - before[1]
            ) == ((len(entered), 0) if resident else (0, len(entered)))
            recency = [page for page, _pins, _dirty in pool.frames()]
            assert recency[-len(entered):] == entered, (height, crossings)

    def test_locate_every_extent_in_three_level_tree(self, env):
        count = env.config.root_fanout * env.config.node_fanout + 5
        tree = make_tree(env, extents=count, size=1)
        assert tree.height == 3
        for offset in (0, 1, count // 2, count - 1):
            cursor = tree.locate(offset)
            assert cursor.extent_start == offset
            assert len(cursor.path) == 3

    def test_neighbors_across_node_boundary(self, env):
        fanout = env.config.root_fanout
        tree = make_tree(env, extents=fanout + 2, size=10)
        assert tree.height == 2
        # Find the boundary between the two leaf-parent nodes.
        root = tree._peek_node(tree.root_page_id)
        first_child_bytes = root.count(0)
        cursor = tree.locate(first_child_bytes)  # first extent of node 2
        left, right = tree.neighbors(cursor)
        assert left is not None
        assert right is not None
        assert (
            left.used_bytes + cursor.extent.used_bytes <= first_child_bytes
            or left is not None
        )

    def test_replace_span_across_node_boundary(self, env):
        fanout = env.config.root_fanout
        count = fanout + 4
        tree = make_tree(env, extents=count, size=10)
        root = tree._peek_node(tree.root_page_id)
        boundary = root.count(0)
        # Replace a span straddling the boundary with one big extent.
        span_start = boundary - 20
        tree.replace_span(span_start, 40, [extent(env, 40)])
        end_op(tree)
        tree.check_invariants()
        assert tree.total_bytes == count * 10
        cursor = tree.locate(span_start)
        assert cursor.extent.used_bytes == 40

    def test_misaligned_span_across_node_boundary_tears_nothing(self, env):
        count = env.config.root_fanout + 4
        tree = make_tree(env, extents=count, size=10)
        boundary = tree._peek_node(tree.root_page_id).count(0)
        span_start = boundary - 20
        tree.begin_op()
        tree.locate(span_start)                 # warm the pool
        before = fingerprint(env)
        # Two whole extents of the first leaf parent, then one and a half
        # of the second: the end falls inside an extent of another node.
        with pytest.raises(StorageCorruptionError, match="not extent-aligned"):
            tree.replace_span(span_start, 35, [])
        tree.check_invariants()
        end_op(tree)                    # a leaked dirty mark flushes here
        after = fingerprint(env)
        # The refusal cost the pool the one descent to the span's start
        # (a hit) and nothing else: the walk that found the ragged end
        # is uncharged.
        hits, *others = before.pop("pool")
        assert after.pop("pool") == (hits + 1, *others)
        assert after == before
        assert tree.total_bytes == count * 10


class TestEndOpBehaviour:
    def test_contiguous_dirty_pages_flush_in_one_call(self, env):
        tree = make_tree(env)
        # Force many splits in one op: freshly allocated sibling pages are
        # adjacent in the meta area, so the flush groups them.
        tree.begin_op()
        for _ in range(env.config.root_fanout + 2):
            tree.append_extent(extent(env, 10))
        before = env.cost.stats.write_calls
        pages_dirty = len(tree._dirty)
        end_op(tree)
        calls = env.cost.stats.write_calls - before
        assert calls <= pages_dirty  # grouping can only reduce calls

    def test_read_only_op_flushes_nothing(self, env):
        tree = make_tree(env, extents=20)
        before = env.cost.stats.write_calls
        tree.begin_op()
        tree.locate(55)
        tree.extents_covering(0, 100)
        end_op(tree)
        assert env.cost.stats.write_calls == before

    def test_root_write_is_never_charged(self, env):
        tree = make_tree(env)
        before = env.cost.stats.write_calls
        tree.begin_op()
        tree.append_extent(extent(env, 10))  # dirties only the root
        end_op(tree)
        assert env.cost.stats.write_calls == before


class TestIndexCostAccounting:
    def test_deep_tree_charges_node_reads_on_cold_pool(self, env):
        fanout = env.config.root_fanout
        tree = make_tree(env, extents=fanout + 2, size=10)
        # Evict everything by churning the pool with unrelated pages.
        filler = env.areas.data.allocate(env.config.buffer_pool_pages)
        for i in range(env.config.buffer_pool_pages):
            env.pool.fix(filler + i)
            env.pool.unfix(filler + i)
        before = env.cost.stats.read_calls
        tree.locate(5)
        assert env.cost.stats.read_calls > before

    def test_warm_pool_locates_for_free(self, env):
        fanout = env.config.root_fanout
        tree = make_tree(env, extents=fanout + 2, size=10)
        tree.locate(5)
        before = env.cost.stats.read_calls
        tree.locate(6)
        assert env.cost.stats.read_calls == before


class TestMetaSpaceHygiene:
    def test_long_edit_sequences_do_not_leak_index_pages(self, env):
        tree = make_tree(env, extents=40, size=50)
        for step in range(120):
            tree.begin_op()
            start = (step * 137) % (tree.total_bytes - 50)
            cursor = tree.locate(start)
            span_start = cursor.extent_start
            tree.replace_span(
                span_start,
                cursor.extent.used_bytes,
                [extent(env, 30), extent(env, 20)]
                if step % 2
                else [extent(env, 50)],
            )
            end_op(tree)
        tree.check_invariants()
        # Index pages in the meta area match the live node count exactly.
        assert env.areas.meta.allocated_pages == tree.index_page_count()
