"""``replace_span``'s run loop against the one-pair-at-a-time loop it replaced.

The reference below is that older algorithm, kept here as the tests'
yardstick: one root-to-leaf descent, one single-pair ``IndexNode``
mutator call, one shadowing of the path and one rebalance check per
extent removed and per extent inserted.  It is built only from the
node's single-pair mutators and the tree's own rebalancing methods, so
what it pins is the *order* of the work — which descents reach the pool,
when the path is shadowed, when a node splits, borrows or merges — not a
second copy of the rebalancing rules.
"""

import dataclasses
import random

import pytest

from repro.buddy.area import DATA_AREA_BASE
from repro.core.config import small_page_config
from repro.core.env import StorageEnvironment
from repro.obs.tracer import Tracer
from repro.tree.node import LeafExtent
from repro.tree.tree import PositionalTree, _choose_child
from tests.conftest import end_op
from tests.test_tree import extent


# ----------------------------------------------------------------------
# The reference: one descent per pair
# ----------------------------------------------------------------------
class OnePairAtATime:
    """``replace_span`` as k single deletions, then m single insertions.

    ``seen`` collects the situations a call went through, so the test
    can insist that its random spans reached every one of them.
    """

    def __init__(self, tree: PositionalTree, seen: set[str]) -> None:
        self.tree = tree
        self.seen = seen
        self.events = 0
        tree_event = tree._event

        def counting_event(kind: str, **attrs: object) -> None:
            self.events += 1
            tree_event(kind, **attrs)

        tree._event = counting_event

    def replace_span(
        self, span_start: int, span_bytes: int, new_extents: list[LeafExtent]
    ) -> None:
        tree = self.tree
        removed = 0
        last_node = None
        quiet = True
        while removed < span_bytes:
            before = self.events
            count, node = self._delete_extent_at(span_start)
            removed += count
            if last_node is not None and quiet and node is not last_node:
                self.seen.add("span crosses leaf parents")
            quiet = self.events == before
            if not quiet and removed < span_bytes:
                self.seen.add("underflow in mid-removal")
            last_node = node
        assert removed == span_bytes
        if span_bytes and not tree.total_bytes:
            self.seen.add("root emptied")
        position = span_start
        for i, extent in enumerate(new_extents):
            before = self.events
            node = self._insert_extent_at(position, extent)
            if i == 0 and last_node is not None and quiet and node is not last_node:
                self.seen.add("emptied tail: the inserts land in the next node")
            if self.events > before and i + 1 < len(new_extents):
                self.seen.add("overflow in mid-insertion")
            position += extent.used_bytes

    def _delete_extent_at(self, position: int):
        tree = self.tree
        cursor = tree.locate(position)
        assert cursor.extent_start == position
        node, index = cursor.path[-1]
        removed, _pointer, _alloc = node.pop(index)
        for ancestor, child_index in cursor.path[:-1]:
            ancestor.add_count(child_index, -removed)
        tree.total_bytes -= removed
        tree._shadow_path(cursor.path[:-1], node)
        tree._fix_underflow(cursor.path[:-1], node)
        return removed, node

    def _insert_extent_at(self, position: int, extent: LeafExtent):
        tree = self.tree
        root = tree._get_node(tree.root_page_id)
        pair = (
            extent.used_bytes, extent.page_id - DATA_AREA_BASE,
            extent.alloc_pages,
        )
        if not root.refs:
            root.insert(0, *pair)
            tree.total_bytes += extent.used_bytes
            tree._mark_node_dirty(root)
            return root
        path = []
        node = root
        if position == tree.total_bytes:
            while not node.is_leaf_parent:
                index = len(node.refs) - 1
                path.append((node, index))
                node = tree._get_node(node.refs[index])
            insert_at = len(node.refs)
        else:
            start = 0
            while not node.is_leaf_parent:
                index, child_start = _choose_child(node, position - start)
                start += child_start
                path.append((node, index))
                node = tree._get_node(node.refs[index])
            insert_at, child_start = _choose_child(node, position - start)
            assert start + child_start == position
        node.insert(insert_at, *pair)
        for ancestor, child_index in path:
            ancestor.add_count(child_index, extent.used_bytes)
        tree.total_bytes += extent.used_bytes
        tree._shadow_path(path, node)
        tree._fix_overflow(path, node)
        return node


# ----------------------------------------------------------------------
# Twin environments
# ----------------------------------------------------------------------
class Twin:
    """One tree on its own traced environment."""

    def __init__(self, page_size: int, pool_frames: int) -> None:
        config = small_page_config(
            page_size=page_size, buffer_pool_pages=pool_frames
        )
        self.tracer = Tracer()
        self.traced = 0
        self.env = StorageEnvironment(config, tracer=self.tracer)
        self.tree = PositionalTree(
            config, self.env.pool, self.env.areas.meta,
            data_base=DATA_AREA_BASE,
        )
        self.tree.create()

    def extents(self, sizes: list[int]) -> list[LeafExtent]:
        return [extent(self.env, nbytes) for nbytes in sizes]

    def observable(self) -> dict[str, object]:
        """All that a manager, the pool, the disk or a trace could see."""
        tree, env = self.tree, self.env
        tree.check_invariants()
        events = self.tracer.records[self.traced:]
        self.traced += len(events)
        nodes = sorted(
            (
                node.page_id, node.level, node.dirty, list(node.cums),
                list(node.refs), list(node.allocs),
            )
            for node in tree._walk_nodes()
        )
        return {
            "nodes": nodes,
            "in memory": sorted(tree._nodes),
            "dirty": sorted(tree._dirty),
            "shape": (tree.root_page_id, tree.height, tree.total_bytes),
            "io": dataclasses.astuple(env.cost.stats),
            "pool": dataclasses.astuple(env.pool.stats),
            "frames": [
                (page_id, dirty, pins)
                for page_id, pins, dirty in env.pool.frames()
            ],
            "index pages": env.areas.meta.allocated_pages,
            "events since the last look": events,
        }


EVENT_KINDS = {
    "tree.split.node", "tree.split.root", "tree.borrow", "tree.merge",
    "tree.collapse.root",
}
SITUATIONS = {
    "span crosses leaf parents",
    "emptied tail: the inserts land in the next node",
    "root emptied",
    "underflow in mid-removal",
    "overflow in mid-insertion",
    "the same bytes over other extents",
}


@pytest.mark.parametrize("pool_frames", [3, 12])
@pytest.mark.parametrize("page_size", [128, 256])
@pytest.mark.parametrize("seed", [1992, 2718])
def test_run_loop_matches_one_pair_at_a_time(seed, page_size, pool_frames):
    """Seeded spans of 0-6 extents replaced by 0-6 extents, on a tree
    grown (at 128-byte pages, to three levels) and drained until the
    root is empty: after every operation the two trees, their pools,
    ledgers and traces are equal, and at the end so are the raw disk
    images."""
    rng = random.Random(seed)
    new, old = Twin(page_size, pool_frames), Twin(page_size, pool_frames)
    seen: set[str] = set()
    reference = OnePairAtATime(old.tree, seen)
    sizes: list[int] = []
    steps = 700
    for step in range(steps):
        growing = step < 0.3 * steps or 0.6 * steps <= step < 0.75 * steps
        draining = step >= 0.9 * steps
        k = rng.randint(0, 2 if growing else 6)
        m = rng.randint(0, 6 if growing else 0 if draining else 2)
        if rng.random() < 0.1:
            k, m = rng.randint(0, 6), rng.randint(0, 6)
        first = rng.randint(0, len(sizes))
        if rng.random() < 0.15:
            first = max(0, len(sizes) - k)          # reach the object's end
        k = min(k, len(sizes) - first)
        new_sizes = [rng.randint(1, 120) for _ in range(m)]
        span_start, span_bytes = sum(sizes[:first]), sum(sizes[first:first + k])
        if 2 <= m <= span_bytes and rng.random() < 0.3:
            # A redistribution: the same bytes cut at other places.
            cuts = sorted(rng.sample(range(1, span_bytes), m - 1))
            new_sizes = [
                b - a for a, b in zip([0] + cuts, cuts + [span_bytes])
            ]
            seen.add("the same bytes over other extents")
        probe = rng.randrange(sum(sizes)) if sizes and rng.random() < 0.3 else None
        for twin, replace_span in (
            (new, new.tree.replace_span), (old, reference.replace_span)
        ):
            twin.tree.begin_op()
            if probe is not None:
                twin.tree.locate(probe)         # a manager's own descent
            replace_span(span_start, span_bytes, twin.extents(new_sizes))
            end_op(twin.tree)
        sizes[first:first + k] = new_sizes
        assert new.observable() == old.observable(), f"step {step}"
        assert [
            e.used_bytes for e in new.tree.iter_extents(charged=False)
        ] == sizes
    assert new.env.disk.image() == old.env.disk.image()
    kinds = {record["kind"] for record in new.tracer.records}
    assert EVENT_KINDS <= kinds
    assert seen == SITUATIONS
    if page_size == 128:
        assert any(
            record["kind"] == "tree.split.root"
            and record["attrs"]["height"] == 3
            for record in new.tracer.records
        )
