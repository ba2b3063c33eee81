"""Unit tests for index node serialization (Section 2.1 layout)."""

import itertools
import random
import struct
from typing import Callable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buddy.area import DATA_AREA_BASE, META_AREA_BASE
from repro.core.api import LargeObjectStore
from repro.core.config import (
    NODE_HEADER_BYTES,
    ROOT_HEADER_BYTES,
    small_page_config,
)
from repro.core.env import StorageEnvironment
from repro.core.errors import StorageCorruptionError
from repro.recovery.crash import rebuild_content
from repro.tree.node import _NODE_HEADER, _ROOT_HEADER, IndexNode, LeafExtent
from tests.conftest import end_op
from tests.test_tree import make_tree

CONFIG = small_page_config(page_size=256)


def leaf_alloc(used, _rightmost, page_size=256):
    return -(-used // page_size)


class TestHeaderSizes:
    def test_root_header_matches_config_constant(self):
        assert _ROOT_HEADER.size == ROOT_HEADER_BYTES

    def test_node_header_matches_config_constant(self):
        assert _NODE_HEADER.size == NODE_HEADER_BYTES


class TestLeafExtent:
    def test_used_pages(self):
        extent = LeafExtent(page_id=0, used_bytes=257, alloc_pages=2)
        assert extent.used_pages(256) == 2


class TestSerialization:
    def test_internal_node_roundtrip(self):
        node = IndexNode(META_AREA_BASE + 5, 2, DATA_AREA_BASE, META_AREA_BASE)
        node.insert(0, 100, META_AREA_BASE + 10)
        node.insert(1, 250, META_AREA_BASE + 11)
        data = node.serialize(CONFIG, is_root=False)
        rebuilt, _total, _rm = IndexNode.deserialize(
            data, node.page_id, is_root=False,
            data_base=DATA_AREA_BASE, meta_base=META_AREA_BASE,
            leaf_alloc_pages=leaf_alloc,
        )
        assert rebuilt.level == 2
        assert rebuilt.counts() == [100, 250]
        assert rebuilt.cums == [100, 350]
        assert rebuilt.refs == [META_AREA_BASE + 10, META_AREA_BASE + 11]
        assert rebuilt.allocs == []

    def test_leaf_parent_root_roundtrip(self):
        node = IndexNode(META_AREA_BASE + 1, 1, DATA_AREA_BASE, META_AREA_BASE)
        node.splice(0, 0, [
            LeafExtent(DATA_AREA_BASE + 7, 300, 2),
            LeafExtent(DATA_AREA_BASE + 20, 90, 1),
        ])
        data = node.serialize(
            CONFIG, is_root=True, total_bytes=390, rightmost_alloc=1
        )
        rebuilt, total, rightmost = IndexNode.deserialize(
            data, node.page_id, is_root=True,
            data_base=DATA_AREA_BASE, meta_base=META_AREA_BASE,
            leaf_alloc_pages=leaf_alloc,
        )
        assert total == 390
        assert rightmost == 1
        assert rebuilt.counts() == [300, 90]
        assert rebuilt.refs == [7, 20]       # as the page holds them
        first = rebuilt.extent(0)
        assert isinstance(first, LeafExtent)
        assert first.page_id == DATA_AREA_BASE + 7
        assert first.alloc_pages == 2

    def test_wrong_magic_rejected(self):
        with pytest.raises(StorageCorruptionError):
            IndexNode.deserialize(
                bytes(256), 1, is_root=False,
                data_base=DATA_AREA_BASE, meta_base=META_AREA_BASE,
                leaf_alloc_pages=leaf_alloc,
            )

    def test_overfull_node_rejected_at_serialize(self):
        node = IndexNode(1, 2, DATA_AREA_BASE, META_AREA_BASE)
        for i in range(100):
            node.insert(i, 1, META_AREA_BASE + i)
        with pytest.raises(StorageCorruptionError):
            node.serialize(CONFIG, is_root=False)
        # A root commit refuses it too, before anything is deferred.
        with pytest.raises(StorageCorruptionError):
            node.snapshot(CONFIG, is_root=True, total_bytes=100)

    def test_one_node_laid_out_both_ways_and_at_two_page_sizes(self):
        """One node serializes under both header layouts and at two page
        sizes, in any order."""
        node = IndexNode(META_AREA_BASE + 1, 1, DATA_AREA_BASE, META_AREA_BASE)
        node.splice(0, 0, [LeafExtent(DATA_AREA_BASE + i, 10 + i, 1)
                           for i in range(5)])
        counts, pointers = node.counts(), list(range(5))
        for is_root, config in [
            (False, CONFIG), (True, CONFIG), (False, DIFF_CONFIG),
            (False, CONFIG),
        ]:
            image = node.serialize(
                config, is_root=is_root, total_bytes=sum(counts),
                rightmost_alloc=1,
            )
            assert image == _encode(
                1, counts, pointers, config.page_size,
                root=(sum(counts), 1) if is_root else None,
            )


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.integers(min_value=1, max_value=10_000),
        min_size=1,
        max_size=CONFIG.node_fanout,
    ),
    st.booleans(),
)
def test_roundtrip_preserves_counts(counts, is_root):
    """Property: cumulative encoding round-trips arbitrary counts."""
    if is_root and len(counts) > CONFIG.root_fanout:
        counts = counts[: CONFIG.root_fanout]
    page_id = META_AREA_BASE + 3
    node = IndexNode(page_id, 1, DATA_AREA_BASE, META_AREA_BASE)
    for i, c in enumerate(counts):
        node.insert(i, c, i, leaf_alloc(c, False))
    data = node.serialize(
        CONFIG, is_root=is_root, total_bytes=sum(counts),
        rightmost_alloc=node.allocs[-1],
    )
    rebuilt, _t, _r = IndexNode.deserialize(
        data, page_id, is_root=is_root,
        data_base=DATA_AREA_BASE, meta_base=META_AREA_BASE,
        leaf_alloc_pages=leaf_alloc,
    )
    assert rebuilt.counts() == counts


class TestCorruptPagesFailTyped:
    """``deserialize`` is fed ``peek_pages`` images that bypassed the CRC
    check (reopen, crash recovery), so a torn page must raise the typed
    error the sweeps classify, never ``struct.error`` or a silent fix-up."""

    @staticmethod
    def _decode(page: bytes) -> None:
        IndexNode.deserialize(
            page, 9, is_root=False,
            data_base=DATA_AREA_BASE, meta_base=META_AREA_BASE,
            leaf_alloc_pages=leaf_alloc,
        )

    @staticmethod
    def _page(level: int, n: int, pairs: list[int]) -> bytes:
        header = struct.pack("<2sBBHH", b"IN", level, 0, n, 0)
        body = struct.pack(f"<{len(pairs)}I", *pairs)
        return (header + body).ljust(CONFIG.page_size, b"\x00")

    def test_pair_count_beyond_the_page(self):
        with pytest.raises(StorageCorruptionError, match="more than fit"):
            self._decode(self._page(2, 600, [100, 1]))

    def test_non_increasing_cumulative_counts(self):
        with pytest.raises(StorageCorruptionError, match="non-increasing"):
            self._decode(self._page(2, 2, [100, 1, 50, 2]))

    def test_level_zero(self):
        with pytest.raises(StorageCorruptionError, match="level 0"):
            self._decode(self._page(0, 1, [100, 1]))

    def test_bytes_after_the_last_pair_are_not_kept(self):
        """A node decoded from a page with residue past its pairs encodes
        to a clean page: the kept image ends at the last pair."""
        page = self._page(2, 1, [100, 1, 0xDEAD, 0xBEEF])
        node, _total, _rm = IndexNode.deserialize(
            page, 9, is_root=False,
            data_base=DATA_AREA_BASE, meta_base=META_AREA_BASE,
            leaf_alloc_pages=leaf_alloc,
        )
        assert node.serialize(CONFIG, is_root=False) == self._page(
            2, 1, [100, 1]
        )


# ----------------------------------------------------------------------
# Differential test: every mutator against a naive list-of-counts model
# ----------------------------------------------------------------------
def _encode(
    level: int, counts: list[int], pointers: list[int], page_size: int,
    root: tuple[int, int] | None = None,
) -> bytes:
    """From-scratch page image, one pair at a time; ``root`` is the root
    header's (total bytes, rightmost allocation)."""
    if root is None:
        page = struct.pack("<2sBBHH", b"IN", level, 0, len(counts), 0)
    else:
        page = struct.pack(
            "<2sBBHHQIQQI", b"RT", level, 0, len(counts), 0, *root, 0, 0, 0
        )
    total = 0
    for count, pointer in zip(counts, pointers):
        total += count
        page += struct.pack("<II", total, pointer)
    return page.ljust(page_size, b"\x00")


DIFF_CONFIG = small_page_config(page_size=1024)


class _Model:
    """A node as plain lists; every change recomputes from scratch.

    ``pointers`` are what the page stores: relative to the area base at
    both levels.
    """

    def __init__(self, level: int, is_root: bool) -> None:
        self.node = IndexNode(
            META_AREA_BASE + 1, level, DATA_AREA_BASE, META_AREA_BASE
        )
        self.is_root = is_root
        self.counts: list[int] = []
        self.pointers: list[int] = []
        self.allocs: list[int] = []
        #: Every snapshot a check took, with the image it built then.
        self.snapshots: list[tuple[Callable[[], bytes], bytes]] = []

    def check(self) -> None:
        node, counts, pointers = self.node, self.counts, self.pointers
        level, n = node.level, len(counts)
        assert node.cums == list(itertools.accumulate(counts))
        assert node.counts() == counts
        assert node.total_bytes == sum(counts)
        if level == 1:
            assert node.refs == pointers
            assert node.allocs == self.allocs
            extents = [
                (DATA_AREA_BASE + p, c, a)
                for p, c, a in zip(pointers, counts, self.allocs)
            ]
            assert node.extents() == extents
            assert [node.extent(i) for i in range(n)] == extents
            assert all(type(e) is LeafExtent for e in node.extents())
            if n:
                assert type(node.extent(n - 1)) is LeafExtent
        else:
            assert node.refs == [META_AREA_BASE + p for p in pointers]
            assert node.allocs == []
        root = (sum(counts), self.allocs[-1] if self.allocs else 0)
        image = node.serialize(
            DIFF_CONFIG, is_root=self.is_root,
            total_bytes=root[0], rightmost_alloc=root[1],
        )
        assert type(image) is bytes
        assert image == _encode(
            level, counts, pointers, DIFF_CONFIG.page_size,
            root=root if self.is_root else None,
        )
        # The snapshot builds the from-scratch encoding now, and the last
        # few earlier ones still build theirs after the node changed.
        build = node.snapshot(
            DIFF_CONFIG, is_root=self.is_root,
            total_bytes=root[0], rightmost_alloc=root[1],
        )
        self.snapshots.append((build, image))
        for earlier, then in self.snapshots[-3:]:
            assert earlier() == then

        # The page decodes to the same columns and the same image.
        # The allocations are not on the page: the hook hands them back
        # in order, and must be asked pair by pair with the right flags.
        asked = []

        def hook(used_bytes: int, is_rightmost: bool) -> int:
            asked.append((used_bytes, is_rightmost))
            return self.allocs[len(asked) - 1]

        rebuilt, total, rightmost = IndexNode.deserialize(
            image, node.page_id, is_root=self.is_root,
            data_base=DATA_AREA_BASE, meta_base=META_AREA_BASE,
            leaf_alloc_pages=hook,
        )
        assert (total, rightmost) == (root if self.is_root else (0, 0))
        assert (rebuilt.level, rebuilt.page_id) == (level, node.page_id)
        assert rebuilt.cums == node.cums
        assert rebuilt.refs == node.refs
        assert rebuilt.allocs == node.allocs
        assert asked == (
            [(c, self.is_root and i == n - 1) for i, c in enumerate(counts)]
            if level == 1 else []
        )
        assert rebuilt.serialize(
            DIFF_CONFIG, is_root=self.is_root,
            total_bytes=root[0], rightmost_alloc=root[1],
        ) == image


@pytest.mark.parametrize("level", [1, 2])
@pytest.mark.parametrize("seed", range(5))
def test_every_mutator_matches_a_naive_model(level, seed):
    for is_root in (False, True):
        _drive_every_mutator(level, seed, is_root)


def _drive_every_mutator(level: int, seed: int, is_root: bool) -> None:
    rng = random.Random(seed)
    a, b = _Model(level, is_root), _Model(level, is_root)
    pointer = itertools.count(1)

    def cells(m: _Model, count: int) -> tuple[int, int, int]:
        """(what ``insert`` takes as ref, page pointer, allocation)."""
        p = next(pointer)
        if level == 1:
            return p, p, rng.randint(1, 9)
        return META_AREA_BASE + p, p, 0

    for _step in range(400):
        m = rng.choice((a, b))
        other = b if m is a else a
        n = len(m.counts)
        op = rng.choice(
            ("insert", "insert", "append", "pop", "add", "ref", "alloc",
             "take", "splice")
        )
        if op in ("insert", "append") and n < 100:
            i = n if op == "append" else rng.randint(0, n)
            count = rng.randint(1, 5000)
            ref, p, alloc = cells(m, count)
            m.node.insert(i, count, ref, alloc)
            m.counts.insert(i, count)
            m.pointers.insert(i, p)
            if level == 1:
                m.allocs.insert(i, alloc)
        elif op == "pop" and n:
            i = rng.randrange(n)
            count, ref, alloc = m.node.pop(i)
            assert count == m.counts.pop(i)
            p = m.pointers.pop(i)
            if level == 1:
                assert (ref, alloc) == (p, m.allocs.pop(i))
            else:
                assert (ref, alloc) == (META_AREA_BASE + p, 0)
        elif op == "add" and n:
            i = rng.choice((rng.randrange(n), n - 1))
            count = rng.randint(1, 5000)
            if level == 1:
                delta = m.node.update_extent(i, used_bytes=count)
                assert delta == count - m.counts[i]
            else:
                m.node.add_count(i, count - m.counts[i])
            m.counts[i] = count
        elif op == "ref" and n:
            i, p = rng.randrange(n), next(pointer)
            if level == 1:
                m.node.update_extent(i, page_id=DATA_AREA_BASE + p)
            else:
                m.node.set_ref(i, META_AREA_BASE + p)
            m.pointers[i] = p
        elif op == "alloc" and level == 1 and n:
            i = rng.randrange(n)
            if rng.random() < 0.5:
                m.allocs[i] = rng.randint(1, 9)
                m.node.update_extent(i, alloc_pages=m.allocs[i])
            else:
                # All three cells of the pair at once.
                m.counts[i], m.pointers[i], m.allocs[i] = (
                    rng.randint(1, 5000), next(pointer), rng.randint(1, 9)
                )
                m.node.update_extent(
                    i, m.counts[i], DATA_AREA_BASE + m.pointers[i], m.allocs[i]
                )
        elif op == "splice" and level == 1 and n < 100:
            i = rng.randint(0, n)
            k = rng.randint(0, min(4, n - i))
            gone = sum(m.counts[i:i + k])
            counts = [rng.randint(1, 5000) for _ in range(rng.randint(0, 4))]
            if 2 <= len(counts) <= gone and rng.random() < 0.5:
                # The same bytes cut elsewhere: no net change, no shift.
                cuts = sorted(rng.sample(range(1, gone), len(counts) - 1))
                counts = [b - a for a, b in zip([0] + cuts, cuts + [gone])]
            pointers = [next(pointer) for _ in counts]
            allocs = [rng.randint(1, 9) for _ in counts]
            delta = m.node.splice(i, k, [
                LeafExtent(DATA_AREA_BASE + p, c, a)
                for p, c, a in zip(pointers, counts, allocs)
            ])
            assert delta == sum(counts) - gone
            m.counts[i:i + k] = counts
            m.pointers[i:i + k] = pointers
            m.allocs[i:i + k] = allocs
        elif op == "take" and len(other.counts) and n < 60:
            room = 120 - n          # a 1,024-byte root holds 123 pairs
            start = rng.randint(
                max(0, len(other.counts) - room), len(other.counts)
            )
            moved = m.node.take(other.node, start)
            assert moved == sum(other.counts[start:])
            m.counts += other.counts[start:]
            m.pointers += other.pointers[start:]
            m.allocs += other.allocs[start:]
            del other.counts[start:], other.pointers[start:]
            del other.allocs[start:]
        a.check()
        b.check()


def _small_tree():
    """Page 128 -> root fanout 11, node fanout 15."""
    env = StorageEnvironment(small_page_config(page_size=128))
    return env, make_tree(env)


@pytest.mark.parametrize("seed", range(3))
def test_tree_rebalancing_matches_a_naive_model(seed):
    """Split, borrow, merge, root split and collapse through a
    small-fanout tree, by spans of 0-4 extents replaced by 0-4: after
    every operation the tree's extents equal a list of (page, bytes,
    allocation) triples, and each node's columns and serialized bytes —
    the root's too — equal a from-scratch encoding of its pairs."""
    env, tree = _small_tree()
    config = env.config
    rng = random.Random(seed)
    model: list[tuple[int, int, int]] = []
    events = set()
    tree._event = lambda kind, **attrs: events.add(
        (kind, attrs.get("source"))
    )

    def check() -> None:
        tree.check_invariants()
        assert list(tree.iter_extents(charged=False)) == model
        assert tree.leaf_pages_allocated() == sum(a for _p, _c, a in model)
        position = 0
        for node in sorted(
            (n for n in tree._walk_nodes() if n.level == 1),
            key=lambda n: model.index(n.extent(0)) if n.cums else 0,
        ):
            mine = model[position:position + len(node.cums)]
            position += len(mine)
            assert node.extents() == mine
            assert node.refs == [p - DATA_AREA_BASE for p, _c, _a in mine]
            assert node.allocs == [a for _p, _c, a in mine]
        assert position == len(model)
        for node in tree._walk_nodes():
            counts = node.counts()
            assert node.cums == list(itertools.accumulate(counts))
            if node.level == 1:
                pointers = list(node.refs)
            else:
                assert node.allocs == []
                pointers = [p - META_AREA_BASE for p in node.refs]
            root = None
            if node.page_id == tree.root_page_id:
                root = (tree.total_bytes, model[-1][2] if model else 0)
            image = _encode(
                node.level, counts, pointers, config.page_size, root=root
            )
            if root is None:
                assert node.serialize(config, is_root=False) == image
                assert node.snapshot(config)() == image
            else:
                total, rightmost = root
                assert node.serialize(
                    config, is_root=True, total_bytes=total,
                    rightmost_alloc=rightmost,
                ) == image
                assert node.snapshot(
                    config, is_root=True, total_bytes=total,
                    rightmost_alloc=rightmost,
                )() == image

    def extents(count: int) -> list[LeafExtent]:
        new = []
        for _ in range(count):
            alloc = rng.randint(1, 3)
            new.append(LeafExtent(
                env.areas.data.allocate(alloc), rng.randint(1, 100), alloc
            ))
        return new

    for step in range(600):
        growing = step < 150 or (step >= 450 and rng.random() < 0.5)
        at = rng.randint(0, len(model))
        gone = min(rng.randint(0, 1 if growing else 4), len(model) - at)
        new = extents(rng.randint(1, 4) if growing else rng.randint(0, 1))
        tree.begin_op()
        tree.replace_span(
            sum(c for _p, c, _a in model[:at]),
            sum(c for _p, c, _a in model[at:at + gone]),
            new,
        )
        model[at:at + gone] = new
        end_op(tree)
        check()
    assert events == {
        ("tree.split.node", None), ("tree.split.root", None),
        ("tree.borrow", "left"), ("tree.borrow", "right"),
        ("tree.merge", None), ("tree.collapse.root", None),
    }


# ----------------------------------------------------------------------
# An extent is a value
# ----------------------------------------------------------------------
class TestExtentsAreValues:
    def _tree_of_three(self):
        _env, tree = _small_tree()
        tree.begin_op()
        tree.replace_span(0, 0, [
            LeafExtent(DATA_AREA_BASE + 10 * i, 100 + i, 2) for i in range(3)
        ])
        end_op(tree)
        return tree

    def test_an_extent_from_locate_outlives_later_updates_unchanged(self):
        tree = self._tree_of_three()
        cursor = tree.locate(150)
        taken = cursor.extent
        assert taken == (DATA_AREA_BASE + 10, 101, 2)
        tree.begin_op()
        tree.update_extent(
            tree.locate(150), used_bytes=7, page_id=DATA_AREA_BASE + 99,
            alloc_pages=1,
        )
        tree.replace_span(0, 100, [])
        end_op(tree)
        assert taken == (DATA_AREA_BASE + 10, 101, 2)
        assert tree.locate(0).extent == (DATA_AREA_BASE + 99, 7, 1)

    @pytest.mark.parametrize(
        "field", ["page_id", "used_bytes", "alloc_pages"]
    )
    def test_an_extent_cannot_be_assigned_to(self, field):
        tree = self._tree_of_three()
        for extent in (
            tree.locate(0).extent, tree.last_extent()[0],
            next(tree.iter_extents(charged=False)),
            tree.extents_covering(50, 100)[1][0],
        ):
            with pytest.raises(AttributeError):
                setattr(extent, field, 1)
        assert [tuple(e) for e in tree.iter_extents(charged=False)] == [
            (DATA_AREA_BASE + 10 * i, 100 + i, 2) for i in range(3)
        ]

    def test_cursor_extent_is_current_after_update_extent(self):
        tree = self._tree_of_three()
        cursor = tree.locate(150)
        tree.begin_op()
        tree.update_extent(cursor, used_bytes=120)
        assert cursor.extent == (DATA_AREA_BASE + 10, 120, 2)
        tree.update_extent(cursor, page_id=DATA_AREA_BASE + 77, alloc_pages=3)
        assert cursor.extent == (DATA_AREA_BASE + 77, 120, 3)
        # ... so a second size change through the same cursor is measured
        # from the current size, not from the one it was located with.
        tree.update_extent(cursor, used_bytes=cursor.extent.used_bytes + 5)
        end_op(tree)
        assert cursor.extent.used_bytes == 125
        assert tree.total_bytes == 100 + 125 + 102
        tree.check_invariants()


class TestImagesReadBackTheSameSegments:
    """``reload`` and the crash-recovery walk rebuild nodes from pages: a
    three-level EOS object whose rightmost segment carries append slack
    (recorded only in the root header) comes back segment for segment."""

    @pytest.fixture()
    def store(self):
        store = LargeObjectStore(
            "eos", small_page_config(page_size=128), threshold_pages=1
        )
        oid = store.create(bytes(range(256)) * 78)
        rng = random.Random(7)
        for i in range(700):
            store.insert(
                oid, rng.randrange(store.size(oid)), bytes([i % 251]) * 3
            )
        store.append(oid, b"a" * 500)     # doubling: the last of 4 pages
        store.append(oid, b"b" * 10)      # ... is still unused after this
        tree = store.manager.tree_of(oid)
        last, _start = tree.last_extent()
        assert tree.height == 3
        assert last.alloc_pages > last.used_pages(128)      # the slack
        return store, oid

    def test_reopen(self, store):
        store, oid = store
        live = store.manager.tree_of(oid)
        store.manager.reload(oid)
        tree = store.manager.tree_of(oid)
        assert tree is not live
        tree.check_invariants()
        expected = list(live.iter_extents(charged=False))
        assert list(tree.iter_extents(charged=False)) == expected
        assert list(tree.iter_extents(charged=True)) == expected
        assert tree.leaf_pages_allocated() == live.leaf_pages_allocated()
        assert (tree.height, tree.total_bytes) == (
            live.height, live.total_bytes
        )

    def test_crash_walk(self, store):
        store, oid = store
        live = store.manager.tree_of(oid)
        # The image walk is breadth first: every index page, then the
        # leaf parents' segments in object order.
        nodes = [live._peek_node(oid)]
        for node in nodes:
            if node.level > 1:
                nodes.extend(live._peek_node(child) for child in node.refs)
        expected_runs = [(node.page_id, 1) for node in nodes] + [
            (e.page_id, e.used_pages(128))
            for node in nodes if node.level == 1
            for e in node.extents()
        ]
        runs: list[tuple[int, int]] = []
        content = rebuild_content(store, oid, runs)
        assert content == store.read(oid, 0, store.size(oid))
        assert runs == expected_runs
