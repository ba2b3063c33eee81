"""Unit tests for index node serialization (Section 2.1 layout)."""

import itertools
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buddy.area import DATA_AREA_BASE, META_AREA_BASE
from repro.core.config import (
    NODE_HEADER_BYTES,
    ROOT_HEADER_BYTES,
    small_page_config,
)
from repro.core.env import StorageEnvironment
from repro.core.errors import StorageCorruptionError
from repro.tree.node import (
    IndexNode,
    LeafExtent,
    node_header_size,
    root_header_size,
)
from repro.tree.tree import PositionalTree

CONFIG = small_page_config(page_size=256)


def leaf_alloc(used, _rightmost, page_size=256):
    return -(-used // page_size)


class TestHeaderSizes:
    def test_root_header_matches_config_constant(self):
        assert root_header_size() == ROOT_HEADER_BYTES

    def test_node_header_matches_config_constant(self):
        assert node_header_size() == NODE_HEADER_BYTES


class TestLeafExtent:
    def test_used_pages(self):
        extent = LeafExtent(page_id=0, used_bytes=257, alloc_pages=2)
        assert extent.used_pages(256) == 2
        assert extent.free_bytes(256) == 255


class TestSerialization:
    def test_internal_node_roundtrip(self):
        node = IndexNode(page_id=META_AREA_BASE + 5, level=2)
        node.insert(0, 100, META_AREA_BASE + 10)
        node.insert(1, 250, META_AREA_BASE + 11)
        data = node.serialize(
            CONFIG, is_root=False,
            data_base=DATA_AREA_BASE, meta_base=META_AREA_BASE,
        )
        rebuilt, _total, _rm = IndexNode.deserialize(
            data, node.page_id, is_root=False,
            data_base=DATA_AREA_BASE, meta_base=META_AREA_BASE,
            leaf_alloc_pages=leaf_alloc,
        )
        assert rebuilt.level == 2
        assert rebuilt.counts() == [100, 250]
        assert rebuilt.cums == [100, 350]
        assert rebuilt.refs == [META_AREA_BASE + 10, META_AREA_BASE + 11]

    def test_leaf_parent_root_roundtrip(self):
        node = IndexNode(page_id=META_AREA_BASE + 1, level=1)
        node.insert(0, 300, LeafExtent(DATA_AREA_BASE + 7, 300, 2))
        node.insert(1, 90, LeafExtent(DATA_AREA_BASE + 20, 90, 1))
        data = node.serialize(
            CONFIG, is_root=True, total_bytes=390, rightmost_alloc=1,
            data_base=DATA_AREA_BASE, meta_base=META_AREA_BASE,
        )
        rebuilt, total, rightmost = IndexNode.deserialize(
            data, node.page_id, is_root=True,
            data_base=DATA_AREA_BASE, meta_base=META_AREA_BASE,
            leaf_alloc_pages=leaf_alloc,
        )
        assert total == 390
        assert rightmost == 1
        assert rebuilt.counts() == [300, 90]
        first = rebuilt.refs[0]
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
        node = IndexNode(page_id=1, level=2)
        for i in range(100):
            node.insert(i, 1, META_AREA_BASE + i)
        with pytest.raises(StorageCorruptionError):
            node.serialize(
                CONFIG, is_root=False,
                data_base=DATA_AREA_BASE, meta_base=META_AREA_BASE,
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
    node = IndexNode(page_id=page_id, level=1)
    for i, c in enumerate(counts):
        node.insert(i, c, LeafExtent(DATA_AREA_BASE + i, c, leaf_alloc(c, False)))
    data = node.serialize(
        CONFIG, is_root=is_root, total_bytes=sum(counts),
        rightmost_alloc=node.refs[-1].alloc_pages,
        data_base=DATA_AREA_BASE, meta_base=META_AREA_BASE,
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


# ----------------------------------------------------------------------
# Differential test: every mutator against a naive list-of-counts model
# ----------------------------------------------------------------------
def _encode(
    level: int, counts: list[int], pointers: list[int], page_size: int
) -> bytes:
    """From-scratch page image of a non-root node, one pair at a time."""
    page = struct.pack("<2sBBHH", b"IN", level, 0, len(counts), 0)
    total = 0
    for count, pointer in zip(counts, pointers):
        total += count
        page += struct.pack("<II", total, pointer)
    return page.ljust(page_size, b"\x00")


DIFF_CONFIG = small_page_config(page_size=1024)


class _Model:
    """A node as two plain lists; every change recomputes from scratch."""

    def __init__(self, level: int) -> None:
        self.node = IndexNode(META_AREA_BASE + 1, level)
        self.counts: list[int] = []
        self.pointers: list[int] = []

    def ref(self, pointer: int, count: int):
        if self.node.level == 1:
            return LeafExtent(DATA_AREA_BASE + pointer, count, 1)
        return META_AREA_BASE + pointer

    def check(self) -> None:
        node = self.node
        assert node.cums == list(itertools.accumulate(self.counts))
        assert node.counts() == self.counts
        assert node.total_bytes == sum(self.counts)
        assert len(node.refs) == len(self.counts)
        if node.level == 1:
            assert [e.used_bytes for e in node.refs] == self.counts
        image = node.serialize(
            DIFF_CONFIG, is_root=False,
            data_base=DATA_AREA_BASE, meta_base=META_AREA_BASE,
        )
        assert image == _encode(
            node.level, self.counts, self.pointers, DIFF_CONFIG.page_size
        )


@pytest.mark.parametrize("level", [1, 2])
@pytest.mark.parametrize("seed", range(5))
def test_every_mutator_matches_a_naive_model(level, seed):
    rng = random.Random(seed)
    a, b = _Model(level), _Model(level)
    pointer = itertools.count(1)
    for _step in range(400):
        m = rng.choice((a, b))
        other = b if m is a else a
        n = len(m.counts)
        op = rng.choice(
            ("insert", "insert", "append", "pop", "add", "ref", "take",
             "splice")
        )
        if op in ("insert", "append") and n < 100:
            i = n if op == "append" else rng.randint(0, n)
            count, p = rng.randint(1, 5000), next(pointer)
            m.node.insert(i, count, m.ref(p, count))
            m.counts.insert(i, count)
            m.pointers.insert(i, p)
        elif op == "pop" and n:
            i = rng.randrange(n)
            count, _ref = m.node.pop(i)
            assert count == m.counts.pop(i)
            m.pointers.pop(i)
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
            delta = m.node.splice(
                i, k, [m.ref(p, c) for p, c in zip(pointers, counts)]
            )
            assert delta == sum(counts) - gone
            m.counts[i:i + k] = counts
            m.pointers[i:i + k] = pointers
        elif op == "take" and len(other.counts) and n < 60:
            room = 120 - n          # a 1,024-byte page holds 127 pairs
            start = rng.randint(
                max(0, len(other.counts) - room), len(other.counts)
            )
            moved = m.node.take(other.node, start)
            assert moved == sum(other.counts[start:])
            m.counts += other.counts[start:]
            m.pointers += other.pointers[start:]
            del other.counts[start:], other.pointers[start:]
        a.check()
        b.check()


@pytest.mark.parametrize("seed", range(3))
def test_tree_rebalancing_matches_a_naive_model(seed):
    """Split, borrow, merge, root split and collapse through a
    small-fanout tree, by spans of 0-4 extents replaced by 0-4: after
    every operation each node's ``cums`` and serialized bytes equal a
    from-scratch encoding of its pairs."""
    config = small_page_config(page_size=128)
    env = StorageEnvironment(config)
    tree = PositionalTree(
        config, env.pool, env.areas.meta, data_base=DATA_AREA_BASE
    )
    tree.create()
    rng = random.Random(seed)
    sizes: list[int] = []
    events = set()
    tree._event = lambda kind, **attrs: events.add(
        (kind, attrs.get("source"))
    )

    def check() -> None:
        tree.check_invariants()
        assert [e.used_bytes for e in tree.iter_extents(charged=False)] == sizes
        for node in tree._walk_nodes():
            counts = node.counts()
            assert node.cums == list(itertools.accumulate(counts))
            if node.page_id == tree.root_page_id:
                continue
            if node.level == 1:
                pointers = [e.page_id - DATA_AREA_BASE for e in node.refs]
            else:
                pointers = [p - META_AREA_BASE for p in node.refs]
            assert tree._serialize_node(node) == _encode(
                node.level, counts, pointers, config.page_size
            )

    def extents(count: int) -> list[LeafExtent]:
        return [
            LeafExtent(env.areas.data.allocate(1), rng.randint(1, 100), 1)
            for _ in range(count)
        ]

    for step in range(600):
        growing = step < 150 or (step >= 450 and rng.random() < 0.5)
        at = rng.randint(0, len(sizes))
        gone = min(rng.randint(0, 1 if growing else 4), len(sizes) - at)
        new = extents(rng.randint(1, 4) if growing else rng.randint(0, 1))
        tree.begin_op()
        tree.replace_span(sum(sizes[:at]), sum(sizes[at:at + gone]), new)
        sizes[at:at + gone] = [e.used_bytes for e in new]
        tree.end_op()
        check()
    assert events == {
        ("tree.split.node", None), ("tree.split.root", None),
        ("tree.borrow", "left"), ("tree.borrow", "right"),
        ("tree.merge", None), ("tree.collapse.root", None),
    }
