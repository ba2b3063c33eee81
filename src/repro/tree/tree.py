"""The positional count tree shared by ESM and EOS (Sections 2.1, 2.3, 3.4).

The tree is a B+-tree-like structure whose nodes hold (count, pointer)
pairs; descending by byte offset locates the data segment holding any byte
in time independent of the object size.  As in B-trees, internal nodes are
required to be at least half full.  The code that manipulates index nodes
— split, merge, rotate, adding and deleting pairs — is shared between the
ESM and EOS managers, exactly as in the paper's prototypes; the managers
differ only in how they produce and consume *leaf extents*.

Index-page I/O is charged through the buffer pool (a node visit fixes its
page), and index-page updates follow the shadowing policy of Section 3.3:
every modified node except the root moves to a freshly allocated page, and
all modified pages are flushed at the end of the operation.
"""

from __future__ import annotations

import bisect
import dataclasses
from typing import Callable, Iterator

from repro.buddy.allocator import BuddyAllocator
from repro.buffer.pool import BufferPool
from repro.core.config import SystemConfig
from repro.core.errors import (
    ByteRangeError,
    ObjectTooLargeError,
    StorageCorruptionError,
)
from repro.disk.disk import contiguous_runs
from repro.obs.tracer import span_of
from repro.recovery.shadow import DEFAULT_SHADOW, ShadowPolicy
from repro.tree.node import MAX_OBJECT_BYTES, IndexNode, LeafExtent

#: Signature of the hook that recomputes a segment's allocated page count
#: when a node is rebuilt from disk: (used_bytes, is_rightmost) -> pages.
LeafAllocFn = Callable[[int, bool], int]


@dataclasses.dataclass(slots=True)
class Cursor:
    """Result of locating a byte offset: the extent holding it.

    ``path`` records the descent as (node, child index) pairs from the
    root down to the leaf-parent node, so mutations can propagate counts
    and shadowing upward without a second descent.  ``extent`` is a
    value; :meth:`PositionalTree.update_extent` replaces it with the
    current one.
    """

    extent: LeafExtent
    extent_start: int
    path: list[tuple[IndexNode, int]]


class PositionalTree:
    """Positional B+-tree mapping byte offsets to leaf extents."""

    def __init__(
        self,
        config: SystemConfig,
        pool: BufferPool,
        meta: BuddyAllocator,
        data_base: int,
        shadow: ShadowPolicy = DEFAULT_SHADOW,
        leaf_alloc_pages: LeafAllocFn | None = None,
    ) -> None:
        self.config = config
        self.pool = pool
        self.meta = meta
        self.data_base = data_base
        self.shadow = shadow
        self.leaf_alloc_pages = leaf_alloc_pages or (
            lambda used, _rightmost: -(-used // config.page_size)
        )
        self.root_page_id: int | None = None
        self.height = 0
        self.total_bytes = 0
        self._nodes: dict[int, IndexNode] = {}
        self._dirty: set[int] = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def create(self) -> int:
        """Allocate the root page (one page, alone) for a new empty object."""
        if self.root_page_id is not None:
            raise StorageCorruptionError("tree already created")
        root = self._new_node(level=1)
        self.root_page_id = root.page_id
        self.height = 1
        self._mark_node_dirty(root)
        return self.root_page_id

    def reopen(self, root_page_id: int) -> None:
        """Rebuild the in-memory tree from its on-disk root page.

        The root deserializes uncharged (it is memory-resident with the
        object descriptor); the interior nodes below it are materialized
        through the buffer pool — charged reads — so the reopened tree
        supports the uncharged accounting walks (``allocated_pages``,
        ``destroy``).
        """
        if self.root_page_id is not None:
            raise StorageCorruptionError("tree already created")
        self.root_page_id = root_page_id
        root, self.total_bytes, rightmost_alloc = IndexNode.deserialize(
            self.pool.disk.peek_pages(root_page_id, 1),
            root_page_id,
            is_root=True,
            data_base=self.data_base,
            meta_base=self.meta.base_page_id,
            leaf_alloc_pages=self.leaf_alloc_pages,
        )
        self.height = root.level
        self._nodes[root_page_id] = root
        self._load_children(root)
        node = self._rightmost_leaf_parent()
        if rightmost_alloc and node is not None and node.cums:
            # The root header records the rightmost segment's true
            # allocation: it may carry untrimmed append slack that
            # ``leaf_alloc_pages`` cannot recompute from used bytes.
            node.update_extent(len(node.cums) - 1, alloc_pages=rightmost_alloc)

    def _load_children(self, node: IndexNode) -> None:
        if not node.is_leaf_parent:
            for page_id in node.refs:
                self._load_children(self._get_node(page_id))

    def destroy(self) -> list[LeafExtent]:
        """Free every index page; returns the extents for the caller to free."""
        extents = list(self.iter_extents(charged=False))
        for node in list(self._walk_nodes()):
            if node.page_id != self.root_page_id:
                self.meta.free(node.page_id, 1)
        assert self.root_page_id is not None
        self.meta.free(self.root_page_id, 1)
        self._nodes.clear()
        self._dirty.clear()
        self.root_page_id = None
        self.height = 0
        self.total_bytes = 0
        return extents

    # ------------------------------------------------------------------
    # Tracing hooks
    # ------------------------------------------------------------------
    def _event(self, kind: str, **attrs: object) -> None:
        """Record a structural tree event (split/merge/borrow) if traced."""
        tracer = self.pool.disk.tracer
        if tracer is not None:
            tracer.event(kind, **attrs)

    # ------------------------------------------------------------------
    # Operation brackets
    # ------------------------------------------------------------------
    def begin_op(self) -> None:
        """Start a logical operation; resets per-operation shadow marks."""
        for page_id in sorted(self._dirty):
            self._nodes[page_id].shadowed_this_op = False

    def end_op(self) -> bool:
        """Flush every index page modified by the operation (Section 3.3).

        The root is exempt: it lives with the object descriptor in the
        small object and is not charged as index-page I/O (the paper's
        Starburst 100-byte read costs exactly one data-page access, and
        level-1 appends have "no index pages to write").  Returns True
        when the operation changed the root: the caller then has the
        batch engine :meth:`commit_root` it at the batch boundary.  The
        charged non-root flush always runs per operation — deferring it
        would change the cost model.
        """
        if not self._dirty:
            return False
        root_dirty = self.root_page_id in self._dirty
        self._dirty.discard(self.root_page_id)
        with span_of(
            self.pool.disk.tracer,
            "tree.flush",
            pages_n=len(self._dirty),
            root_dirty=root_dirty,
        ):
            self._flush_non_root()
            if root_dirty:
                root = self._nodes[self.root_page_id]
                root.dirty = False
                root.shadowed_this_op = False
        return root_dirty

    def commit_root(self) -> None:
        """Commit the root's current state to its page (uncharged).

        The root write is the commit point: the batch engine calls this
        once per batch for every tree whose root changed, after every
        shadowed index page is safely on disk.  The disk gets a snapshot
        of the root (:meth:`IndexNode.snapshot`), packed only when
        the page is read (recovery, reopen, fsck), seldom before the
        next commit replaces it
        (:meth:`~repro.buffer.pool.BufferPool.commit_image`).  The root
        never relocates and is always readable from memory, so
        committing the *final* state once is image-equivalent to
        committing after every operation.
        """
        root_page_id = self.root_page_id
        root = self._nodes[root_page_id]
        parent = self._rightmost_leaf_parent()
        rightmost = parent.allocs[-1] if parent and parent.allocs else 0
        self.pool.commit_image(root_page_id, root.snapshot(
            self.config, is_root=True, total_bytes=self.total_bytes,
            rightmost_alloc=rightmost,
        ))

    def mark_root_dirty(self) -> None:
        """Re-mark the root dirty (in-memory only; no I/O).

        Used when a batch aborts after deferring this tree's root poke:
        the next successful operation's :meth:`end_op` then commits the
        root image, restoring the per-op contract that a failed
        operation's dirty marks are flushed by the next success.
        """
        root = self._nodes[self.root_page_id]
        root.dirty = True
        self._dirty.add(self.root_page_id)

    def _flush_non_root(self) -> None:
        """One charged write per run of dirty non-root nodes, each page a
        snapshot of its node built only if the page is read (recovery,
        reopen, fsck; the tree reads its nodes from memory)."""
        if not self._dirty:
            return
        nodes, config = self._nodes, self.config
        for run_start, run_len in contiguous_runs(sorted(self._dirty)):
            run = [nodes[run_start + i] for i in range(run_len)]
            self.pool.write_run(run_start, run_len, [
                node.snapshot(config) for node in run
            ], record=True)
            for node in run:
                node.dirty = False
                node.shadowed_this_op = False
        self._dirty.clear()

    # ------------------------------------------------------------------
    # Navigation
    # ------------------------------------------------------------------
    def locate(self, offset: int) -> Cursor:
        """Find the leaf extent containing byte ``offset``.

        ``offset == total_bytes`` is allowed and yields the rightmost
        extent (the append position).  Charges one index-page access per
        level through the buffer pool.
        """
        if self.root_page_id is None:
            raise StorageCorruptionError("tree not created")
        if not 0 <= offset <= self.total_bytes:
            raise ByteRangeError(
                f"offset {offset} outside object of {self.total_bytes} bytes"
            )
        node = self._get_node(self.root_page_id)
        if not node.refs:
            raise ByteRangeError("object is empty")
        path: list[tuple[IndexNode, int]] = []
        if offset == self.total_bytes:
            # Append position: every level takes its last child, so the
            # descent needs no cumulative counts or bisection at all —
            # the rightmost extent starts ``used_bytes`` before the end.
            while True:
                index = len(node.refs) - 1
                path.append((node, index))
                if node.level == 1:
                    extent = node.extent(index)
                    return Cursor(extent, offset - extent.used_bytes, path)
                node = self._get_node(node.refs[index])
        start = 0
        while True:
            index, child_start = _choose_child(node, offset - start)
            start += child_start
            path.append((node, index))
            if node.level == 1:
                return Cursor(node.extent(index), start, path)
            node = self._get_node(node.refs[index])

    def extents_covering(
        self, offset: int, nbytes: int
    ) -> list[tuple[LeafExtent, int]]:
        """All (extent, extent_start) pairs overlapping the byte range.

        Each pair after the first is read from its leaf parent's columns,
        uncharged; :meth:`_advance` only crosses into the next node.
        """
        if nbytes <= 0:
            return []
        if offset < 0 or offset + nbytes > self.total_bytes:
            raise ByteRangeError(
                f"range [{offset}, {offset + nbytes}) outside object of "
                f"{self.total_bytes} bytes"
            )
        cursor = self.locate(offset)
        result = [(cursor.extent, cursor.extent_start)]
        end = offset + nbytes
        position = cursor.extent_start + cursor.extent.used_bytes
        path = cursor.path
        node, index = path[-1]
        while position < end:
            index += 1
            if index == len(node.cums):
                path[-1] = (node, index - 1)
                if self._advance(path) is None:
                    raise StorageCorruptionError("ran off the end of the tree")
                node, index = path[-1]
            # IndexNode.extent's value, without the call.
            cums = node.cums
            used = cums[index] - cums[index - 1] if index else cums[0]
            result.append((tuple.__new__(LeafExtent, (
                node.data_base + node.refs[index], used, node.allocs[index]
            )), position))
            position += used
        return result

    def neighbors(
        self, cursor: Cursor
    ) -> tuple[LeafExtent | None, LeafExtent | None]:
        """The extents logically adjacent to the cursor's extent."""
        left = None
        right = None
        if cursor.extent_start > 0:
            left = self.locate(cursor.extent_start - 1).extent
        end = cursor.extent_start + cursor.extent.used_bytes
        if end < self.total_bytes:
            right = self.locate(end).extent
        return left, right

    def iter_extents(self, charged: bool = True) -> Iterator[LeafExtent]:
        """Iterate every leaf extent left to right.

        With ``charged=True`` index pages are accessed through the buffer
        pool (as a sequential scan would); ``charged=False`` walks the
        in-memory structure free of cost, for verification and accounting.
        """
        if self.root_page_id is None or self.total_bytes == 0:
            root = (
                self._nodes.get(self.root_page_id)
                if self.root_page_id is not None
                else None
            )
            if root is None or not root.refs:
                return
        if charged:
            cursor = self.locate(0)
            yield cursor.extent
            path = list(cursor.path)
            while True:
                extent = self._advance(path)
                if extent is None:
                    return
                yield extent
        else:
            yield from self._iter_extents_uncharged(
                self._peek_node(self.root_page_id)
            )

    def last_extent(self) -> tuple[LeafExtent, int] | None:
        """The rightmost extent and its start offset, or None if empty."""
        if self.root_page_id is None or self.total_bytes == 0:
            return None
        cursor = self.locate(self.total_bytes)
        return cursor.extent, cursor.extent_start

    def index_page_count(self) -> int:
        """Number of index pages including the root (uncharged)."""
        return sum(1 for _ in self._walk_nodes())

    def leaf_pages_allocated(self) -> int:
        """Pages allocated to the object's segments (uncharged)."""
        return sum(sum(node.allocs) for node in self._walk_nodes())

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def update_extent(
        self,
        cursor: Cursor,
        used_bytes: int | None = None,
        page_id: int | None = None,
        alloc_pages: int | None = None,
    ) -> None:
        """Change the cursor's extent (size, location, or both).

        Byte-count changes propagate up the recorded path; the path's
        nodes are shadowed and marked dirty, and ``cursor.extent`` is
        replaced by the extent as it now is.
        """
        node, index = cursor.path[-1]
        if used_bytes is not None:
            if used_bytes <= 0:
                raise ByteRangeError("an extent must keep at least one byte")
            self.check_growth(used_bytes - node.count(index))
        delta = node.update_extent(index, used_bytes, page_id, alloc_pages)
        cursor.extent = node.extent(index)
        if delta:
            for ancestor, child_index in cursor.path[:-1]:
                ancestor.add_count(child_index, delta)
            self.total_bytes += delta
        self._shadow_path(cursor.path[:-1], node)

    def check_growth(self, nbytes: int) -> None:
        """Refuse growth by ``nbytes`` that the 4-byte counts of an index
        page cannot hold.  The mutators call it before their first
        change; a manager calls it before its first segment write, so a
        refused operation leaves no trace.
        """
        if self.total_bytes + nbytes > MAX_OBJECT_BYTES:
            raise ObjectTooLargeError(
                f"object of {self.total_bytes} bytes cannot grow by "
                f"{nbytes}: the limit is {MAX_OBJECT_BYTES} bytes"
            )

    def append_extent(self, extent: LeafExtent) -> None:
        """Add an extent at the end of the object."""
        self.replace_span(self.total_bytes, 0, [extent])

    def replace_span(
        self, span_start: int, span_bytes: int, new_extents: list[LeafExtent]
    ) -> None:
        """Replace the extents exactly tiling a byte span with new ones.

        ``span_start`` must be an extent boundary and the span must end on
        an extent boundary; both are verified before the first change, so
        a refused span leaves the tree as it was.  This is the single
        index-maintenance entry point used for splits, merges,
        redistributions, removals and appends; the net byte delta adjusts
        the object size.

        The work is done in *runs*: one descent to the leaf parent where
        the boundary lives, one :meth:`IndexNode.splice` of as many
        consecutive pairs as leave the node legal until the run's last
        pair, one count update per ancestor, one shadowing of the path,
        one rebalance.  A span inside one leaf parent that reaches
        neither fanout limit is a single run.  Nothing observable is
        saved or reordered against changing one pair per descent: after
        a run's descent every node of its path is dirty, and a dirty
        node is served from memory without a pool access or an event.
        """
        grown = -span_bytes
        for extent in new_extents:
            if extent.used_bytes <= 0:
                raise ByteRangeError("new extents must be non-empty")
            grown += extent.used_bytes
        if self.root_page_id is None:
            raise StorageCorruptionError("tree not created")
        if span_bytes < 0 or not 0 <= span_start <= self.total_bytes - span_bytes:
            raise ByteRangeError(
                f"span [{span_start}, {span_start + span_bytes}) outside "
                f"object of {self.total_bytes} bytes"
            )
        self.check_growth(grown)
        remaining = span_bytes
        inserted = 0
        position = span_start
        while remaining or inserted < len(new_extents):
            if self.total_bytes:
                cursor = self.locate(position)
                path = cursor.path
                node, index = path.pop()
                if position == self.total_bytes:
                    index += 1      # past the rightmost pair ``locate`` gives
                elif cursor.extent_start != position:
                    raise StorageCorruptionError(
                        f"byte {position} is not an extent boundary"
                    )
            else:
                path, node, index = [], self._get_node(self.root_page_id), 0
            cums = node.cums
            low = self._min_fanout(node)
            stop = index
            removed = 0
            if remaining:
                before = cums[index - 1] if index else 0
                target = before + remaining
                if target <= cums[-1]:
                    stop = bisect.bisect_left(cums, target, index) + 1
                    aligned = cums[stop - 1] == target
                else:
                    # The span runs on into the next leaf parent; where it
                    # ends is looked up once, before the first change.
                    stop = len(cums)
                    aligned = remaining < span_bytes or self._is_boundary(
                        span_start + span_bytes
                    )
                if not aligned:
                    raise StorageCorruptionError(
                        f"span of {span_bytes} bytes is not extent-aligned"
                    )
                # The pair whose removal leaves the node underfull is the
                # run's last: the rebalance may move the rest elsewhere.
                stop = min(stop, index + max(1, len(cums) + 1 - low))
                removed = cums[stop - 1] - before
            kept = len(cums) - (stop - index)
            take = 0
            # New pairs join the run once the span is gone, unless taking
            # it out made the node underfull or emptied the node's tail:
            # the boundary then belongs to the next leaf parent (to which
            # ``locate`` sends it), except at the object's end.
            if removed == remaining and (
                stop == index
                or kept >= low
                and (index < kept or position + removed == self.total_bytes)
            ):
                # The pair that overfills the node is the run's last.
                take = min(
                    len(new_extents) - inserted,
                    self._max_fanout(node) + 1 - kept,
                )
            delta = node.splice(
                index, stop - index, new_extents[inserted : inserted + take]
            )
            if delta:
                for ancestor, child_index in path:
                    ancestor.add_count(child_index, delta)
                self.total_bytes += delta
            self._shadow_path(path, node)
            if take:
                self._fix_overflow(path, node)
            else:
                self._fix_underflow(path, node)
            remaining -= removed
            inserted += take
            position += removed + delta

    def _is_boundary(self, offset: int) -> bool:
        """Whether an extent starts, or the object ends, at ``offset``
        (an uncharged walk over the in-memory nodes)."""
        if offset == self.total_bytes:
            return True
        node = self._peek_node(self.root_page_id)
        start = 0
        while True:
            index, child_start = _choose_child(node, offset - start)
            start += child_start
            if node.is_leaf_parent:
                return start == offset
            node = self._peek_node(node.refs[index])

    # ------------------------------------------------------------------
    # Rebalancing
    # ------------------------------------------------------------------
    def _max_fanout(self, node: IndexNode) -> int:
        if node.page_id == self.root_page_id:
            return self.config.root_fanout
        return self.config.node_fanout

    def _min_fanout(self, node: IndexNode) -> int:
        if node.page_id == self.root_page_id:
            return 0
        # "At least half full" is measured against the root fanout: a root
        # split must yield two legal children, and the root's page header
        # is larger, so its fanout is the binding constraint.
        return self.config.root_fanout // 2

    def _fix_overflow(
        self, path: list[tuple[IndexNode, int]], node: IndexNode
    ) -> None:
        while len(node.refs) > self._max_fanout(node):
            if node.page_id == self.root_page_id:
                self._split_root(node)
                return
            parent, child_index = path[-1]
            self._event("tree.split.node", level=node.level)
            sibling = self._new_node(node.level)
            moved = sibling.take(node, len(node.refs) // 2)
            parent.add_count(child_index, -moved)
            parent.insert(child_index + 1, moved, sibling.page_id)
            self._mark_node_dirty(node)
            self._mark_node_dirty(sibling)
            self._shadow_path(path[:-1], parent)
            node = parent
            path = path[:-1]

    def _split_root(self, root: IndexNode) -> None:
        """Split an overfull root into two children, growing the height."""
        self._event(
            "tree.split.root", level=root.level, height=self.height + 1
        )
        left = self._new_node(root.level)
        right = self._new_node(root.level)
        right.take(root, len(root.refs) // 2)
        left.take(root, 0)
        root.level += 1
        root.insert(0, left.total_bytes, left.page_id)
        root.insert(1, right.total_bytes, right.page_id)
        self.height += 1
        self._mark_node_dirty(left)
        self._mark_node_dirty(right)
        self._mark_node_dirty(root)

    def _fix_underflow(
        self, path: list[tuple[IndexNode, int]], node: IndexNode
    ) -> None:
        while True:
            if node.page_id == self.root_page_id:
                self._maybe_collapse_root(node)
                return
            if len(node.refs) >= self._min_fanout(node):
                return
            parent, child_index = path[-1]
            merged = self._borrow_or_merge(parent, child_index, node)
            if not merged:
                return
            node = parent
            path = path[:-1]

    def _borrow_or_merge(
        self, parent: IndexNode, child_index: int, node: IndexNode
    ) -> bool:
        """Fix an underfull child; returns True if a merge removed a pair
        from the parent (which may itself now be underfull)."""
        left_sibling = (
            self._get_node(parent.refs[child_index - 1])
            if child_index > 0
            else None
        )
        right_sibling = (
            self._get_node(parent.refs[child_index + 1])
            if child_index + 1 < len(parent.refs)
            else None
        )
        minimum = self._min_fanout(node)
        for source, sibling, sibling_index in (
            ("left", left_sibling, child_index - 1),
            ("right", right_sibling, child_index + 1),
        ):
            if sibling is None or len(sibling.refs) <= minimum:
                continue
            self._event("tree.borrow", level=node.level, source=source)
            self._relocate_if_needed(sibling, (parent, sibling_index))
            # The sibling's pair nearest the underfull node moves over.
            if source == "left":
                moved, ref, alloc = sibling.pop(len(sibling.refs) - 1)
                node.insert(0, moved, ref, alloc)
            else:
                moved, ref, alloc = sibling.pop(0)
                node.insert(len(node.refs), moved, ref, alloc)
            parent.add_count(sibling_index, -moved)
            parent.add_count(child_index, moved)
            self._mark_node_dirty(sibling)
            self._mark_node_dirty(node)
            self._mark_node_dirty(parent)
            return False
        # Merge with a sibling (prefer left).
        if left_sibling is not None:
            keeper, victim = left_sibling, node
            keeper_index = child_index - 1
        elif right_sibling is not None:
            keeper, victim = node, right_sibling
            keeper_index = child_index
        else:
            # Only child: nothing to merge with; tolerated under the
            # B-tree rules only while the parent is the root.
            return False
        self._event("tree.merge", level=node.level)
        self._relocate_if_needed(keeper, (parent, keeper_index))
        moved = keeper.take(victim, 0)
        parent.pop(keeper_index + 1)
        parent.add_count(keeper_index, moved)
        self._drop_node(victim)
        self._mark_node_dirty(keeper)
        self._mark_node_dirty(parent)
        return True

    def _maybe_collapse_root(self, root: IndexNode) -> None:
        """Shrink the height while the root has a single index child."""
        while root.level > 1 and len(root.refs) == 1:
            child = self._get_node(root.refs[0])
            if len(child.refs) > self.config.root_fanout:
                return
            self._event(
                "tree.collapse.root", level=child.level, height=self.height - 1
            )
            root.pop(0)
            root.level = child.level
            root.take(child, 0)
            self.height -= 1
            self._drop_node(child)
            self._mark_node_dirty(root)

    # ------------------------------------------------------------------
    # Node plumbing
    # ------------------------------------------------------------------
    def _get_node(self, page_id: int) -> IndexNode:
        node = self._nodes.get(page_id)
        is_root = page_id == self.root_page_id
        if node is not None and (node.dirty or is_root):
            # Dirty nodes live in memory until the end-of-op flush; the
            # root is memory-resident with the object descriptor, so its
            # accesses are never charged.
            return node
        self.pool.access(page_id)
        if node is None:
            node, _total, _rightmost = IndexNode.deserialize(
                self.pool.page(page_id).ljust(self.config.page_size, b"\x00"),
                page_id,
                is_root=False,
                data_base=self.data_base,
                meta_base=self.meta.base_page_id,
                leaf_alloc_pages=self.leaf_alloc_pages,
            )
            self._nodes[page_id] = node
        return node

    def _peek_node(self, page_id: int) -> IndexNode:
        node = self._nodes.get(page_id)
        if node is None:
            raise StorageCorruptionError(f"index node {page_id} not in memory")
        return node

    def _new_node(self, level: int) -> IndexNode:
        page_id = self.meta.allocate(1)
        node = IndexNode(page_id, level, self.data_base, self.meta.base_page_id)
        self._nodes[page_id] = node
        return node

    def _drop_node(self, node: IndexNode) -> None:
        self._dirty.discard(node.page_id)
        self._nodes.pop(node.page_id, None)
        self.meta.free(node.page_id, 1)

    def _mark_node_dirty(self, node: IndexNode) -> None:
        node.dirty = True
        self._dirty.add(node.page_id)

    def _shadow_path(
        self, path: list[tuple[IndexNode, int]], node: IndexNode
    ) -> None:
        """Shadow and dirty ``node`` and every ancestor on its descent
        ``path`` of (ancestor, child index) pairs.

        Processing bottom-up lets each relocated node fix up the pointer
        held by its parent (the pair index recorded in the path).
        """
        for parent in reversed(path):
            self._relocate_if_needed(node, parent)
            self._mark_node_dirty(node)
            node = parent[0]
        self._relocate_if_needed(node, None)
        self._mark_node_dirty(node)

    def _relocate_if_needed(
        self, node: IndexNode, parent: tuple[IndexNode, int] | None
    ) -> None:
        is_root = node.page_id == self.root_page_id
        if node.shadowed_this_op:
            return
        node.shadowed_this_op = True
        if not self.shadow.index_update_needs_new_page(is_root):
            return
        old_page = node.page_id
        new_page = self.meta.allocate(1)
        self._dirty.discard(old_page)
        self._nodes.pop(old_page, None)
        node.page_id = new_page
        self._nodes[new_page] = node
        self._dirty.add(new_page)
        self.meta.free(old_page, 1)
        if parent is not None:
            parent_node, child_index = parent
            parent_node.set_ref(child_index, new_page)

    # ------------------------------------------------------------------
    # Uncharged walks (verification / accounting)
    # ------------------------------------------------------------------
    def _iter_extents_uncharged(self, node: IndexNode) -> Iterator[LeafExtent]:
        if node.is_leaf_parent:
            yield from node.extents()
        else:
            for page_id in node.refs:
                yield from self._iter_extents_uncharged(
                    self._peek_node(page_id)
                )

    def _walk_nodes(self) -> Iterator[IndexNode]:
        if self.root_page_id is None:
            return
        stack = [self._peek_node(self.root_page_id)]
        while stack:
            node = stack.pop()
            yield node
            if not node.is_leaf_parent:
                stack.extend(self._peek_node(ref) for ref in node.refs)

    def _rightmost_leaf_parent(self) -> IndexNode | None:
        """The level-1 node on the right edge (uncharged), if reachable."""
        if self.root_page_id is None:
            return None
        node = self._peek_node(self.root_page_id)
        while node.refs and not node.is_leaf_parent:
            node = self._peek_node(node.refs[-1])
        return node if node.is_leaf_parent else None

    def _advance(
        self, path: list[tuple[IndexNode, int]]
    ) -> LeafExtent | None:
        """Move a descent path to the next extent, charging node accesses."""
        depth = len(path) - 1
        while depth >= 0:
            node, index = path[depth]
            if index + 1 < len(node.refs):
                break
            depth -= 1
        if depth < 0:
            return None
        node, index = path[depth]
        path[depth] = (node, index + 1)
        del path[depth + 1 :]
        node = path[-1][0]
        while node.level != 1:
            child = self._get_node(node.refs[path[-1][1]])
            path.append((child, 0))
            node = child
        return node.extent(path[-1][1])

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Verify structure, counts, and occupancy; for tests."""
        if self.root_page_id is None:
            return
        root = self._peek_node(self.root_page_id)
        assert root.level == self.height, "height drift"
        total = self._check_subtree(root, is_root=True)
        assert total == self.total_bytes, (
            f"total bytes drift: tree says {total}, cached {self.total_bytes}"
        )

    def _check_subtree(self, node: IndexNode, is_root: bool) -> int:
        assert len(node.refs) == len(node.cums), "pair lists out of step"
        assert len(node.refs) <= self._max_fanout(node), "node overfull"
        if not is_root:
            assert len(node.refs) >= self._min_fanout(node), "node underfull"
        if node.is_leaf_parent:
            assert len(node.allocs) == len(node.cums), "pair lists out of step"
            for extent in node.extents():
                assert extent.used_bytes > 0, "empty extent"
                assert extent.alloc_pages >= extent.used_pages(
                    self.config.page_size
                ), "extent data exceeds allocation"
            return node.total_bytes
        assert not node.allocs, "allocations recorded above level 1"
        for count, ref in zip(node.counts(), node.refs):
            child = self._peek_node(ref)
            assert child.level == node.level - 1, "level mismatch"
            child_total = self._check_subtree(child, is_root=False)
            assert child_total == count, "subtree count drift"
        return node.total_bytes


# ----------------------------------------------------------------------
# Descent helpers
# ----------------------------------------------------------------------
def _choose_child(node: IndexNode, offset: int) -> tuple[int, int]:
    """Pick the child covering ``offset`` (bytes relative to the node).

    Returns (child index, byte offset of that child within the node).  An
    offset equal to a boundary between children selects the right-hand
    child; an offset equal to the node's total selects the last child.
    """
    cumulative = node.cums
    # First child whose cumulative total exceeds the offset; an offset at
    # or past the node total clamps to the last child.
    index = bisect.bisect_right(cumulative, offset)
    if index >= len(cumulative):
        index = len(cumulative) - 1
    return index, cumulative[index - 1] if index else 0
