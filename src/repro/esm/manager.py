"""The EXODUS storage manager (ESM) large-object mechanism.

Large objects are stored in fixed-size leaf segments indexed by the
positional count tree (Section 2.1).  The leaf size is a per-file client
hint: small leaves favour updates, large leaves favour scans.

Implementation notes from Sections 3.4 and 4.2:

* Byte inserts use the *improved* algorithm of [Care86] by default: on
  leaf overflow, the new bytes, the leaf's bytes, and a neighbour's bytes
  are redistributed if that avoids creating a new leaf.  The *basic*
  algorithm (no neighbour involvement) is available for the ablation.
* Appends that overflow the rightmost leaf redistribute the new bytes,
  the rightmost leaf, and its left neighbour (if it has free space) so
  that all but the two rightmost leaves are full and those two are each
  at least half full.
* Updates that overwrite useful bytes shadow the whole leaf (copy,
  update, flush); pure appends are performed in place.
* Only the blocks of a leaf that are actually dirty/useful are written
  or read (``partial_leaf_io``); the whole-leaf unit of I/O assumed by
  [Care86]'s own experiments is available for the ablation.
"""

from __future__ import annotations

import dataclasses

from repro.core.env import StorageEnvironment
from repro.core.errors import ByteRangeError, InvalidArgumentError
from repro.core.payload import (
    Payload,
    payload_bytes,
    payload_concat,
    payload_view,
)
from repro.esm import leaf as leaf_rules
from repro.tree.backed import TreeBackedManager
from repro.tree.node import LeafExtent
from repro.tree.tree import Cursor, PositionalTree


@dataclasses.dataclass(frozen=True)
class ESMOptions:
    """Client-visible knobs of the ESM mechanism."""

    #: Fixed leaf segment size in pages (the paper uses 1, 4, 16, 64).
    leaf_pages: int = 4
    #: Use the improved insert algorithm of [Care86] (the paper's setting).
    improved_insert: bool = True
    #: Read/write only the useful/dirty blocks of a leaf, not the whole leaf.
    partial_leaf_io: bool = True


class ESMManager(TreeBackedManager):
    """ESM large-object manager over a :class:`StorageEnvironment`."""

    scheme = "esm"

    def __init__(
        self, env: StorageEnvironment, options: ESMOptions | None = None
    ) -> None:
        super().__init__(env)
        self.options = options or ESMOptions()
        if self.options.leaf_pages < 1:
            raise InvalidArgumentError("leaf_pages must be at least 1")
        if self.options.leaf_pages > env.config.max_segment_pages:
            raise InvalidArgumentError("leaf_pages exceeds the maximum segment size")
        if not self.options.partial_leaf_io:
            # Whole-leaf I/O reads the full segment and slices in memory.
            self._whole_leaf_pages = self.options.leaf_pages

    # ------------------------------------------------------------------
    # Derived parameters
    # ------------------------------------------------------------------
    @property
    def leaf_capacity(self) -> int:
        """Bytes that fit in one leaf segment."""
        return self.options.leaf_pages * self.config.page_size

    def _leaf_alloc_pages(self, used_bytes: int, is_rightmost: bool) -> int:
        return self.options.leaf_pages

    # ------------------------------------------------------------------
    # Append
    # ------------------------------------------------------------------
    def append(self, oid: int, data: Payload) -> None:
        """Append bytes, redistributing over the two rightmost leaves so all
        but those two stay full (Section 3.4).
        """
        tree = self._tree(oid)
        if not data:
            return
        tree.check_growth(len(data))
        with self._op_span("append", oid), self._op(tree):
            if tree.total_bytes == 0:
                self._extend_fresh(tree, data)
                return
            cursor = tree.locate(tree.total_bytes)
            rightmost = cursor.extent
            if rightmost.used_bytes + len(data) <= self.leaf_capacity:
                self._append_in_place(tree, cursor, data)
                return
            self._append_with_overflow(tree, cursor, data)

    def _append_in_place(
        self, tree: PositionalTree, cursor: Cursor, data: Payload
    ) -> None:
        """Fill the rightmost leaf in place; no shadowing (Section 3.3)."""
        extent = cursor.extent
        page_size = self.config.page_size
        first_dirty = extent.used_bytes // page_size
        within = extent.used_bytes - first_dirty * page_size
        prefix: Payload = b""
        if within:
            page = self.env.segio.read_pages(extent.page_id + first_dirty, 1)
            prefix = page[:within]
        self.env.segio.write_pages(
            extent.page_id + first_dirty, payload_concat([prefix, data])
        )
        tree.update_extent(cursor, used_bytes=extent.used_bytes + len(data))

    def _append_with_overflow(
        self, tree: PositionalTree, cursor: Cursor, data: Payload
    ) -> None:
        """Redistribute rightmost leaf (+ left neighbour) and new bytes."""
        capacity = self.leaf_capacity
        rightmost = cursor.extent
        old: list[LeafExtent] = [rightmost]
        span_start = cursor.extent_start
        left, _right = tree.neighbors(cursor)
        if left is not None and left.used_bytes < capacity:
            old.insert(0, left)
            span_start -= left.used_bytes
        total = sum(extent.used_bytes for extent in old) + len(data)
        sizes = leaf_rules.arrange_append_overflow(total, capacity)
        # Leading old leaves whose content would not change stay in place.
        keep = 0
        while (
            keep < len(old)
            and keep < len(sizes)
            and old[keep].used_bytes == sizes[keep]
        ):
            keep += 1
        rewritten = old[keep:]
        sizes = sizes[keep:]
        span_start += sum(extent.used_bytes for extent in old[:keep])
        stream = payload_concat(
            [
                self._read_extent(extent.page_id, 0, extent.used_bytes)
                for extent in rewritten
            ]
            + [data]
        )
        new_extents = self._write_leaves(stream, sizes)
        span_bytes = sum(extent.used_bytes for extent in rewritten)
        tree.replace_span(span_start, span_bytes, new_extents)
        for extent in rewritten:
            self.env.areas.data.free(extent.page_id, extent.alloc_pages)

    # ------------------------------------------------------------------
    # Insert
    # ------------------------------------------------------------------
    def insert(self, oid: int, offset: int, data: Payload) -> None:
        """Insert bytes at an offset; leaf overflow redistributes with a
        neighbour under the improved algorithm of [Care86].
        """
        tree = self._tree(oid)
        self._check_offset(oid, offset, tree.total_bytes)
        if not data:
            return
        if offset == tree.total_bytes:
            self.append(oid, data)
            return
        tree.check_growth(len(data))
        with self._op_span("insert", oid), self._op(tree):
            cursor = tree.locate(offset)
            target = cursor.extent
            position = offset - cursor.extent_start
            if target.used_bytes + len(data) <= self.leaf_capacity:
                self._insert_within_leaf(tree, cursor, position, data)
            else:
                self._insert_with_overflow(tree, cursor, position, data)

    def _insert_within_leaf(
        self, tree: PositionalTree, cursor: Cursor, position: int, data: Payload
    ) -> None:
        """Insert into a leaf with room: copy, update, flush (shadowed)."""
        extent = cursor.extent
        content = self._read_extent(extent.page_id, 0, extent.used_bytes)
        new_content = payload_concat(
            [content[:position], data, content[position:]]
        )
        if self.env.shadow.overwrite_needs_new_segment():
            new_extent = self._write_leaves(new_content, [len(new_content)])[0]
            self.env.areas.data.free(extent.page_id, extent.alloc_pages)
            tree.update_extent(
                cursor,
                used_bytes=len(new_content),
                page_id=new_extent.page_id,
            )
        else:
            page_size = self.config.page_size
            first_dirty = position // page_size
            self.env.segio.write_pages(
                extent.page_id + first_dirty,
                new_content[first_dirty * page_size :],
            )
            tree.update_extent(cursor, used_bytes=len(new_content))

    def _insert_with_overflow(
        self, tree: PositionalTree, cursor: Cursor, position: int, data: Payload
    ) -> None:
        """Leaf overflow: basic or improved redistribution of [Care86]."""
        capacity = self.leaf_capacity
        target = cursor.extent
        base_total = target.used_bytes + len(data)
        base_leaves = -(-base_total // capacity)
        span = [target]
        span_start = cursor.extent_start
        prepend_left = False
        append_right = False
        if self.options.improved_insert:
            left, right = tree.neighbors(cursor)
            best_new = base_leaves - 1
            if left is not None:
                with_left = -(-(left.used_bytes + base_total) // capacity) - 2
                if with_left < best_new:
                    best_new = with_left
                    prepend_left, append_right = True, False
            if right is not None:
                with_right = -(-(right.used_bytes + base_total) // capacity) - 2
                if with_right < best_new:
                    best_new = with_right
                    prepend_left, append_right = False, True
            if prepend_left:
                assert left is not None
                span.insert(0, left)
                span_start -= left.used_bytes
            elif append_right:
                assert right is not None
                span.append(right)
        parts: list[Payload] = []
        if prepend_left:
            parts.append(
                self._read_extent(span[0].page_id, 0, span[0].used_bytes)
            )
        target_content = self._read_extent(
            target.page_id, 0, target.used_bytes
        )
        parts.append(target_content[:position])
        parts.append(data)
        parts.append(target_content[position:])
        if append_right:
            parts.append(
                self._read_extent(span[-1].page_id, 0, span[-1].used_bytes)
            )
        stream = payload_concat(parts)
        sizes = leaf_rules.arrange_even(len(stream), capacity)
        new_extents = self._write_leaves(stream, sizes)
        span_bytes = sum(extent.used_bytes for extent in span)
        tree.replace_span(span_start, span_bytes, new_extents)
        for extent in span:
            self.env.areas.data.free(extent.page_id, extent.alloc_pages)

    # ------------------------------------------------------------------
    # Delete
    # ------------------------------------------------------------------
    def delete(self, oid: int, offset: int, nbytes: int) -> None:
        """Delete a byte range, merging or rebalancing underfull leaves."""
        tree = self._tree(oid)
        self._check_range(oid, offset, nbytes, tree.total_bytes)
        if nbytes == 0:
            return
        with self._op_span("delete", oid), self._op(tree):
            covered = tree.extents_covering(offset, nbytes)
            first, first_start = covered[0]
            last, last_start = covered[-1]
            head_len = offset - first_start
            tail_len = (last_start + last.used_bytes) - (offset + nbytes)
            span = [extent for extent, _start in covered]
            span_start = first_start
            remaining = head_len + tail_len
            if remaining == 0:
                tree.replace_span(
                    span_start,
                    sum(extent.used_bytes for extent in span),
                    [],
                )
                for extent in span:
                    self.env.areas.data.free(extent.page_id, extent.alloc_pages)
                return
            # Surviving bytes of the boundary leaves.
            parts: list[Payload] = []
            if head_len:
                parts.append(self._read_extent(first.page_id, 0, head_len))
            if tail_len:
                parts.append(
                    self._read_extent(
                        last.page_id, last.used_bytes - tail_len, tail_len
                    )
                )
            # Engage a neighbour when the survivors would underflow.
            if (
                2 * remaining < self.leaf_capacity
                and remaining < tree.total_bytes - nbytes
            ):
                neighbour, at_front = self._pick_delete_neighbour(
                    tree, span_start, last_start + last.used_bytes
                )
                if neighbour is not None:
                    content = self._read_extent(
                        neighbour.page_id, 0, neighbour.used_bytes
                    )
                    if at_front:
                        span.insert(0, neighbour)
                        span_start -= neighbour.used_bytes
                        parts.insert(0, content)
                    else:
                        span.append(neighbour)
                        parts.append(content)
            stream = payload_concat(parts)
            sizes = leaf_rules.arrange_even(len(stream), self.leaf_capacity)
            new_extents = self._write_leaves(stream, sizes)
            tree.replace_span(
                span_start,
                sum(extent.used_bytes for extent in span),
                new_extents,
            )
            for extent in span:
                self.env.areas.data.free(extent.page_id, extent.alloc_pages)

    def _pick_delete_neighbour(
        self, tree: PositionalTree, span_start: int, span_end: int
    ) -> tuple[LeafExtent | None, bool]:
        """The leaf adjacent to the deleted span (left preferred)."""
        if span_start > 0:
            return tree.locate(span_start - 1).extent, True
        if span_end < tree.total_bytes:
            return tree.locate(span_end).extent, False
        return None, False

    # ------------------------------------------------------------------
    # Replace
    # ------------------------------------------------------------------
    def replace(self, oid: int, offset: int, data: Payload) -> None:
        """Overwrite bytes in place, shadowing each affected leaf."""
        tree = self._tree(oid)
        self._check_range(oid, offset, len(data), tree.total_bytes)
        if not data:
            return
        with self._op_span("replace", oid), self._op(tree):
            position = offset
            remaining = payload_view(data)
            while remaining:
                cursor = tree.locate(position)
                extent = cursor.extent
                within = position - cursor.extent_start
                take = min(extent.used_bytes - within, len(remaining))
                self._replace_within_leaf(
                    tree, cursor, within, payload_bytes(remaining[:take])
                )
                remaining = remaining[take:]
                position += take

    def _replace_within_leaf(
        self, tree: PositionalTree, cursor: Cursor, position: int, data: Payload
    ) -> None:
        extent = cursor.extent
        if self.env.shadow.overwrite_needs_new_segment():
            content = self._read_extent(extent.page_id, 0, extent.used_bytes)
            new_content = payload_concat(
                [content[:position], data, content[position + len(data) :]]
            )
            new_extent = self._write_leaves(new_content, [len(new_content)])[0]
            self.env.areas.data.free(extent.page_id, extent.alloc_pages)
            tree.update_extent(cursor, page_id=new_extent.page_id)
        else:
            page_size = self.config.page_size
            first = position // page_size
            last = (position + len(data) - 1) // page_size
            old = self.env.segio.read_pages(
                extent.page_id + first, last - first + 1
            )
            lo = position - first * page_size
            patched = payload_concat(
                [old[:lo], data, old[lo + len(data) :]]
            )
            self.env.segio.write_pages(extent.page_id + first, patched)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _extend_fresh(self, tree: PositionalTree, data: Payload) -> None:
        """Lay brand-new bytes out at the end of the object."""
        sizes = leaf_rules.arrange_fresh(len(data), self.leaf_capacity)
        tree.replace_span(tree.total_bytes, 0, self._write_leaves(data, sizes))

    def _write_leaves(self, stream: Payload,
                      sizes: list[int]) -> list[LeafExtent]:
        """Lay the stream out over fresh leaves, one allocate-and-write
        per leaf (a charged write of the useful prefix, or of the whole
        leaf under the ablation's whole-leaf I/O), through the batch
        engine's leaf-write loop.
        """
        if sum(sizes) != len(stream):
            raise ByteRangeError("leaf arrangement does not cover the bytes")
        alloc_pages = self.options.leaf_pages
        whole = 0 if self.options.partial_leaf_io else alloc_pages
        page_ids = self.env.exec.execute_write_leaves(
            [(alloc_pages, size, whole) for size in sizes], stream
        )
        return [
            LeafExtent(
                page_id=page_id, used_bytes=size, alloc_pages=alloc_pages
            )
            for page_id, size in zip(page_ids, sizes)
        ]
