"""The EOS large object mechanism (Section 2.3).

EOS bridges ESM and Starburst: large objects are stored in a sequence of
variable-size segments pointed to by a positional tree whose internal
nodes are identical to ESM's.  Segments have no holes — every page is
full except possibly the last.  Objects grow by appending doubling
segments (the same pattern as Starburst), and byte inserts/deletes split
segments, subject to the segment size threshold T: adjacent segments that
could live in one small (at most T-page) segment are shuffled together.
"""

from __future__ import annotations

import dataclasses

from repro.core.env import StorageEnvironment
from repro.eos.segment import (
    Cell,
    DiskPiece,
    KeepPiece,
    MemPiece,
    plan_cells,
    split_oversized,
)
from repro.core.payload import (
    Payload,
    payload_bytes,
    payload_concat,
    payload_view,
)
from repro.tree.backed import TreeBackedManager
from repro.tree.node import LeafExtent
from repro.tree.tree import Cursor, PositionalTree
from repro.core.errors import InvalidArgumentError


@dataclasses.dataclass(frozen=True)
class EOSOptions:
    """Client-visible knobs of the EOS mechanism."""

    #: Segment size threshold T in pages (the paper uses 1, 4, 16, 64).
    threshold_pages: int = 4


class EOSManager(TreeBackedManager):
    """EOS large-object manager over a :class:`StorageEnvironment`."""

    scheme = "eos"

    def __init__(
        self, env: StorageEnvironment, options: EOSOptions | None = None
    ) -> None:
        super().__init__(env)
        self.options = options or EOSOptions()
        if self.options.threshold_pages < 1:
            raise InvalidArgumentError("threshold_pages must be at least 1")
        if self.options.threshold_pages > env.config.max_segment_pages:
            raise InvalidArgumentError("threshold_pages exceeds the maximum segment size")

    # ------------------------------------------------------------------
    # Append (doubling growth, like Starburst)
    # ------------------------------------------------------------------
    def append(self, oid: int, data: Payload) -> None:
        """Append bytes in doubling segments, filling the trimmed last segment
        first (Section 2.3).
        """
        tree = self._tree(oid)
        if not data:
            return
        tree.check_growth(len(data))
        with self._op_span("append", oid), self._op(tree):
            remaining = payload_view(data)
            prev_alloc = 0
            if tree.total_bytes:
                cursor = tree.locate(tree.total_bytes)
                rightmost = cursor.extent
                prev_alloc = rightmost.alloc_pages
                filled = self._fill_extent(
                    tree, cursor, payload_bytes(remaining)
                )
                remaining = remaining[filled:]
            while remaining:
                alloc = self._next_segment_pages(prev_alloc, len(remaining))
                extent = self._fresh_extent(alloc, payload_bytes(remaining))
                remaining = remaining[extent.used_bytes :]
                tree.append_extent(extent)
                prev_alloc = alloc

    def _extend_fresh(self, tree: PositionalTree, data: Payload) -> None:
        remaining = payload_view(data)
        prev_alloc = 0
        while remaining:
            alloc = self._next_segment_pages(prev_alloc, len(remaining))
            extent = self._fresh_extent(alloc, payload_bytes(remaining))
            remaining = remaining[extent.used_bytes :]
            tree.append_extent(extent)
            prev_alloc = alloc

    def _next_segment_pages(self, prev_alloc: int, remaining: int) -> int:
        """Doubling growth capped at the maximum segment size."""
        pages_needed = -(-remaining // self.config.page_size)
        if prev_alloc == 0:
            return min(pages_needed, self.config.max_segment_pages)
        return min(2 * prev_alloc, self.config.max_segment_pages)

    def _fresh_extent(self, alloc_pages: int, data: Payload) -> LeafExtent:
        """Allocate a segment and fill it with as much of ``data`` as fits."""
        capacity = alloc_pages * self.config.page_size
        take = min(capacity, len(data))
        page_id = self.env.areas.data.allocate(alloc_pages)
        self.env.segio.write_pages(page_id, data[:take])
        return LeafExtent(
            page_id=page_id, used_bytes=take, alloc_pages=alloc_pages
        )

    def _fill_extent(
        self, tree: PositionalTree, cursor: Cursor, data: Payload
    ) -> int:
        """Append into the rightmost segment's free capacity, in place."""
        extent = cursor.extent
        page_size = self.config.page_size
        capacity = extent.alloc_pages * page_size
        take = min(capacity - extent.used_bytes, len(data))
        if take <= 0:
            return 0
        first_dirty = extent.used_bytes // page_size
        within = extent.used_bytes - first_dirty * page_size
        prefix: Payload = b""
        if within:
            page = self.env.segio.read_pages(extent.page_id + first_dirty, 1)
            prefix = page[:within]
        self.env.segio.write_pages(
            extent.page_id + first_dirty,
            payload_concat([prefix, data[:take]]),
        )
        tree.update_extent(cursor, used_bytes=extent.used_bytes + take)
        return take

    def trim(self, oid: int) -> None:
        """Free the unused pages at the right end of the rightmost segment."""
        tree = self._tree(oid)
        if tree.total_bytes == 0:
            return
        with self._op_span("trim", oid), self._op(tree):
            cursor = tree.locate(tree.total_bytes)
            extent = cursor.extent
            used_pages = extent.used_pages(self.config.page_size)
            if extent.alloc_pages > used_pages:
                self.env.areas.data.free(
                    extent.page_id + used_pages,
                    extent.alloc_pages - used_pages,
                )
                tree.update_extent(cursor, alloc_pages=used_pages)

    # ------------------------------------------------------------------
    # Insert
    # ------------------------------------------------------------------
    def insert(self, oid: int, offset: int, data: Payload) -> None:
        """Insert bytes by splitting the affected segment, shuffling neighbours
        that fit within the threshold T together.
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
            left, right = tree.neighbors(cursor)
            cells: list[Cell] = []
            span: list[LeafExtent] = []
            span_start = cursor.extent_start
            if left is not None:
                cells.append(_whole_cell(left))
                span.append(left)
                span_start -= left.used_bytes
            if position:
                cells.append(
                    Cell([KeepPiece(target.page_id, position)], position)
                )
            cells.append(Cell([MemPiece(data)], len(data)))
            cells.extend(
                self._tail_cells(target, position, target.used_bytes - position)
            )
            span.append(target)
            if right is not None:
                cells.append(_whole_cell(right))
                span.append(right)
            self._apply_plan(tree, cells, span, span_start)

    def _tail_cells(
        self, extent: LeafExtent, tail_off: int, tail_len: int
    ) -> list[Cell]:
        """Cells for a segment suffix that an update displaced.

        Only the bytes sharing a page with the kept prefix (at most one
        page's worth) must physically move; the page-aligned remainder can
        stay where it is as a segment of its own — this is exactly how
        repeated inserts and deletes degrade leaves toward single-page
        segments (Section 2.3), unless the threshold rule shuffles them
        back together.
        """
        if tail_len <= 0:
            return []
        page_size = self.config.page_size
        within_page = tail_off % page_size
        cells: list[Cell] = []
        frag_len = 0
        if within_page:
            frag_len = min(page_size - within_page, tail_len)
            cells.append(
                Cell([DiskPiece(extent.page_id, tail_off, frag_len)], frag_len)
            )
        rest_len = tail_len - frag_len
        if rest_len:
            rest_page = extent.page_id + (tail_off + frag_len) // page_size
            cells.append(Cell([KeepPiece(rest_page, rest_len)], rest_len))
        return cells

    # ------------------------------------------------------------------
    # Delete
    # ------------------------------------------------------------------
    def delete(self, oid: int, offset: int, nbytes: int) -> None:
        """Delete a byte range, shuffling small adjacent segments back under
        the threshold T.
        """
        tree = self._tree(oid)
        self._check_range(oid, offset, nbytes, tree.total_bytes)
        if nbytes == 0:
            return
        with self._op_span("delete", oid), self._op(tree):
            covered = tree.extents_covering(offset, nbytes)
            first, first_start = covered[0]
            last, last_start = covered[-1]
            head_len = offset - first_start
            tail_off = offset + nbytes - last_start
            tail_len = last.used_bytes - tail_off
            span = [extent for extent, _start in covered]
            span_start = first_start
            cells: list[Cell] = []
            left = tree.locate(first_start - 1).extent if first_start else None
            last_end = last_start + last.used_bytes
            right = (
                tree.locate(last_end).extent
                if last_end < tree.total_bytes
                else None
            )
            if left is not None:
                cells.append(_whole_cell(left))
                span.insert(0, left)
                span_start -= left.used_bytes
            if head_len:
                cells.append(
                    Cell([KeepPiece(first.page_id, head_len)], head_len)
                )
            cells.extend(self._tail_cells(last, tail_off, tail_len))
            if right is not None:
                cells.append(_whole_cell(right))
                span.append(right)
            self._apply_plan(tree, cells, span, span_start)

    # ------------------------------------------------------------------
    # Replace
    # ------------------------------------------------------------------
    def replace(self, oid: int, offset: int, data: Payload) -> None:
        """Overwrite bytes in place, shadowing each affected segment."""
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
                self._replace_within_segment(
                    tree, cursor, within, payload_bytes(remaining[:take])
                )
                remaining = remaining[take:]
                position += take

    def _replace_within_segment(
        self, tree: PositionalTree, cursor: Cursor, position: int, data: Payload
    ) -> None:
        extent = cursor.extent
        page_size = self.config.page_size
        if self.env.shadow.overwrite_needs_new_segment():
            content = self._read_extent(extent.page_id, 0, extent.used_bytes)
            patched = payload_concat(
                [content[:position], data, content[position + len(data):]]
            )
            pages = -(-len(patched) // page_size)
            page_id = self.env.areas.data.allocate(pages)
            self.env.segio.write_pages(page_id, patched)
            self.env.areas.data.free(extent.page_id, extent.alloc_pages)
            tree.update_extent(cursor, page_id=page_id, alloc_pages=pages)
        else:
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
    # Plan execution
    # ------------------------------------------------------------------
    def _apply_plan(
        self,
        tree: PositionalTree,
        cells: list[Cell],
        span: list[LeafExtent],
        span_start: int,
    ) -> None:
        """Merge, strip untouched boundary segments, materialize, replace."""
        page_size = self.config.page_size
        plan = plan_cells(cells, self.options.threshold_pages, page_size)
        plan = split_oversized(plan, self.config.max_segment_pages, page_size)
        plan, span, span_start = _strip_unchanged(plan, span, span_start)
        new_extents, kept_ranges = self._materialize(plan)
        span_bytes = sum(extent.used_bytes for extent in span)
        tree.replace_span(span_start, span_bytes, new_extents)
        for extent in span:
            for run_start, run_len in _subtract_kept(
                extent.page_id, extent.alloc_pages, kept_ranges
            ):
                self.env.areas.data.free(run_start, run_len)

    def _materialize(
        self, plan: list[Cell]
    ) -> tuple[list[LeafExtent], list[tuple[int, int]]]:
        """Turn plan cells into segments; returns (extents, kept ranges).

        ``kept ranges`` lists the (start page, page count) runs of old
        segments retained in place, so the caller frees only the rest.
        """
        page_size = self.config.page_size
        extents: list[LeafExtent] = []
        kept_ranges: list[tuple[int, int]] = []
        for cell in plan:
            if cell.in_place:
                piece = cell.pieces[0]
                assert isinstance(piece, KeepPiece)
                pages = -(-piece.nbytes // page_size)
                kept_ranges.append((piece.page_id, pages))
                extents.append(
                    LeafExtent(
                        page_id=piece.page_id,
                        used_bytes=piece.nbytes,
                        alloc_pages=pages,
                    )
                )
                continue
            parts = [self._piece_bytes(piece) for piece in cell.pieces]
            content = parts[0] if len(parts) == 1 else payload_concat(parts)
            pages = -(-len(content) // page_size)
            page_id = self.env.areas.data.allocate(pages)
            self.env.segio.write_pages(page_id, content)
            extents.append(
                LeafExtent(
                    page_id=page_id, used_bytes=len(content), alloc_pages=pages
                )
            )
        return extents, kept_ranges

    def _piece_bytes(self, piece) -> Payload:
        """Materialize one plan piece; disk pieces are one segment read."""
        if isinstance(piece, MemPiece):
            return piece.data
        if isinstance(piece, KeepPiece):
            return self._read_extent(piece.page_id, 0, piece.nbytes)
        assert isinstance(piece, DiskPiece)
        return self._read_extent(piece.page_id, piece.offset, piece.nbytes)


def _whole(extent: LeafExtent) -> DiskPiece:
    """A piece denoting an existing segment's entire content."""
    return DiskPiece(extent.page_id, 0, extent.used_bytes)


def _whole_cell(extent: LeafExtent) -> Cell:
    """A cell that is an existing segment, untouched unless merged."""
    return Cell([_whole(extent)], extent.used_bytes)


def _subtract_kept(
    start: int, n_pages: int, kept_ranges: list[tuple[int, int]]
) -> list[tuple[int, int]]:
    """Page runs of [start, start+n_pages) not covered by kept ranges."""
    holes = sorted(
        (max(kept_start, start), min(kept_start + kept_len, start + n_pages))
        for kept_start, kept_len in kept_ranges
        if kept_start < start + n_pages and kept_start + kept_len > start
    )
    runs: list[tuple[int, int]] = []
    position = start
    for hole_start, hole_end in holes:
        if hole_start > position:
            runs.append((position, hole_start - position))
        position = max(position, hole_end)
    if position < start + n_pages:
        runs.append((position, start + n_pages - position))
    return runs


def _strip_unchanged(
    plan: list[Cell], span: list[LeafExtent], span_start: int
) -> tuple[list[Cell], list[LeafExtent], int]:
    """Drop boundary cells that are existing segments left untouched.

    A neighbouring segment that the threshold rule did not pull into a
    merge shows up in the plan as a lone whole-segment disk piece; it (and
    its slot in the replaced span) can be skipped entirely.
    """
    plan = list(plan)
    span = list(span)
    while plan and span and plan[0].pieces == [_whole(span[0])]:
        span_start += span[0].used_bytes
        del plan[0], span[0]
    while (
        plan
        and span
        and plan[-1].pieces == [_whole(span[-1])]
        and not (len(plan) == 1 and len(span) == 1)
    ):
        del plan[-1], span[-1]
    return plan, span, span_start
