"""EOS segment planning: splits and the threshold-T merge rule (Section 2.3).

An EOS update splits the affected variable-size segment into pieces (a
kept prefix, freshly inserted bytes, a relocated suffix) and may have to
shuffle pages with neighbouring segments to maintain the segment size
threshold constraint: a number of bytes may not be kept in two logically
adjacent segments, one of which has fewer than T pages, when they can be
stored in one (small) segment.  The paper's example — with T = 8, an
object of a page and a half is kept in two pages, not eight — shows the
threshold is neither a fixed leaf size nor a minimum segment size.

We model the plan as a list of *cells*; each cell becomes one segment and
is a list of byte *pieces* drawn from memory, from existing disk
segments, or kept in place.
"""

from __future__ import annotations

from repro.core.errors import InvalidArgumentError
from repro.core.payload import Payload
import dataclasses


@dataclasses.dataclass(frozen=True)
class MemPiece:
    """Bytes held in memory (freshly inserted data).

    ``data`` may be a length-only
    :class:`~repro.core.payload.SizedPayload`; slicing one during
    :func:`split_oversized` stays O(1).
    """

    data: Payload

    @property
    def nbytes(self) -> int:
        return len(self.data)


@dataclasses.dataclass(frozen=True)
class DiskPiece:
    """A byte range of an existing on-disk segment to be copied."""

    page_id: int
    offset: int
    nbytes: int


@dataclasses.dataclass(frozen=True)
class KeepPiece:
    """A segment prefix that can stay in place if its cell is not merged.

    ``nbytes`` is the prefix length; the remainder of the old segment's
    pages will be freed (a buddy partial free) by the executor.
    """

    page_id: int
    nbytes: int


Piece = MemPiece | DiskPiece | KeepPiece


@dataclasses.dataclass
class Cell:
    """A planned output segment (an ordered list of pieces)."""

    pieces: list[Piece]
    #: Bytes the cell holds: counted once at construction unless the
    #: maker already knows them (a merge sums its two halves).
    nbytes: int = -1

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            self.nbytes = sum(piece.nbytes for piece in self.pieces)

    @property
    def in_place(self) -> bool:
        """True if the cell is exactly one kept prefix (no copying needed)."""
        return len(self.pieces) == 1 and isinstance(self.pieces[0], KeepPiece)


def plan_cells(
    cells: list[Cell], threshold_pages: int, page_size: int
) -> list[Cell]:
    """Apply the threshold constraint by merging adjacent small cells.

    Two adjacent cells are merged when one of them has fewer than
    ``threshold_pages`` pages and their combined bytes fit in a segment of
    at most ``threshold_pages`` pages.  The leftmost such pair is merged
    first, and merging repeats until no adjacent pair violates the
    constraint.  Kept prefixes inside merged cells lose their in-place
    status (the executor copies them).  The input cells are not changed;
    unmerged ones are returned as they are.
    """
    if threshold_pages < 1:
        raise InvalidArgumentError("threshold must be at least one page")
    threshold_bytes = threshold_pages * page_size
    merged = [cell for cell in cells if cell.nbytes > 0]
    index = 0
    while index < len(merged) - 1:
        left, right = merged[index], merged[index + 1]
        combined = left.nbytes + right.nbytes
        # "Less than T pages" is measured in bytes: a half-full page
        # holds less than one page's worth, so sub-page fragments
        # coalesce even with T = 1 and leaves degrade toward
        # (roughly) T-page segments rather than byte-sized shards.
        if (
            left.nbytes < threshold_bytes or right.nbytes < threshold_bytes
        ) and -(-combined // page_size) <= threshold_pages:
            merged[index : index + 2] = [
                Cell(left.pieces + right.pieces, combined)
            ]
            # The pairs left of this one were checked and did not change;
            # only the merged cell's left neighbour sees a new partner.
            index = max(index - 1, 0)
        else:
            index += 1
    return merged


def split_oversized(
    cells: list[Cell], max_segment_pages: int, page_size: int
) -> list[Cell]:
    """Split any cell too large for one segment into maximum-size chunks.

    Only memory pieces can realistically exceed the maximum (a gigantic
    insert); disk pieces come from segments that already fit.
    """
    capacity = max_segment_pages * page_size
    result: list[Cell] = []
    for cell in cells:
        if cell.nbytes <= capacity:
            result.append(cell)
            continue
        current: list[Piece] = []
        current_bytes = 0
        for piece in cell.pieces:
            remaining = piece
            while current_bytes + remaining.nbytes > capacity:
                take = capacity - current_bytes
                head, remaining = _split_piece(remaining, take)
                if head is not None:
                    current.append(head)
                result.append(Cell(current))
                current = []
                current_bytes = 0
            current.append(remaining)
            current_bytes += remaining.nbytes
        if current:
            result.append(Cell(current))
    return result


def _split_piece(piece: Piece, nbytes: int) -> tuple[Piece | None, Piece]:
    """Split a piece after ``nbytes`` bytes; returns (head, tail)."""
    if nbytes == 0:
        return None, piece
    if isinstance(piece, MemPiece):
        return MemPiece(piece.data[:nbytes]), MemPiece(piece.data[nbytes:])
    if isinstance(piece, DiskPiece):
        head = DiskPiece(piece.page_id, piece.offset, nbytes)
        tail = DiskPiece(
            piece.page_id, piece.offset + nbytes, piece.nbytes - nbytes
        )
        return head, tail
    # A kept prefix that must split is no longer kept in place.
    head = DiskPiece(piece.page_id, 0, nbytes)
    tail = DiskPiece(piece.page_id, nbytes, piece.nbytes - nbytes)
    return head, tail
