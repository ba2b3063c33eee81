"""Tests for EOS segment planning and the threshold-T rule (Section 2.3)."""

import random

import pytest

from repro.eos.segment import (
    Cell,
    DiskPiece,
    KeepPiece,
    MemPiece,
    plan_cells,
    split_oversized,
)

PAGE = 100  # matches the paper's illustrative 100-byte pages


def cell_of(nbytes, kind="mem", page_id=0, offset=0):
    if kind == "mem":
        return Cell([MemPiece(bytes(nbytes))])
    if kind == "disk":
        return Cell([DiskPiece(page_id, offset, nbytes)])
    return Cell([KeepPiece(page_id, nbytes)])


def pages(cell):
    """Pages the cell's segment will occupy."""
    return -(-cell.nbytes // PAGE)


class TestCell:
    def test_in_place_detection(self):
        assert cell_of(10, kind="keep").in_place
        assert not cell_of(10, kind="disk").in_place
        assert not Cell(
            [KeepPiece(0, 5), DiskPiece(1, 0, 5)]
        ).in_place


class TestThresholdRule:
    def test_paper_example_one_and_a_half_pages(self):
        # "with T=8, a large object that is 1 page and a half long is kept
        #  in two pages, not in 8 pages": the two small pieces merge into
        #  ONE two-page segment.
        cells = [cell_of(PAGE), cell_of(PAGE // 2)]
        plan = plan_cells(cells, threshold_pages=8, page_size=PAGE)
        assert len(plan) == 1
        assert pages(plan[0]) == 2

    def test_threshold_one_never_merges(self):
        cells = [cell_of(PAGE), cell_of(PAGE // 2)]
        plan = plan_cells(cells, threshold_pages=1, page_size=PAGE)
        assert len(plan) == 2

    def test_small_next_to_large_does_not_merge(self):
        # A small fragment next to a big segment stays separate: merging
        # is required only when the bytes fit one small segment.
        cells = [cell_of(20 * PAGE, kind="disk"), cell_of(PAGE // 2)]
        plan = plan_cells(cells, threshold_pages=4, page_size=PAGE)
        assert len(plan) == 2

    def test_two_at_threshold_do_not_merge(self):
        cells = [cell_of(4 * PAGE), cell_of(4 * PAGE)]
        plan = plan_cells(cells, threshold_pages=4, page_size=PAGE)
        assert len(plan) == 2

    def test_chain_merging(self):
        cells = [cell_of(PAGE // 2) for _ in range(4)]
        plan = plan_cells(cells, threshold_pages=8, page_size=PAGE)
        assert len(plan) == 1
        assert plan[0].nbytes == 4 * (PAGE // 2)

    def test_merged_keep_loses_in_place_status(self):
        cells = [cell_of(10, kind="keep"), cell_of(10)]
        plan = plan_cells(cells, threshold_pages=4, page_size=PAGE)
        assert len(plan) == 1
        assert not plan[0].in_place

    def test_empty_cells_dropped(self):
        cells = [cell_of(0), cell_of(10)]
        plan = plan_cells(cells, threshold_pages=4, page_size=PAGE)
        assert len(plan) == 1

    def test_plan_satisfies_constraint(self):
        # After planning, no adjacent pair may violate the rule.
        cells = [cell_of(n) for n in (30, 500, 20, 80, 350, 10)]
        threshold = 4
        plan = plan_cells(cells, threshold_pages=threshold, page_size=PAGE)
        for left, right in zip(plan, plan[1:]):
            small = (
                pages(left) < threshold or pages(right) < threshold
            )
            combined = -(-(left.nbytes + right.nbytes) // PAGE)
            assert not (small and combined <= threshold)

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            plan_cells([], threshold_pages=0, page_size=PAGE)

    @pytest.mark.parametrize("threshold", [1, 2, 4, 8])
    def test_resumed_scan_merges_what_a_restarted_scan_merges(self, threshold):
        # The reference restarts at the first pair after every merge and
        # counts each cell's bytes from its pieces, as the planner did
        # before it kept the count and resumed one pair to the left.
        def restarting(cells):
            merged = [Cell(list(cell.pieces)) for cell in cells if cell.pieces
                      and sum(piece.nbytes for piece in cell.pieces)]
            changed = True
            while changed:
                changed = False
                for index in range(len(merged) - 1):
                    left, right = merged[index], merged[index + 1]
                    left_bytes = sum(piece.nbytes for piece in left.pieces)
                    right_bytes = sum(piece.nbytes for piece in right.pieces)
                    small = (
                        left_bytes < threshold * PAGE
                        or right_bytes < threshold * PAGE
                    )
                    if small and -(-(left_bytes + right_bytes) // PAGE) <= threshold:
                        merged[index:index + 2] = [
                            Cell(left.pieces + right.pieces)
                        ]
                        changed = True
                        break
            return merged

        rng = random.Random(threshold)
        for _ in range(300):
            cells = [
                cell_of(
                    rng.choice([0, 1, 30, 50, 99, 100, 101, 250, 400, 900]),
                    kind=rng.choice(["mem", "disk", "keep"]),
                    page_id=page_id,
                )
                for page_id in range(rng.randint(0, 9))
            ]
            pieces_before = [list(cell.pieces) for cell in cells]
            plan = plan_cells(cells, threshold_pages=threshold, page_size=PAGE)
            expected = restarting(cells)
            assert [cell.pieces for cell in plan] == [
                cell.pieces for cell in expected
            ]
            for cell in plan:
                assert cell.nbytes == sum(p.nbytes for p in cell.pieces)
            assert [cell.pieces for cell in cells] == pieces_before


class TestSplitOversized:
    def test_oversized_mem_cell_splits(self):
        cells = [cell_of(10 * PAGE)]
        result = split_oversized(cells, max_segment_pages=4, page_size=PAGE)
        assert [pages(c) for c in result] == [4, 4, 2]
        assert sum(c.nbytes for c in result) == 10 * PAGE

    def test_fitting_cells_untouched(self):
        cells = [cell_of(3 * PAGE), cell_of(PAGE)]
        result = split_oversized(cells, max_segment_pages=4, page_size=PAGE)
        assert len(result) == 2

    def test_disk_pieces_split_with_offsets(self):
        cells = [Cell([DiskPiece(7, 50, 10 * PAGE)])]
        result = split_oversized(cells, max_segment_pages=4, page_size=PAGE)
        first = result[0].pieces[0]
        second = result[1].pieces[0]
        assert first.offset == 50
        assert second.offset == 50 + 4 * PAGE

    def test_keep_piece_split_becomes_disk(self):
        cells = [Cell([KeepPiece(3, 10 * PAGE)])]
        result = split_oversized(cells, max_segment_pages=4, page_size=PAGE)
        assert all(
            isinstance(piece, DiskPiece)
            for cell in result
            for piece in cell.pieces
        )
