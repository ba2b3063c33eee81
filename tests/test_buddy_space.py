"""Unit and property tests for the binary buddy space (Section 3.1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buddy.space import BuddySpace
from repro.core.errors import AllocationError, OutOfSpaceError


class TestAllocate:
    def test_full_space_allocation(self):
        space = BuddySpace(4)
        assert space.allocate(16) == 0
        assert space.free_blocks == 0

    def test_power_of_two_split(self):
        space = BuddySpace(4)
        a = space.allocate(4)
        b = space.allocate(4)
        assert {a, b} == {0, 4} or abs(a - b) >= 4
        assert space.allocated_blocks == 8

    def test_trim_frees_surplus(self):
        # Allocating 5 blocks takes an 8-extent and trims 3 back.
        space = BuddySpace(4)
        offset = space.allocate(5)
        assert space.allocated_blocks == 5
        # The trimmed tail (three blocks as a 1-extent and a 2-extent) is
        # immediately allocatable.
        one = space.allocate(1)
        two = space.allocate(2)
        assert {one, two} == {offset + 5, offset + 6}
        space.check_invariants()

    def test_exhaustion_raises(self):
        space = BuddySpace(3)
        space.allocate(8)
        with pytest.raises(OutOfSpaceError):
            space.allocate(1)

    def test_oversized_request_raises(self):
        space = BuddySpace(3)
        with pytest.raises(OutOfSpaceError):
            space.allocate(9)

    def test_zero_request_raises(self):
        with pytest.raises(AllocationError):
            BuddySpace(3).allocate(0)


class TestFree:
    def test_free_whole_allocation_coalesces(self):
        space = BuddySpace(4)
        offset = space.allocate(16)
        space.free_range(offset, 16)
        assert space._free_sets[4] == {0}
        space.check_invariants()

    def test_partial_free(self):
        # "a client may selectively free any portion of a previously
        #  allocated segment" (Section 3.1).
        space = BuddySpace(4)
        offset = space.allocate(8)
        space.free_range(offset + 6, 2)
        assert space.allocated_blocks == 6
        space.check_invariants()

    def test_double_free_raises(self):
        space = BuddySpace(4)
        offset = space.allocate(4)
        space.free_range(offset, 4)
        with pytest.raises(AllocationError):
            space.free_range(offset, 4)

    def test_free_out_of_bounds_raises(self):
        space = BuddySpace(3)
        with pytest.raises(AllocationError):
            space.free_range(7, 2)

    def test_buddy_merge_restores_max_extent(self):
        space = BuddySpace(4)
        offsets = [space.allocate(1) for _ in range(16)]
        for offset in offsets:
            space.free_range(offset, 1)
        assert space._free_sets[4] == {0}


class TestBitmap:
    def test_bitmap_tracks_allocation(self):
        space = BuddySpace(4)
        offset = space.allocate(3)
        assert all(
            space.is_block_allocated(offset + i) for i in range(3)
        )
        assert not space.is_block_allocated(offset + 3)

    def test_bitmap_cleared_on_free(self):
        space = BuddySpace(4)
        offset = space.allocate(4)
        space.free_range(offset, 4)
        assert not any(space.is_block_allocated(b) for b in range(16))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.booleans(), st.integers(min_value=1, max_value=40)),
        max_size=60,
    )
)
def test_random_alloc_free_never_overlaps(script):
    """Property: allocations never overlap and counts stay conserved."""
    space = BuddySpace(6)  # 64 blocks
    live: list[tuple[int, int]] = []
    for is_alloc, size in script:
        if is_alloc:
            try:
                offset = space.allocate(size)
            except OutOfSpaceError:
                continue
            for other_offset, other_size in live:
                assert (
                    offset + size <= other_offset
                    or other_offset + other_size <= offset
                ), "overlapping allocations"
            live.append((offset, size))
        elif live:
            offset, size = live.pop()
            space.free_range(offset, size)
        space.check_invariants()
        assert space.allocated_blocks == sum(size for _off, size in live)
