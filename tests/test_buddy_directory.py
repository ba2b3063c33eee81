"""Tests for buddy directory serialization (the 1-block directory)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buddy.directory import (
    check_directory_fits,
    deserialize_directory,
    directory_bytes_needed,
    serialize_directory,
)
from repro.buddy.space import BuddySpace
from repro.core.config import PAPER_CONFIG, small_page_config
from repro.core.errors import ConfigurationError, OutOfSpaceError, StorageCorruptionError


class TestFits:
    def test_paper_config_directory_fits_one_page(self):
        # A 64 MB buddy space's directory must fit one 4 KB block.
        check_directory_fits(PAPER_CONFIG)
        assert directory_bytes_needed(PAPER_CONFIG.buddy_space_order) <= 4096

    def test_oversized_space_rejected(self):
        config = small_page_config()
        with pytest.raises(ConfigurationError):
            check_directory_fits(
                small_page_config(
                    page_size=config.page_size,
                    buddy_space_order=12,
                    max_segment_order=7,
                )
            )


class TestRoundTrip:
    def test_empty_space(self):
        space = BuddySpace(5)
        rebuilt = deserialize_directory(serialize_directory(space))
        assert rebuilt.free_blocks == space.free_blocks
        rebuilt.check_invariants()

    def test_full_space(self):
        space = BuddySpace(5)
        space.allocate(32)
        rebuilt = deserialize_directory(serialize_directory(space))
        assert rebuilt.free_blocks == 0
        rebuilt.check_invariants()

    def test_wrong_magic_rejected(self):
        with pytest.raises(StorageCorruptionError):
            deserialize_directory(b"JUNK" + bytes(100))

    def test_truncated_rejected(self):
        with pytest.raises(StorageCorruptionError):
            deserialize_directory(b"BD")


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.booleans(), st.integers(min_value=1, max_value=20)),
        max_size=40,
    )
)
def test_roundtrip_preserves_allocation_state(script):
    """Property: serialize/deserialize preserves the exact bitmap and the
    rebuilt free lists can satisfy the same requests."""
    space = BuddySpace(5)
    live = []
    for is_alloc, size in script:
        if is_alloc:
            try:
                live.append((space.allocate(size), size))
            except OutOfSpaceError:
                pass
        elif live:
            offset, size = live.pop()
            space.free_range(offset, size)
    rebuilt = deserialize_directory(serialize_directory(space))
    rebuilt.check_invariants()
    assert serialize_directory(rebuilt) == serialize_directory(space)
    assert rebuilt.free_blocks == space.free_blocks
    assert rebuilt._order_mask == space._order_mask
