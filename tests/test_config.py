"""Unit tests for the system configuration (paper Table 1 + Section 4.1)."""

import pytest

from repro.core.config import PAPER_CONFIG, SystemConfig, small_page_config


class TestPaperDefaults:
    def test_table1_values(self):
        assert PAPER_CONFIG.page_size == 4096
        assert PAPER_CONFIG.buffer_pool_pages == 12
        assert PAPER_CONFIG.max_buffered_segment_pages == 4
        assert PAPER_CONFIG.seek_ms == 33.0
        assert PAPER_CONFIG.transfer_kb_per_ms == 1.0

    def test_root_fanout_matches_section_4_1(self):
        # "With 4K-byte pages we may store up to 507 pairs in the root".
        assert PAPER_CONFIG.root_fanout == 507

    def test_node_fanout_matches_section_4_1(self):
        # "... and 511 pairs in internal index pages."
        assert PAPER_CONFIG.node_fanout == 511

    def test_transfer_time_of_one_page(self):
        # 4 KB at 1 KB/ms -> 4 ms, the paper's per-page transfer charge.
        assert PAPER_CONFIG.transfer_ms_per_page == pytest.approx(4.0)

    def test_max_segment_is_32_mb(self):
        # "with 4K-byte disk blocks, EOS supports at most 32M-byte segments"
        pages = PAPER_CONFIG.max_segment_pages
        assert pages * PAPER_CONFIG.page_size == 32 * 1024 * 1024

    def test_staging_buffer_is_512_kb(self):
        assert PAPER_CONFIG.staging_buffer_bytes == 512 * 1024
        assert PAPER_CONFIG.staging_buffer_bytes // PAPER_CONFIG.page_size == 128


class TestValidation:
    def test_rejects_non_power_of_two_pages(self):
        with pytest.raises(ValueError):
            SystemConfig(page_size=3000)

    def test_rejects_tiny_pages(self):
        with pytest.raises(ValueError):
            SystemConfig(page_size=32)

    def test_rejects_empty_pool(self):
        with pytest.raises(ValueError):
            SystemConfig(buffer_pool_pages=0)

    def test_rejects_negative_buffered_segment(self):
        with pytest.raises(ValueError):
            SystemConfig(max_buffered_segment_pages=-1)
        assert SystemConfig(max_buffered_segment_pages=0)  # never buffer

    def test_rejects_segment_larger_than_space(self):
        with pytest.raises(ValueError):
            SystemConfig(buddy_space_order=10, max_segment_order=11)

    def test_rejects_sub_page_staging_buffer(self):
        with pytest.raises(ValueError):
            SystemConfig(staging_buffer_bytes=100)


class TestDerived:
    def test_pages_for_bytes_rounds_up(self):
        config = small_page_config(page_size=128)
        assert config.pages_for_bytes(0) == 0
        assert config.pages_for_bytes(1) == 1
        assert config.pages_for_bytes(128) == 1
        assert config.pages_for_bytes(129) == 2

    def test_pages_for_bytes_rejects_negative(self):
        with pytest.raises(ValueError):
            PAPER_CONFIG.pages_for_bytes(-1)

    def test_small_page_config_overrides(self):
        config = small_page_config(page_size=256, buffer_pool_pages=6)
        assert config.page_size == 256
        assert config.buffer_pool_pages == 6

    def test_buddy_space_blocks(self):
        config = small_page_config()
        assert config.buddy_space_blocks == 1 << config.buddy_space_order

    def test_fanouts_scale_with_page_size(self):
        config = small_page_config(page_size=128)
        assert config.root_fanout == (128 - 40) // 8
        assert config.node_fanout == (128 - 8) // 8
