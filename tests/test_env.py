"""Tests for StorageEnvironment wiring."""

import pytest

from repro.core.config import small_page_config
from repro.core.env import StorageEnvironment
from repro.recovery.shadow import NO_SHADOW


@pytest.fixture
def env():
    return StorageEnvironment(small_page_config())


class TestWiring:
    def test_single_cost_ledger(self, env):
        assert env.disk.cost is env.cost
        assert env.pool.disk is env.disk
        assert env.segio.pool is env.pool

    def test_areas_are_disjoint(self, env):
        meta_page = env.areas.meta.allocate(1)
        data_page = env.areas.data.allocate(1)
        assert meta_page != data_page
        assert env.areas.meta.base_page_id != env.areas.data.base_page_id

    def test_record_flag_propagates(self):
        env = StorageEnvironment(small_page_config(), record_leaf_data=False)
        assert env.areas.record_leaf_data is False
        assert env.segio.record_leaf_data is False

    def test_shadow_policy_propagates(self):
        env = StorageEnvironment(small_page_config(), shadow=NO_SHADOW)
        assert not env.shadow.enabled

    def test_ablation_flags_reach_segio(self):
        # Section 3.2's extremes are configs: 0 buffers no run, the pool
        # size every run the pool holds.
        for limit, buffered in ((0, False), (12, True)):
            config = small_page_config(buffer_pool_pages=12,
                                       max_buffered_segment_pages=limit)
            env = StorageEnvironment(config)
            first = env.areas.data.base_page_id
            env.segio.read_pages(first, 8)
            assert env.pool.is_resident(first + 7) is buffered


class TestSnapshots:
    def test_io_since_counts_only_new_activity(self, env):
        env.disk.read_pages(0, 2)
        snapshot = env.snapshot()
        env.disk.read_pages(0, 3)
        env.disk.write_pages(5, 1, b"x")
        delta = env.cost.stats.delta(snapshot)
        assert delta.read_calls == 1
        assert delta.pages_read == 3
        assert delta.write_calls == 1

    def test_elapsed_matches_cost_model(self, env):
        snapshot = env.snapshot()
        env.disk.read_pages(0, 1)
        page_ms = env.config.transfer_ms_per_page
        assert env.elapsed_ms_since(snapshot) == pytest.approx(
            env.config.seek_ms + page_ms
        )

    def test_total_allocated_pages(self, env):
        env.areas.meta.allocate(2)
        env.areas.data.allocate(5)
        areas = env.areas
        assert areas.meta.allocated_pages + areas.data.allocated_pages == 7
