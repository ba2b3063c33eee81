"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.core.api import LargeObjectStore
from repro.core.config import SystemConfig, small_page_config
from repro.core.env import StorageEnvironment
from repro.tree.tree import PositionalTree


@pytest.fixture
def small_config() -> SystemConfig:
    """Tiny pages: byte-level edge cases appear with small objects."""
    return small_page_config()


@pytest.fixture
def env(small_config: SystemConfig) -> StorageEnvironment:
    """A fresh storage environment recording real bytes."""
    return StorageEnvironment(small_config)


@pytest.fixture
def store_factory(small_config: SystemConfig):
    """Factory building stores on the small config (real bytes)."""

    def make(scheme: str, **kwargs) -> LargeObjectStore:
        kwargs.setdefault("config", small_config)
        config = kwargs.pop("config")
        return LargeObjectStore(scheme, config, **kwargs)

    return make


def pattern_bytes(n: int, salt: int = 0) -> bytes:
    """Deterministic non-repeating-ish test content."""
    return bytes((salt + i * 7) % 251 for i in range(n))


def end_op(tree: PositionalTree) -> None:
    """Close a tree operation as a lone op's bracket does: flush the
    modified index pages, then commit the root if it changed."""
    if tree.end_op():
        tree.commit_root()


def fingerprint(store: LargeObjectStore) -> dict[str, object]:
    """Everything an experiment run can observe of one store, in one dict:
    the ledger, the pool counters, the raw image, both areas' allocated
    pages and every live object's size."""
    stats = store.stats
    pool = store.env.pool.stats
    areas = store.env.areas
    return {
        "read_calls": stats.read_calls,
        "write_calls": stats.write_calls,
        "pages_read": stats.pages_read,
        "pages_written": stats.pages_written,
        "retries": stats.retries,
        "sim_ms": store.elapsed_ms(),
        "pool_hits": pool.hits,
        "pool_misses": pool.misses,
        "pool_evictions": pool.evictions,
        "pool_writebacks": pool.dirty_writebacks,
        "image": store.env.disk.image(),
        "meta_pages": areas.meta.allocated_pages,
        "data_pages": areas.data.allocated_pages,
        "sizes": {oid: store.size(oid) for oid in store.manager.oids()},
    }
