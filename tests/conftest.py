"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.api import LargeObjectStore
from repro.core.config import SystemConfig, small_page_config
from repro.core.env import StorageEnvironment
from repro.lint.contracts import CHECKS_FLAG
from repro.shard.router import ShardedStore
from repro.tree.tree import PositionalTree


@pytest.fixture
def checked(request: pytest.FixtureRequest,
            monkeypatch: pytest.MonkeyPatch) -> bool:
    """Switch the runtime checks on (``REPRO_CHECKS=1``) for the test, or
    off where an indirect parametrization gives ``False``; returns which.
    A disk reads the switch when it is built, so the test builds its
    stores after this fixture: list it before any fixture that builds one.
    """
    on = getattr(request, "param", True)
    monkeypatch.setenv(CHECKS_FLAG, "1" if on else "0")
    return on


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


def fingerprint(
    subject: StorageEnvironment | LargeObjectStore | ShardedStore,
    contents: bool = True,
) -> object:
    """Everything a caller can observe, read through public calls that
    charge nothing: the ledger, the pool counters, every frame (recency
    order, pins, dirty flag, content), the raw image, each area's
    allocated pages and superdirectory, and every live object's size.
    A sharded store gives one entry per shard.  ``contents=False``
    leaves out the frames' contents and the raw image, which is what
    a recorded store and its phantom twin may differ in."""
    if isinstance(subject, ShardedStore):
        return [fingerprint(shard, contents) for shard in subject.shards]
    env = subject if isinstance(subject, StorageEnvironment) else subject.env
    pool = env.pool
    state: dict[str, object] = {
        "io": dataclasses.astuple(env.cost.stats),
        "pool": dataclasses.astuple(pool.stats),
        "frames": [
            (page_id, pins, dirty,
             pool.page(page_id) if contents else None)
            for page_id, pins, dirty in pool.frames()
        ],
    }
    if contents:
        state["image"] = env.disk.image()
    for name, area in (("meta", env.areas.meta), ("data", env.areas.data)):
        state[f"{name} pages"] = list(area.allocated_page_ids())
        state[f"{name} superdirectory"] = [
            area.superdirectory_entry(space)
            for space in range(area.space_count)
        ]
    if isinstance(subject, LargeObjectStore):
        manager = subject.manager
        state["sizes"] = {oid: manager.size(oid) for oid in manager.oids()}
    return state
