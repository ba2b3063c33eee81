"""Tests for repro.obs.health.

The contracts under test mirror the tracing ones in ``test_obs.py``:

* **Ground truth** — every health gauge is re-derivable from the
  allocator / manager / pool structures it summarizes, with ``==``
  (the probe itself cross-checks and raises on drift; these tests
  recompute independently).
* **Zero observable effect** — probing a store charges no I/O.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.core.api import LargeObjectStore
from repro.core.config import small_page_config
from repro.core.errors import ContractViolationError
from repro.obs.health import (
    probe_sharded_store,
    probe_store,
)
from repro.obs.taxonomy import is_known_metric
from repro.obs.cli import main as obs_main
from repro.shard.router import ShardedStore
from tests.conftest import pattern_bytes

CONFIG = small_page_config()
SCHEMES = ("esm", "eos", "starburst", "blockbased")


def exercise(store: LargeObjectStore) -> int:
    """A deterministic mixed workload leaving fragmentation behind."""
    oid = store.create(pattern_bytes(5000))
    store.append(oid, pattern_bytes(3000, 1))
    store.replace(oid, 0, pattern_bytes(500, 2))
    store.insert(oid, 1000, pattern_bytes(700, 3))
    store.delete(oid, 50, 400)
    other = store.create(pattern_bytes(2200, 4))
    store.destroy(other)
    return oid


# ----------------------------------------------------------------------
# Gauge ground truth
# ----------------------------------------------------------------------
class TestHealthGauges:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_free_extent_histogram_matches_allocator(self, scheme):
        store = LargeObjectStore(scheme, CONFIG, shadowing=True)
        exercise(store)
        report = probe_store(store)
        shard = report.shards[0]
        for area, allocator in (
            (shard.data, store.env.areas.data),
            (shard.meta, store.env.areas.meta),
        ):
            free = sum(
                allocator._spaces[i].free_blocks
                for i in range(allocator.space_count)
            )
            assert area.free_blocks == free
            assert sum(
                count << order
                for order, count in area.free_extents.items()
            ) == free
            assert (
                area.free_blocks + area.allocated_blocks
                == area.total_blocks
            )
            assert 0.0 <= area.fragmentation < 1.0

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_layout_gauges_match_manager_state(self, scheme):
        store = LargeObjectStore(scheme, CONFIG, shadowing=True)
        oid = exercise(store)
        report = probe_store(store)
        layout = report.shards[0].layout
        image = list(store.manager.image_extents(oid))
        runs = [e.alloc_pages for e in image if not e.meta]
        assert layout.objects == 1
        assert layout.bytes == store.size(oid)
        assert layout.data_runs == len(runs)
        assert layout.data_pages == sum(runs)
        assert layout.meta_pages == len(image) - len(runs)
        assert layout.segments_per_object == len(runs)
        assert layout.seek_amplification >= 1.0
        assert (
            layout.data_pages + layout.meta_pages
            == store.manager.allocated_pages(oid)
        )

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_probe_charges_no_io(self, scheme):
        store = LargeObjectStore(scheme, CONFIG, shadowing=True)
        exercise(store)
        before = store.snapshot()
        pool_before = copy.copy(store.env.pool.stats)
        probe_store(store)
        assert store.stats == before
        assert store.env.pool.stats == pool_before

    def test_sharded_probe_orders_shards_and_reports_skew(self):
        store = ShardedStore("eos", CONFIG, shards=3, atomic=True)
        oids = [store.create(pattern_bytes(4000, i)) for i in range(6)]
        assert len({oid % 3 for oid in oids}) == 3
        report = probe_sharded_store(store)
        assert [s.shard for s in report.shards] == [0, 1, 2]
        assert report.objects == 6
        assert report.total_bytes == 6 * 4000
        assert report.skew_objects >= 1.0
        assert report.skew_cost >= 1.0
        for shard in report.shards:
            assert shard.journal is not None
            assert shard.journal.resolved
            assert shard.journal.residue_pages == 0

    def test_every_emitted_metric_name_is_registered(self):
        store = ShardedStore("starburst", CONFIG, shards=2, atomic=True)
        for i in range(4):
            store.create(pattern_bytes(3000, i))
        metrics = probe_sharded_store(store).to_metrics()
        names = (
            list(metrics.counters)
            + list(metrics.gauges)
            + list(metrics.histograms)
        )
        assert names
        unknown = [n for n in names if not is_known_metric(n)]
        assert unknown == []

    def test_an_unregistered_name_is_refused_at_export(self, monkeypatch):
        store = LargeObjectStore("esm", CONFIG)
        exercise(store)
        report = probe_store(store)
        monkeypatch.setattr(
            "repro.obs.health.is_known_metric",
            lambda name: name != "health.bytes",
        )
        with pytest.raises(ContractViolationError, match="health.bytes"):
            report.to_metrics()

    def test_report_roundtrips_to_json(self):
        store = LargeObjectStore("esm", CONFIG, shadowing=True)
        exercise(store)
        report = probe_store(store)
        document = json.loads(json.dumps(report.to_dict(), sort_keys=True))
        assert document["version"] == 1
        assert document["objects"] == report.objects
        assert "fragmentation" in document["shards"][0]["data"]
        assert report.render().startswith("health:")

    def test_probe_rejects_memory_image_drift(self):
        """Memory claims a page the committed image does not: the probe
        refuses to report either count."""
        store = LargeObjectStore("eos", CONFIG, shadowing=True)
        oid = store.create(pattern_bytes(2 * 128))
        tree = store.manager.tree_of(oid)
        cursor = tree.locate(0)
        tree.update_extent(cursor, alloc_pages=cursor.extent.alloc_pages + 1)
        with pytest.raises(ContractViolationError, match="image runs cover"):
            probe_store(store)


# ----------------------------------------------------------------------
# CLI smoke
# ----------------------------------------------------------------------
class TestHealthCli:
    def test_health_subcommand_renders(self, capsys):
        assert obs_main(["health", "--scheme", "eos"]) == 0
        out = capsys.readouterr().out
        assert "health:" in out
        assert "frag=" in out

    def test_health_subcommand_json(self, capsys):
        assert obs_main(
            ["health", "--scheme", "esm", "--shards", "3", "--atomic",
             "--json"]
        ) == 0
        document = json.loads(capsys.readouterr().out)
        assert len(document["shards"]) == 3
        assert document["shards"][0]["journal"] is not None
