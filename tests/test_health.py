"""Tests for repro.obs.health and repro.obs.timeline.

The contracts under test mirror the tracing ones in ``test_obs.py``:

* **Ground truth** — every health gauge is re-derivable from the
  allocator / manager / pool structures it summarizes, with ``==``
  (the probe itself cross-checks and raises on drift; these tests
  recompute independently).
* **Zero observable effect** — probing a store charges no I/O, and the
  full experiment grid reports bit-identically with a timeline sampler
  installed or not.
* **Deterministic merging** — timeline dumps are byte-identical across
  worker counts, and log-bucket percentiles are exact under any
  partition of the observations.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.core.api import LargeObjectStore
from repro.core.config import small_page_config
from repro.core.errors import ContractViolationError, InvalidArgumentError
from repro.experiments import parallel, registry
from repro.obs.health import (
    probe_any,
    probe_sharded_store,
    probe_store,
)
from repro.obs.metrics import Histogram
from repro.obs.taxonomy import is_known_metric
from repro.obs.timeline import (
    TimelineSampler,
    detect_drift,
    dump_timeline,
    installed as sampler_installed,
    load_timeline,
    validate_timeline,
)
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

    def test_probe_any_dispatches_on_shape(self):
        single = LargeObjectStore("eos", CONFIG, shadowing=True)
        exercise(single)
        sharded = ShardedStore("eos", CONFIG, shards=2)
        sharded.create(pattern_bytes(1000))
        assert len(probe_any(single).shards) == 1
        assert len(probe_any(sharded).shards) == 2

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
# Percentiles: exact, merge-stable log-bucket ranks
# ----------------------------------------------------------------------
class TestPercentiles:
    def test_percentile_returns_bucket_upper_bound(self):
        histogram = Histogram()
        for value in (0.5, 3.0, 40.0, 900.0):
            histogram.observe(value)
        # Ranks: p50 -> 2nd of 4 (bucket <=5.0), p99 -> 4th (<=1000.0).
        assert histogram.percentile(0.50) == 5.0
        assert histogram.percentile(0.99) == 1000.0
        assert histogram.percentiles() == {
            "p50": 5.0,
            "p95": 1000.0,
            "p99": 1000.0,
        }

    def test_percentile_of_empty_histogram_is_zero(self):
        assert Histogram().percentile(0.5) == 0.0

    def test_percentile_rejects_bad_quantile(self):
        with pytest.raises(InvalidArgumentError):
            Histogram().percentile(0.0)
        with pytest.raises(InvalidArgumentError):
            Histogram().percentile(1.5)

    def test_overflow_bucket_reports_infinity(self):
        histogram = Histogram()
        histogram.observe(10**9)
        assert histogram.percentile(0.5) == float("inf")

    def test_percentiles_identical_under_any_partition(self):
        values = [float(v) for v in range(1, 400, 7)]
        whole = Histogram()
        for value in values:
            whole.observe(value)
        for parts in (2, 3, 5):
            merged = Histogram()
            for start in range(parts):
                piece = Histogram()
                for value in values[start::parts]:
                    piece.observe(value)
                merged.merge(piece)
            assert merged.counts == whole.counts
            assert merged.percentiles() == whole.percentiles()


# ----------------------------------------------------------------------
# Timeline sampling
# ----------------------------------------------------------------------
class TestTimelineSampler:
    def _run(self, sampler: TimelineSampler) -> LargeObjectStore:
        """Run a small sampled workload (op recording lives in the
        exec engine and workload runner, not the direct store API)."""
        from repro.workload.generator import WorkloadGenerator
        from repro.workload.runner import WorkloadRunner

        with sampler_installed(sampler):
            store = LargeObjectStore("eos", CONFIG, shadowing=True)
            oid = store.create(pattern_bytes(40_000))
            generator = WorkloadGenerator(
                object_size=store.size(oid), mean_op_size=2000, seed=7
            )
            WorkloadRunner(store.manager, oid, generator).run(
                60, window=10
            )
        return store

    def test_ops_and_sim_ms_match_the_ledger(self):
        from repro.workload.generator import WorkloadGenerator
        from repro.workload.runner import WorkloadRunner

        sampler = TimelineSampler(every_ops=2)
        store = self._run(sampler)
        plain = LargeObjectStore("eos", CONFIG, shadowing=True)
        oid = plain.create(pattern_bytes(40_000))
        generator = WorkloadGenerator(
            object_size=plain.size(oid), mean_op_size=2000, seed=7
        )
        WorkloadRunner(plain.manager, oid, generator).run(60, window=10)
        assert store.stats == plain.stats
        assert sampler.ops == 60
        assert sampler.samples, "every_ops=2 must have sampled"
        total = sum(h.count for h in sampler.metrics.histograms.values())
        assert total == sampler.ops

    def test_dump_validates_and_renders(self, tmp_path):
        sampler = TimelineSampler(every_ops=2, meta={"suite": "test"})
        self._run(sampler)
        path = tmp_path / "timeline.jsonl"
        dump_timeline(sampler, path)
        document = load_timeline(path)
        assert validate_timeline(document) == []
        assert document.summary["ops"] == sampler.ops
        assert document.header["meta"] == {"suite": "test"}

    def test_same_run_dumps_byte_identical(self, tmp_path):
        dumps = []
        for index in range(2):
            sampler = TimelineSampler(every_ops=2)
            self._run(sampler)
            path = tmp_path / f"t{index}.jsonl"
            dump_timeline(sampler, path)
            dumps.append(path.read_bytes())
        assert dumps[0] == dumps[1]

    def test_drift_flag_fires_on_cost_blowup(self):
        sampler = TimelineSampler(every_ops=4)
        for index in range(12):
            cost = 10.0 if index < 8 else 500.0
            sampler.record_op("read", "eos", 0, cost)
        sampler.flush()

        class Doc:
            samples = sampler.samples
            header = {}

        flag = detect_drift(Doc(), threshold=1.5)
        assert flag is not None
        assert flag.ratio > 1.5
        assert "drift" in flag.render()

    def test_grid_reports_identical_sampled_vs_unsampled(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        names = sorted(registry.EXPERIMENTS)
        parallel.clear_caches()
        plain = [registry.run(name) for name in names]
        parallel.clear_caches()
        sampler = TimelineSampler()
        with sampler_installed(sampler):
            sampled = [registry.run(name) for name in names]
        parallel.clear_caches()
        assert sampled == plain
        assert sampler.ops > 0


# ----------------------------------------------------------------------
# Sampling the precomputed grid
# ----------------------------------------------------------------------
class TestParallelTimelines:
    def test_sampled_results_match_unsampled(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        parallel.clear_caches()
        plain = registry.run("fig7-8")
        parallel.clear_caches()
        sampler = TimelineSampler()
        with sampler_installed(sampler):
            parallel.precompute(["fig7-8"])
        sampled = registry.run("fig7-8")
        parallel.clear_caches()
        assert sampled == plain
        assert sampler.ops > 0


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

    def test_timeline_subcommand_roundtrip(self, tmp_path, capsys):
        from repro.workload.generator import WorkloadGenerator
        from repro.workload.runner import WorkloadRunner

        sampler = TimelineSampler(every_ops=2)
        with sampler_installed(sampler):
            store = LargeObjectStore("eos", CONFIG, shadowing=True)
            oid = store.create(pattern_bytes(40_000))
            generator = WorkloadGenerator(
                object_size=store.size(oid), mean_op_size=2000, seed=7
            )
            WorkloadRunner(store.manager, oid, generator).run(
                40, window=10
            )
        path = tmp_path / "timeline.jsonl"
        dump_timeline(sampler, path)
        assert obs_main(["timeline", str(path)]) == 0
        out = capsys.readouterr().out
        assert "latency." in out
        assert obs_main(
            ["timeline", str(path), "--diff", str(path)]
        ) == 0
        assert "identical" in capsys.readouterr().out

    def test_timeline_subcommand_rejects_garbage(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n", encoding="utf-8")
        assert obs_main(["timeline", str(path)]) == 2

    def test_experiments_timeline_flag(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        from repro.experiments.cli import main as experiments_main

        parallel.clear_caches()
        path = tmp_path / "timeline.jsonl"
        assert experiments_main(["fig7-8", "--timeline", str(path)]) == 0
        parallel.clear_caches()
        document = load_timeline(path)
        assert validate_timeline(document) == []
        assert document.summary["ops"] > 0
        assert obs_main(["timeline", str(path)]) == 0
        assert "latency." in capsys.readouterr().out
