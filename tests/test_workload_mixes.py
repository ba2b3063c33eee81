"""Workload generator with non-default operation mixes."""

import pytest

from repro.core.api import LargeObjectStore
from repro.core.config import small_page_config
from repro.core.fsck import check
from repro.workload.generator import (
    DELETE,
    INSERT,
    READ,
    OperationMix,
    WorkloadGenerator,
)
from repro.workload.runner import WorkloadRunner


class TestCustomMixes:
    def test_read_only_mix(self):
        mix = OperationMix(insert_fraction=0.0, delete_fraction=0.0)
        gen = WorkloadGenerator(100_000, 1000, seed=1, mix=mix)
        kinds = {op.kind for op in gen.operations(200)}
        assert kinds == {READ}
        assert gen.object_size == 100_000

    def test_update_only_mix(self):
        mix = OperationMix(insert_fraction=0.5, delete_fraction=0.5)
        gen = WorkloadGenerator(100_000, 1000, seed=1, mix=mix)
        kinds = {op.kind for op in gen.operations(200)}
        assert READ not in kinds
        assert {INSERT, DELETE} <= kinds

    def test_insert_heavy_mix_respects_stability_band(self):
        mix = OperationMix(insert_fraction=0.6, delete_fraction=0.2)
        gen = WorkloadGenerator(50_000, 5000, seed=2, mix=mix)
        for _ in gen.operations(2000):
            pass
        # The stabilizer flips inserts to deletes at the +10% band, so
        # even a biased mix cannot balloon the object.
        assert gen.object_size <= 1.2 * 50_000

    def test_paper_mix_is_the_default(self):
        gen = WorkloadGenerator(10_000, 100)
        assert gen.mix == OperationMix()


class TestRunnerWithMixes:
    def test_read_only_run_changes_nothing(self):
        store = LargeObjectStore(
            "eos", small_page_config(), record_data=False
        )
        oid = store.create(bytes(30_000))
        mix = OperationMix(insert_fraction=0.0, delete_fraction=0.0)
        gen = WorkloadGenerator(store.size(oid), 500, seed=3, mix=mix)
        runner = WorkloadRunner(store.manager, oid, gen)
        windows = runner.run(100, window=50)
        assert store.size(oid) == 30_000
        assert all(w.inserts == w.deletes == 0 for w in windows)
        assert all(w.utilization > 0 for w in windows)

    def test_update_only_run_keeps_size_near_start(self):
        store = LargeObjectStore(
            "eos", small_page_config(), record_data=False
        )
        oid = store.create(bytes(30_000))
        mix = OperationMix(insert_fraction=0.5, delete_fraction=0.5)
        gen = WorkloadGenerator(store.size(oid), 500, seed=3, mix=mix)
        runner = WorkloadRunner(store.manager, oid, gen)
        runner.run(300, window=100)
        assert 0.8 * 30_000 <= store.size(oid) <= 1.2 * 30_000
        # Randomized workloads finish with a storage consistency check.
        report = check([(store.manager, [oid])])
        assert report.clean, report.summary()
