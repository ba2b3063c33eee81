"""Tests for the workload generator and runner (Section 4.4)."""

import pytest

from repro.core.config import small_page_config
from repro.core.api import LargeObjectStore
from repro.core.fsck import check, check_after_workload
from repro.workload.generator import (
    DELETE,
    INSERT,
    READ,
    Operation,
    OperationMix,
    WorkloadGenerator,
)
from repro.workload.runner import WorkloadRunner


class TestOperationMix:
    def test_paper_mix(self):
        mix = OperationMix()
        assert mix.insert_fraction == pytest.approx(0.30)
        assert mix.delete_fraction == pytest.approx(0.30)
        assert 1 - mix.insert_fraction - mix.delete_fraction == pytest.approx(0.40)

    def test_rejects_overfull_mix(self):
        with pytest.raises(ValueError):
            OperationMix(insert_fraction=0.6, delete_fraction=0.6)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            OperationMix(insert_fraction=-0.1)


class TestGenerator:
    def test_deterministic_for_seed(self):
        a = list(WorkloadGenerator(10_000, 100, seed=3).operations(50))
        b = list(WorkloadGenerator(10_000, 100, seed=3).operations(50))
        assert a == b

    def test_different_seeds_differ(self):
        a = list(WorkloadGenerator(10_000, 100, seed=1).operations(50))
        b = list(WorkloadGenerator(10_000, 100, seed=2).operations(50))
        assert a != b

    def test_sizes_within_half_of_mean(self):
        # "the actual operation size was varied +/-50% about the mean"
        gen = WorkloadGenerator(1_000_000, 1000, seed=5)
        for op in gen.operations(500):
            if op.kind in (READ, INSERT):
                assert 500 <= op.nbytes <= 1500

    def test_mix_roughly_honoured(self):
        gen = WorkloadGenerator(10_000_000, 100, seed=7)
        counts = {READ: 0, INSERT: 0, DELETE: 0}
        for op in gen.operations(4000):
            counts[op.kind] += 1
        assert counts[READ] / 4000 == pytest.approx(0.40, abs=0.05)
        assert counts[INSERT] / 4000 == pytest.approx(0.30, abs=0.05)
        assert counts[DELETE] / 4000 == pytest.approx(0.30, abs=0.05)

    def test_object_size_stays_stable(self):
        # "To ensure that the object size remained stable ..."
        gen = WorkloadGenerator(1_000_000, 100_000, seed=11)
        for _ in gen.operations(3000):
            pass
        assert 0.8 * 1_000_000 <= gen.object_size <= 1.2 * 1_000_000

    def test_operations_stay_in_bounds(self):
        gen = WorkloadGenerator(5000, 1000, seed=13)
        size = 5000
        for op in gen.operations(2000):
            if op.kind == INSERT:
                assert 0 <= op.offset <= size
                size += op.nbytes
            else:
                assert 0 <= op.offset
                assert op.offset + op.nbytes <= size
                if op.kind == DELETE:
                    size -= op.nbytes

    def test_delete_size_matches_previous_insert(self):
        gen = WorkloadGenerator(10_000_000, 10_000, seed=17)
        last_insert = gen.mean_op_size
        for op in gen.operations(1000):
            if op.kind == INSERT:
                last_insert = op.nbytes
            elif op.kind == DELETE:
                assert op.nbytes == last_insert

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadGenerator(0, 10)
        with pytest.raises(ValueError):
            WorkloadGenerator(10, 0)


class TestRunner:
    @pytest.fixture
    def setup(self):
        store = LargeObjectStore(
            "eos", small_page_config(), record_data=False
        )
        oid = store.create(bytes(20_000))
        gen = WorkloadGenerator(store.size(oid), 500, seed=3)
        return store, WorkloadRunner(store.manager, oid, gen)

    def test_window_count(self, setup):
        _store, runner = setup
        windows = runner.run(100, window=25)
        assert len(windows) == 4
        assert [w.ops_done for w in windows] == [25, 50, 75, 100]

    def test_ragged_final_window(self, setup):
        _store, runner = setup
        windows = runner.run(60, window=25)
        assert [w.ops_done for w in windows] == [25, 50, 60]

    def test_costs_recorded_per_kind(self, setup):
        store, runner = setup
        windows = runner.run(200, window=200)
        window = windows[0]
        assert window.reads + window.inserts + window.deletes == 200
        assert window.avg_read_ms > 0
        assert window.avg_insert_ms > 0
        assert window.utilization > 0
        # Randomized workloads finish with a storage consistency check.
        report = check([(store.manager, [runner.oid])])
        assert report.clean, report.summary()

    def test_rejects_bad_window(self, setup):
        _store, runner = setup
        with pytest.raises(ValueError):
            runner.run(10, window=0)


def test_operation_is_value_object():
    assert Operation(READ, 0, 10) == Operation(READ, 0, 10)


@pytest.mark.parametrize("scheme", ["esm", "starburst", "eos", "blockbased"])
def test_fsck_clean_after_randomized_workload(scheme):
    # The repro-experiments fsck helper: every scheme must survive a
    # seeded random workload with no dangling/double/leaked pages.
    report = check_after_workload(scheme, n_ops=200, seed=11)
    assert report.clean, f"{scheme}: {report.summary()}"
