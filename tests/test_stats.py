"""Tests for descriptive statistics and per-op cost sampling."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stats import mean, median, percentile, stdev, summarize
from repro.core.api import LargeObjectStore
from repro.core.config import small_page_config
from repro.workload.generator import WorkloadGenerator
from repro.workload.runner import WorkloadRunner


class TestBasics:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0
        assert mean([]) == 0.0

    def test_median_odd_even(self):
        assert median([3.0, 1.0, 2.0]) == 2.0
        assert median([1.0, 2.0, 3.0, 4.0]) == 2.5

    def test_percentile_interpolation(self):
        values = [0.0, 10.0]
        assert percentile(values, 0) == 0.0
        assert percentile(values, 100) == 10.0
        assert percentile(values, 25) == 2.5

    def test_percentile_bounds(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_stdev(self):
        assert stdev([5.0, 5.0, 5.0]) == 0.0
        assert stdev([1.0]) == 0.0
        assert stdev([0.0, 2.0]) == pytest.approx(1.0)

    def test_summary(self):
        summary = summarize([1.0, 2.0, 3.0, 4.0, 100.0])
        assert summary.count == 5
        assert summary.maximum == 100.0
        assert summary.median == 3.0

    def test_empty_summary(self):
        assert summarize([]).count == 0


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1,
                max_size=50))
def test_summary_invariants(values):
    slack = 1e-6 * (1.0 + max(values))  # float-rounding tolerance
    summary = summarize(values)
    assert summary.minimum - slack <= summary.median <= summary.maximum + slack
    assert summary.minimum - slack <= summary.mean <= summary.maximum + slack
    assert summary.median - slack <= summary.p95 <= summary.maximum + slack


class TestRunnerSampling:
    def test_samples_collected_when_requested(self):
        store = LargeObjectStore(
            "eos", small_page_config(), record_data=False
        )
        oid = store.create(bytes(20_000))
        generator = WorkloadGenerator(store.size(oid), 500, seed=3)
        runner = WorkloadRunner(store.manager, oid, generator)
        windows = runner.run(100, window=100, keep_op_costs=True)
        window = windows[0]
        assert len(window.read_samples) == window.reads
        assert sum(window.read_samples) == pytest.approx(
            window.read_ms_total
        )
        summary = summarize(window.insert_samples)
        assert summary.mean == pytest.approx(window.avg_insert_ms)

    def test_samples_absent_by_default(self):
        store = LargeObjectStore(
            "eos", small_page_config(), record_data=False
        )
        oid = store.create(bytes(20_000))
        generator = WorkloadGenerator(store.size(oid), 500, seed=3)
        runner = WorkloadRunner(store.manager, oid, generator)
        windows = runner.run(50, window=50)
        assert windows[0].read_samples == []
