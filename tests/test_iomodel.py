"""Unit tests for the analytic I/O cost model (Section 4.1)."""

import pytest

from repro.core.api import LargeObjectStore
from repro.core.config import PAPER_CONFIG, small_page_config
from repro.disk.iomodel import CostModel, IOStats
from repro.exec.plan import append_op, delete_op, insert_op, read_op, replace_op
from repro.obs.export import dump_trace, load_trace
from repro.obs.health import probe_store
from repro.obs.runtime import installed
from repro.obs.summarize import summarize
from repro.obs.tracer import Tracer
from tests.conftest import pattern_bytes


class TestIOStats:
    def test_starts_at_zero(self):
        stats = IOStats()
        assert stats.io_calls == 0
        assert stats.pages_transferred == 0
        assert stats.elapsed_ms(PAPER_CONFIG) == 0.0

    def test_paper_example_single_call(self):
        # "the I/O cost of reading a 3-block (12K-byte) segment is
        #  33 + 4 x 3 = 45 milliseconds"
        stats = IOStats(read_calls=1, pages_read=3)
        assert stats.elapsed_ms(PAPER_CONFIG) == pytest.approx(45.0)

    def test_paper_example_three_calls(self):
        # "the cost of reading the same number of blocks with 3 I/O calls
        #  is (33 + 4) x 3 = 111 milliseconds"
        stats = IOStats(read_calls=3, pages_read=3)
        assert stats.elapsed_ms(PAPER_CONFIG) == pytest.approx(111.0)

    def test_add_accumulates(self):
        a = IOStats(read_calls=1, pages_read=2)
        b = IOStats(write_calls=3, pages_written=4)
        a.add(b)
        assert a.io_calls == 4
        assert a.pages_transferred == 6

    def test_delta(self):
        earlier = IOStats(read_calls=1, pages_read=1)
        later = IOStats(read_calls=4, pages_read=9, write_calls=2,
                        pages_written=5)
        delta = later.delta(earlier)
        assert delta.read_calls == 3
        assert delta.pages_read == 8
        assert delta.write_calls == 2

    def test_copy_is_independent(self):
        stats = IOStats(read_calls=1)
        snapshot = stats.copy()
        stats.read_calls = 10
        assert snapshot.read_calls == 1


class TestCostModel:
    def test_charge_read(self):
        model = CostModel(PAPER_CONFIG)
        model.charge_read(3)
        assert model.stats.read_calls == 1
        assert model.stats.pages_read == 3

    def test_charge_write(self):
        model = CostModel(PAPER_CONFIG)
        model.charge_write(2)
        assert model.stats.write_calls == 1
        assert model.stats.pages_written == 2

    def test_rejects_empty_transfers(self):
        model = CostModel(PAPER_CONFIG)
        with pytest.raises(ValueError):
            model.charge_read(0)
        with pytest.raises(ValueError):
            model.charge_write(-1)

    def test_elapsed_since_snapshot(self):
        model = CostModel(PAPER_CONFIG)
        model.charge_read(1)
        snapshot = model.snapshot()
        model.charge_read(3)
        assert model.elapsed_since(snapshot) == pytest.approx(45.0)


def test_every_priced_surface_follows_the_configured_model(tmp_path):
    """Off Table 1's constants, every surface that prices simulated I/O
    agrees with the ledger priced by ``IOStats.elapsed_ms``: a batch's
    per-op costs, the traced op spans' cost histograms, the trace
    summary and the health probe.  A surface that inlines the 33 ms
    seek or a KB divisor instead of reading the config fails here."""
    config = small_page_config(seek_ms=7.0, transfer_kb_per_ms=0.5)
    tracer = Tracer()
    with installed(tracer):
        store = LargeObjectStore("esm", config)
    oid = store.create(pattern_bytes(3000))
    before = store.stats.copy()
    result = store.env.exec.run_batch(store.manager, oid, [
        append_op(pattern_bytes(700)),
        insert_op(100, pattern_bytes(300, salt=1)),
        read_op(50, 2000),
        delete_op(10, 900),
        replace_op(5, pattern_bytes(400, salt=2)),
    ])
    batch_ms = store.stats.delta(before).elapsed_ms(config)
    assert sum(result.op_costs_ms) == pytest.approx(batch_ms)
    total_ms = store.stats.elapsed_ms(config)
    assert total_ms > batch_ms > 0
    spans_ms = sum(
        histogram.sum_value
        for name, histogram in tracer.metrics.histograms.items()
        if name.endswith(".cost_ms")
    )
    assert spans_ms == pytest.approx(total_ms)
    dump_trace(tracer, tmp_path / "trace.jsonl")
    totals = summarize(load_trace(tmp_path / "trace.jsonl"))["totals"]
    assert totals["cost_ms"] == pytest.approx(total_ms)
    assert probe_store(store).shards[0].cost_ms == pytest.approx(total_ms)
