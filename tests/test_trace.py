"""Tests for workload trace record/replay."""

import pytest

from repro.core.api import LargeObjectStore
from repro.core.config import small_page_config
from repro.workload.generator import WorkloadGenerator
from repro.workload.trace import (
    Trace,
    TraceError,
    TraceOp,
    replay,
)

CONFIG = small_page_config()


def sample_trace():
    return Trace([
        TraceOp("append", 0, 500),
        TraceOp("append", 0, 300),
        TraceOp("insert", 100, 50),
        TraceOp("read", 0, 200),
        TraceOp("replace", 40, 10),
        TraceOp("delete", 700, 80),
    ])


class TestSerialization:
    def test_roundtrip(self):
        trace = sample_trace()
        assert Trace.loads(trace.dumps()).operations == trace.operations

    def test_comments_and_blanks_ignored(self):
        text = "# header\n\nappend 10  # tail comment\nread 0 5\n"
        trace = Trace.loads(text)
        assert [op.kind for op in trace] == ["append", "read"]

    def test_malformed_line_rejected(self):
        with pytest.raises(TraceError):
            Trace.loads("insert 5")
        with pytest.raises(TraceError):
            Trace.loads("frobnicate 1 2")
        with pytest.raises(TraceError):
            Trace.loads("append many")

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "ops.trace"
        trace = sample_trace()
        trace.save(str(path))
        assert Trace.load(str(path)).operations == trace.operations


class TestRecord:
    def test_records_from_generator(self):
        generator = WorkloadGenerator(10_000, 200, seed=5)
        trace = Trace.record(generator, 40)
        assert len(trace) == 40
        assert all(op.kind in ("read", "insert", "delete") for op in trace)

    def test_recorded_trace_is_replayable(self):
        generator = WorkloadGenerator(5_000, 200, seed=5)
        trace = Trace.record(generator, 60)
        store = LargeObjectStore("eos", CONFIG)
        oid = store.create(bytes(5_000))
        result = replay(store.manager, oid, trace)
        assert len(result.op_costs_ms) == 60
        assert result.final_size == store.size(oid)


class TestReplay:
    def test_replays_are_deterministic_across_schemes(self):
        trace = sample_trace()
        contents = {}
        for scheme in ("esm", "starburst", "eos", "blockbased"):
            store = LargeObjectStore(scheme, CONFIG)
            oid = store.create()
            result = replay(store.manager, oid, trace)
            contents[scheme] = store.read(oid, 0, store.size(oid))
            assert result.scheme == scheme
            assert result.total_ms > 0
        assert len(set(contents.values())) == 1, (
            "replay must produce byte-identical objects on every scheme"
        )

    def test_per_op_costs_recorded(self):
        store = LargeObjectStore("starburst", CONFIG)
        oid = store.create()
        result = replay(store.manager, oid, sample_trace())
        assert len(result.op_costs_ms) == len(sample_trace())
        # The middle insert forces a tail rewrite: costlier than the read.
        assert result.op_costs_ms[2] > result.op_costs_ms[3]


def test_trace_op_line_forms():
    assert TraceOp("append", 0, 7).to_line() == "append 7"
    assert TraceOp("insert", 3, 7).to_line() == "insert 3 7"
    assert TraceOp.from_line("delete 1 2") == TraceOp("delete", 1, 2)
