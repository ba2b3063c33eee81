"""Tests for repro.obs: tracing, metrics, export, CLI, and invariance.

The two contracts that matter most:

* **Exact cost attribution** — for any traced run, the sum of disk-level
  I/O event costs in the trace equals the cost ledger's total exactly
  (the paper's seek/transfer constants are exact binary floats, so the
  equality is bitwise, not approximate).
* **Zero observable effect** — reports, counters, and simulated costs
  are bit-identical with tracing on or off, and a trace diffed against
  itself is empty.
"""

from __future__ import annotations

import json

import pytest

from repro.core.api import LargeObjectStore
from repro.core.config import SystemConfig, small_page_config
from repro.core.env import StorageEnvironment
from repro.core.errors import InvalidArgumentError, TraceError
from repro.experiments import parallel, registry
from repro.faults import FaultInjector, FaultPlan, at
from repro.obs import (
    Histogram,
    MetricsRegistry,
    Tracer,
    current,
    dump_trace,
    installed,
    load_trace,
    validate_trace,
)
from repro.obs.cli import main as obs_main
from repro.obs.summarize import (
    collapsed_stacks,
    diff_documents,
    fold_io_totals,
    render_diff,
    render_summary,
    span_kind_table,
    summarize,
    total_cost_ms,
)
from tests.conftest import pattern_bytes

CONFIG = small_page_config()
SCHEMES = ("esm", "eos", "starburst", "blockbased")


def traced_store(scheme: str, tracer: Tracer) -> LargeObjectStore:
    with installed(tracer):
        return LargeObjectStore(scheme, CONFIG, shadowing=True)


def exercise(store: LargeObjectStore) -> int:
    oid = store.create(pattern_bytes(5000))
    store.append(oid, pattern_bytes(3000, 1))
    store.read(oid, 100, 2000)
    store.replace(oid, 0, pattern_bytes(500, 2))
    store.insert(oid, 1000, pattern_bytes(700, 3))
    store.delete(oid, 50, 400)
    return oid


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestMetrics:
    def test_histogram_observe_and_mean(self):
        histogram = Histogram()
        histogram.observe(1.0)
        histogram.observe(3.0)
        assert histogram.count == 2
        assert histogram.mean == 2.0

    def test_histogram_roundtrip(self):
        histogram = Histogram()
        histogram.observe(7.5)
        clone = Histogram.from_dict(histogram.to_dict())
        assert clone.to_dict() == histogram.to_dict()

    def test_histogram_merge_bounds_mismatch_rejected(self):
        histogram = Histogram()
        other = Histogram(bounds=(1.0, 2.0))
        with pytest.raises(InvalidArgumentError):
            histogram.merge(other)

    def test_registry_merge_adds_counters_and_histograms(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        first.inc("io.read_calls", 2)
        second.inc("io.read_calls", 3)
        first.observe("op.read.cost_ms", 10.0)
        second.observe("op.read.cost_ms", 20.0)
        second.set_gauge("pool.capacity", 12)
        first.merge(second)
        assert first.counters["io.read_calls"] == 5
        assert first.histograms["op.read.cost_ms"].count == 2
        assert first.gauges["pool.capacity"] == 12

    def test_registry_roundtrip(self):
        registry_ = MetricsRegistry()
        registry_.inc("a")
        registry_.set_gauge("g", 1.5)
        registry_.observe("h", 4.0)
        clone = MetricsRegistry.from_dict(registry_.to_dict())
        assert clone.to_dict() == registry_.to_dict()


# ----------------------------------------------------------------------
# Tracer core
# ----------------------------------------------------------------------
class TestTracer:
    def test_span_nesting_records_parentage(self):
        tracer = Tracer()
        with tracer.span("op.append", scheme="esm"):
            with tracer.span("segio.write"):
                tracer.io_event("disk.write", 0, 4)
        spans = {r["kind"]: r for r in tracer.records if r["t"] == "span"}
        assert spans["segio.write"]["parent"] == spans["op.append"]["id"]
        assert spans["op.append"]["parent"] is None
        # Children close (and are recorded) before their parents.
        kinds = [r["kind"] for r in tracer.records if r["t"] == "span"]
        assert kinds == ["segio.write", "op.append"]

    def test_io_event_inclusive_and_self_attribution(self):
        tracer = Tracer()
        with tracer.span("op.append"):
            tracer.io_event("disk.read", 0, 2)
            with tracer.span("segio.write"):
                tracer.io_event("disk.write", 4, 3)
        spans = {r["kind"]: r for r in tracer.records if r["t"] == "span"}
        outer, inner = spans["op.append"], spans["segio.write"]
        # Inclusive counters roll up; self counters stay at the level
        # that actually issued the I/O.
        assert outer["pages_read"] == 2 and outer["pages_written"] == 3
        assert outer["self_pages_read"] == 2
        assert outer["self_pages_written"] == 0
        assert inner["self_pages_written"] == 3

    def test_ambient_install_is_lifo(self):
        tracer = Tracer()
        with installed(tracer):
            assert current() is tracer
        assert current() is None


# ----------------------------------------------------------------------
# Exact cost attribution
# ----------------------------------------------------------------------
class TestCostAttribution:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_trace_cost_equals_ledger_exactly(self, scheme, tmp_path):
        tracer = Tracer(meta={"scheme": scheme})
        store = traced_store(scheme, tracer)
        oid = exercise(store)
        store.destroy(oid)
        path = tmp_path / "trace.jsonl"
        dump_trace(tracer, path)
        document = load_trace(path)
        assert validate_trace(path) == []
        assert total_cost_ms(document) == store.stats.elapsed_ms(CONFIG)
        totals = fold_io_totals(document)
        stats = store.stats
        assert totals["read_calls"] == stats.read_calls
        assert totals["write_calls"] == stats.write_calls
        assert totals["pages_read"] == stats.pages_read
        assert totals["pages_written"] == stats.pages_written
        assert totals["retries"] == stats.retries

    def test_span_table_self_costs_sum_to_total(self, tmp_path):
        tracer = Tracer()
        store = traced_store("esm", tracer)
        exercise(store)
        path = tmp_path / "trace.jsonl"
        dump_trace(tracer, path)
        document = load_trace(path)
        table = span_kind_table(document)
        assert sum(row["self_cost_ms"] for row in table.values()) == (
            total_cost_ms(document)
        )

    def test_retried_io_attributed_in_trace(self, tmp_path):
        tracer = Tracer()
        store = traced_store("esm", tracer)
        store.create(pattern_bytes(4 * CONFIG.page_size))
        plan = FaultPlan(write_faults=at(1), transient_failures=1)
        with FaultInjector(store.env, plan):
            oid = store.create(pattern_bytes(2 * CONFIG.page_size))
        path = tmp_path / "trace.jsonl"
        dump_trace(tracer, path)
        document = load_trace(path)
        totals = fold_io_totals(document)
        assert totals["retries"] == store.stats.retries == 1
        assert total_cost_ms(document) == store.stats.elapsed_ms(CONFIG)
        assert any(
            e["kind"] == "disk.retry.write" for e in document.events()
        )
        assert oid > 0


# ----------------------------------------------------------------------
# Zero observable effect
# ----------------------------------------------------------------------
class TestInvariance:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_counters_identical_traced_vs_untraced(self, scheme):
        plain = LargeObjectStore(scheme, CONFIG, shadowing=True)
        exercise(plain)
        tracer = Tracer()
        traced = traced_store(scheme, tracer)
        exercise(traced)
        assert traced.stats == plain.stats
        assert traced.env.pool.stats == plain.env.pool.stats

    def test_full_grid_reports_identical_traced_vs_untraced(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        names = sorted(registry.EXPERIMENTS)
        parallel.clear_caches()
        plain = [registry.run(name) for name in names]
        parallel.clear_caches()
        tracer = Tracer()
        with installed(tracer):
            traced = [registry.run(name) for name in names]
        parallel.clear_caches()
        assert traced == plain
        # The trace itself ties out: event-derived totals match the
        # ledger-derived metrics folded from every environment built.
        tracer.fold_ledgers()
        counters = tracer.metrics.counters
        calls = counters["io.read_calls"] + counters["io.write_calls"]
        pages = counters["io.pages_read"] + counters["io.pages_written"]
        config = SystemConfig()
        expected = (
            calls * config.seek_ms + pages * config.transfer_ms_per_page
        )
        io_kinds = {
            "disk.read", "disk.write", "disk.retry.read", "disk.retry.write"
        }
        observed = sum(
            config.seek_ms + r["pages"] * config.transfer_ms_per_page
            for r in tracer.records
            if r["t"] == "event" and r["kind"] in io_kinds
        )
        assert observed == expected

    def test_diff_against_self_is_empty(self, tmp_path):
        tracer = Tracer()
        store = traced_store("eos", tracer)
        exercise(store)
        path = tmp_path / "trace.jsonl"
        dump_trace(tracer, path)
        document = load_trace(path)
        assert diff_documents(document, document) == {}
        assert render_diff(document, document) == ""

    def test_same_run_traces_byte_identical(self, tmp_path):
        paths = []
        for index in range(2):
            tracer = Tracer()
            store = traced_store("starburst", tracer)
            exercise(store)
            path = tmp_path / f"trace{index}.jsonl"
            dump_trace(tracer, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()


# ----------------------------------------------------------------------
# Tracing the precomputed grid
# ----------------------------------------------------------------------
class TestParallelTraces:
    def test_traced_results_match_untraced(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        parallel.clear_caches()
        plain = registry.run("scaling")
        parallel.clear_caches()
        tracer = Tracer()
        with installed(tracer):
            parallel.precompute(["scaling"])
        traced = registry.run("scaling")
        parallel.clear_caches()
        assert traced == plain
        assert tracer.records


# ----------------------------------------------------------------------
# Export, summaries, flame, CLI
# ----------------------------------------------------------------------
class TestExportAndCli:
    def _dump(self, tmp_path, scheme="esm"):
        tracer = Tracer()
        store = traced_store(scheme, tracer)
        exercise(store)
        path = tmp_path / "trace.jsonl"
        dump_trace(tracer, path)
        return path

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(TraceError):
            load_trace(path)

    def test_validate_flags_unresolvable_parent(self, tmp_path):
        path = self._dump(tmp_path)
        lines = path.read_text().splitlines()
        doctored = []
        for line in lines:
            record = json.loads(line)
            if record.get("t") == "span" and record["parent"] is None:
                record["parent"] = 99999
            doctored.append(json.dumps(record, sort_keys=True))
        path.write_text("\n".join(doctored) + "\n")
        problems = validate_trace(path)
        assert any("parent" in problem for problem in problems)

    def test_summary_render_mentions_totals(self, tmp_path):
        path = self._dump(tmp_path)
        document = load_trace(path)
        text = render_summary(document)
        assert "total cost" in text
        assert "op.append:esm" in text
        data = summarize(document)
        assert data["totals"]["cost_ms"] == total_cost_ms(document)

    def test_collapsed_stacks_costs_sum_to_total(self, tmp_path):
        path = self._dump(tmp_path)
        document = load_trace(path)
        lines = collapsed_stacks(document)
        total_us = 0
        for line in lines:
            frames, value = line.rsplit(" ", 1)
            assert frames
            total_us += int(value)
        assert total_us == round(total_cost_ms(document) * 1000)

    def test_cli_summary_and_validate(self, tmp_path, capsys):
        path = self._dump(tmp_path)
        assert obs_main(["summary", str(path)]) == 0
        assert "total cost" in capsys.readouterr().out
        assert obs_main(["validate", str(path)]) == 0
        capsys.readouterr()

    def test_cli_diff_self_exits_zero(self, tmp_path, capsys):
        path = self._dump(tmp_path)
        assert obs_main(["diff", str(path), str(path)]) == 0
        assert "identically" in capsys.readouterr().out

    def test_cli_diff_different_exits_one(self, tmp_path, capsys):
        path_a = self._dump(tmp_path)
        tracer = Tracer()
        store = traced_store("eos", tracer)
        exercise(store)
        path_b = tmp_path / "other.jsonl"
        dump_trace(tracer, path_b)
        assert obs_main(["diff", str(path_a), str(path_b)]) == 1
        capsys.readouterr()

    def test_cli_flame_writes_stacks(self, tmp_path, capsys):
        path = self._dump(tmp_path)
        out = tmp_path / "stacks.txt"
        assert obs_main(["flame", str(path), "--out", str(out)]) == 0
        capsys.readouterr()
        content = out.read_text().splitlines()
        assert content and all(" " in line for line in content)

    def test_cli_missing_file_exits_two(self, tmp_path, capsys):
        assert obs_main(["summary", str(tmp_path / "nope.jsonl")]) == 2
        capsys.readouterr()


# ----------------------------------------------------------------------
# Runtime flag and environment plumbing
# ----------------------------------------------------------------------
class TestRuntime:
    def test_untraced_env_has_no_tracer(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHECKS", raising=False)
        env = StorageEnvironment(CONFIG)
        assert env.tracer is None
        assert env.disk.tracer is None

    def test_explicit_tracer_beats_ambient(self):
        explicit, ambient = Tracer(), Tracer()
        with installed(ambient):
            env = StorageEnvironment(CONFIG, tracer=explicit)
        assert env.tracer is explicit

    def test_selfcheck_flag_resolves_private_tracer(self, monkeypatch):
        from repro.obs.runtime import resolve_tracer

        monkeypatch.setenv("REPRO_CHECKS", "1")
        tracer = resolve_tracer(None)
        assert tracer is not None
        monkeypatch.delenv("REPRO_CHECKS")
        assert resolve_tracer(None) is None
