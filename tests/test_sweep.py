"""Tests for the exhaustive crash sweep (repro.recovery.sweep).

The sweep is itself a verification harness, so the tests here check
both directions: shadowing stores survive a crash at *every* physical
write point (the sweep reports clean), and the harness genuinely
detects unsafety — with shadowing disabled, in-place updates lose
committed state and the sweep must say so.  Both scenario kinds — one
operation on one store, one atomic batch over N shards — go through the
one ``sweep`` / ``run_sweep`` / ``cli_main`` entry point.
"""

import pytest

from repro.core.api import LargeObjectStore
from repro.core.config import small_page_config
from repro.core.fsck import check
from repro.disk.disk import contiguous_runs
from repro.recovery.sweep import (
    FAILED,
    MUTATING_OPS,
    SWEEP_SCHEMES,
    CrossShardBatch,
    SingleOp,
    SweepReport,
    cli_main,
    run_sweep,
    sweep,
)
from tests.conftest import pattern_bytes

BOTH = ("crash", "torn")


class MultiChunkCopy(SingleOp):
    """A Starburst insert or delete whose tail copy moves several staging
    chunks: a 30-page field under ``small_page_config``'s 8-page staging
    buffer, spliced mid-page near its start.

    Judged as :class:`SingleOp` judges, from the image alone; then the
    store restarts as recovery would (the pool is lost and the crashed
    copy's fresh segments are reclaimed as orphans) and must be
    fsck-clean, read back the pre-state, and take the op again.
    """

    SPLICE = 2 * 128 + 17

    def build(self):
        store = LargeObjectStore("starburst", small_page_config())
        return store, [store.create(pattern_bytes(30 * 128 + 45, salt=1))]

    def act(self, store, oids):
        if self.op == "insert":
            store.insert(oids[0], self.SPLICE, pattern_bytes(128 + 9, salt=2))
        else:
            store.delete(oids[0], self.SPLICE, 128 + 9)

    def judge(self, store, oids, kind, k, pre, post, report):
        super().judge(store, oids, kind, k, pre, post, report)
        (oid,) = oids
        store.env.pool.reset()
        orphans = check([(store.manager, oids)]).leaked_data_pages
        for start, count in contiguous_runs(orphans):
            store.env.areas.data.free(start, count)
        problems = []
        fsck = check([(store.manager, oids)])
        if not fsck.clean:
            problems.append(fsck.summary())
        if bytes(store.read(oid, 0, store.size(oid))) != pre[oid]:
            problems.append("restarted store does not read the pre-state")
        self.act(store, oids)
        if bytes(store.read(oid, 0, store.size(oid))) != post[oid]:
            problems.append("the op after the restart missed the post-state")
        if problems:
            report.add(self, kind, k, FAILED, problems)


class TestMultiChunkCopy:
    @pytest.mark.parametrize("op", ["insert", "delete"])
    def test_every_write_of_the_copy_recovers(self, op):
        config = small_page_config()
        copied = 30 * config.page_size + 45 - MultiChunkCopy.SPLICE
        assert copied >= 3 * config.staging_buffer_bytes
        report = sweep(MultiChunkCopy("starburst", op, kinds=BOTH))
        assert report.clean, report.summary()
        crashes = [o for o in report.outcomes if o.kind == "crash"]
        torn = [o for o in report.outcomes if o.kind == "torn"]
        # A write per chunk at least, and the chunks' multi-page writes
        # are the torn points.
        assert len(crashes) >= 3 and torn
        assert {o.outcome for o in report.outcomes} == {"pre"}


class TestExhaustiveSweep:
    @pytest.mark.parametrize("scheme", SWEEP_SCHEMES)
    @pytest.mark.parametrize("op", MUTATING_OPS)
    def test_every_crash_point_recovers(self, scheme, op):
        report = sweep(SingleOp(scheme, op))
        assert report.clean, report.summary()
        assert report.outcomes, "sweep must exercise at least one crash"
        # Every crash landed before the (uncharged) commit write, so every
        # image rebuilds to the committed pre-state (or, for create, to no
        # object at all).
        assert all(o.outcome in ("pre", "absent") for o in report.outcomes)

    @pytest.mark.parametrize("scheme", SWEEP_SCHEMES)
    def test_torn_writes_never_damage_committed_state(self, scheme):
        report = sweep(SingleOp(scheme, "append", kinds=("torn",)))
        assert report.clean, report.summary()
        # Appends at this scale include at least one multi-page write.
        assert report.outcomes

    @pytest.mark.parametrize("scheme", SWEEP_SCHEMES)
    def test_every_shard_fault_is_all_or_nothing(self, scheme):
        report = sweep(CrossShardBatch(scheme, shards=2, target=1))
        assert report.clean, report.summary()
        assert {o.kind for o in report.outcomes} == {
            "crash", "torn", "transient"
        }
        assert {o.outcome for o in report.outcomes} >= {
            "batch-absent", "batch-present", "completed"
        }
        # Recovery had shards to heal, and said so.
        assert report.log.degraded
        assert "shard recoveries logged" in report.summary()

    def test_full_sweep_is_clean(self):
        report = run_sweep([
            SingleOp(scheme, op, kinds=BOTH)
            for scheme in SWEEP_SCHEMES
            for op in MUTATING_OPS
        ])
        assert report.clean, report.summary()
        assert len(report.outcomes) > 30
        assert "CLEAN" in report.summary()


class TestNegativeControl:
    @pytest.mark.parametrize("scheme", ["esm", "eos"])
    def test_sweep_detects_unsafe_inplace_updates(self, scheme):
        """Without shadowing, overwrites destroy committed state in place;
        the sweep must fail — proving it can detect violations at all."""
        report = sweep(SingleOp(scheme, "overwrite", shadowing=False))
        assert not report.clean
        assert any(
            "neither pre- nor post-state" in failure.detail
            for failure in report.failures
        )
        assert "FAILED" in report.summary()
        assert "\tFAILED\t" in report.classification_table()


class TestReport:
    def test_empty_report_is_clean(self):
        assert SweepReport().clean

    def test_summary_counts_by_scheme_and_op(self):
        report = sweep(SingleOp("starburst", "insert"))
        line = report.summary().splitlines()[0]
        assert line.startswith("starburst/insert:")
        assert "recovered" in line

    @pytest.mark.parametrize("scenarios", [
        [SingleOp(scheme, op, kinds=BOTH)
         for scheme in ("esm", "eos") for op in ("append", "insert")],
        [CrossShardBatch("eos", 2, target) for target in range(2)],
    ], ids=["single-op", "cross-shard"])
    def test_report_does_not_depend_on_jobs(self, scenarios):
        serial = run_sweep(scenarios, jobs=1)
        fanned = run_sweep(scenarios, jobs=2)
        assert serial == fanned
        assert serial.classification_table() == fanned.classification_table()
        assert serial.summary() == fanned.summary()


class TestChaosCLI:
    def test_tiny_scale_exits_zero(self, capsys):
        assert cli_main(["--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "sweep CLEAN" in out

    def test_scheme_and_op_filters(self, capsys):
        assert cli_main(["--scheme", "eos", "--op", "insert"]) == 0
        out = capsys.readouterr().out
        assert "eos/insert" in out
        assert "esm/" not in out

    def test_dispatch_through_experiments_cli(self, capsys):
        from repro.experiments.cli import main

        assert main(["chaos", "--scheme", "starburst", "--op", "delete"]) == 0
        assert "starburst/delete" in capsys.readouterr().out

    @pytest.mark.parametrize("select", [
        ["--scheme", "esm"],
        ["--scheme", "esm", "--shards", "2"],
    ], ids=["single-op", "cross-shard"])
    def test_table_does_not_depend_on_jobs(self, select, tmp_path, capsys):
        outputs = []
        for jobs in ("1", "2"):
            table = tmp_path / f"jobs{jobs}.tsv"
            assert cli_main(
                [*select, "--jobs", jobs, "--table", str(table)]
            ) == 0
            out = capsys.readouterr().out.replace(str(table), "TABLE")
            outputs.append((table.read_text(), out))
        assert outputs[0] == outputs[1]
        header, *rows = outputs[0][0].splitlines()
        assert header.startswith("scheme\ttarget\twrite\tkind\toutcome")
        assert rows and all(row.startswith("esm\t") for row in rows)
