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
from repro.faults import FaultInjector, FaultPlan
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


class DeepInsert(SingleOp):
    """An ESM or EOS insert that splits a full leaf parent of a two-level
    tree: recovery reads non-root index images, and the last write is a
    run of them, so the torn variant persists a pending prefix.

    ``FILLS`` inserts into an object of ``PAGES`` pages fill the leaf
    parent under byte ``3 * 128`` until :class:`SingleOp`'s own insert
    splits it.
    """

    PAGES = 18
    FILLS = {"esm": 12, "eos": 18}

    def build(self):
        store = LargeObjectStore(self.scheme, small_page_config(),
                                 leaf_pages=2, threshold_pages=2)
        oid = store.create(pattern_bytes(self.PAGES * 128 + 37))
        for i in range(self.FILLS[self.scheme]):
            store.insert(oid, 3 * 128 + 17 + i * 61,
                         pattern_bytes(128 + 5 * i, salt=10 + i))
        return store, [oid]


class ArmedCountInsert(DeepInsert):
    """A :class:`DeepInsert` on a 16-page ESM object with 14 fills, whose
    insert makes 4 writes unarmed but 3 armed: an armed injector holds
    the freed pages, so the shadowed index pages land elsewhere."""

    PAGES = 16
    FILLS = {"esm": 14}


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
        actions = {
            action
            for point in report.outcomes
            for action in point.detail.split(",")
        }
        assert actions & {"replayed", "rolled-back"}
        assert report.shard_recoveries > 0
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


class TestDeepSweep:
    """The insert that splits a full leaf parent of a two-level tree:
    recovery reads non-root index images, and the torn variant tears a
    run of pending ones."""

    @pytest.mark.parametrize("scheme", ["esm", "eos"])
    def test_the_insert_splits_a_leaf_parent_below_the_root(self, scheme):
        scenario = DeepInsert(scheme, "insert")
        store, oids = scenario.build()
        tree = store.manager.tree_of(oids[0])
        height, pages = tree.height, tree.index_page_count()
        assert height >= 2
        pool, index_runs = store.env.pool, []
        write_run = pool.write_run

        def recording(start, n_pages, data, record=True):
            if isinstance(data, list):
                index_runs.append(n_pages)
            write_run(start, n_pages, data, record)

        pool.write_run = recording
        # Armed as the sweep arms it: freed pages are held, which moves
        # where the shadowed pages land.
        with FaultInjector(store.env, FaultPlan()):
            scenario.act(store, oids)
        assert (tree.height, tree.index_page_count()) == (height, pages + 1)
        assert max(index_runs) >= 2

    @pytest.mark.parametrize("scheme", ["esm", "eos"])
    def test_every_crash_and_torn_point_recovers(self, scheme):
        report = sweep(DeepInsert(scheme, "insert", kinds=BOTH))
        assert report.clean, report.summary()
        crashes = [o.write for o in report.outcomes if o.kind == "crash"]
        torn = [o.write for o in report.outcomes if o.kind == "torn"]
        # The index flush is the last write, and it tears.
        assert torn == crashes and report.atomic_skips == 0
        assert {o.outcome for o in report.outcomes} == {"pre"}


    def test_the_write_count_is_taken_armed(self):
        """The sweep crashes exactly the writes an armed run makes: none
        is left unswept, and no armed crash point goes unfired."""
        scenario = ArmedCountInsert("esm", "insert", kinds=BOTH)
        counts = []
        for plan in (None, FaultPlan()):
            store, oids = scenario.build()
            before = store.stats.write_calls
            if plan is None:
                scenario.act(store, oids)
            else:
                with FaultInjector(store.env, plan):
                    scenario.act(store, oids)
            counts.append(store.stats.write_calls - before)
        assert counts == [4, 3]
        report = sweep(scenario)
        assert report.clean, report.summary()
        for kind in BOTH:
            assert [o.write for o in report.outcomes if o.kind == kind] == [
                1, 2, 3
            ]
        assert report.atomic_skips == 0


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
