"""Paper-scale pin tests: exact and near-exact numeric matches.

These run the paper's full 10 MB configuration, so they are skipped
unless ``REPRO_SCALE=paper`` (they take about 20 s); the regular
suite asserts the same *shapes* at reduced scale.  Numbers quoted from
the paper; see EXPERIMENTS.md for the complete accounting.  The §3
design ablations run on a quarter of the paper's object
(:data:`QUARTER`), each against the design the paper rejects.
"""

import dataclasses
import os

import pytest

from repro.core.api import LargeObjectStore
from repro.core.config import PAPER_CONFIG
from repro.experiments.common import KB, PAPER_SCALE, build_object, make_store
from repro.experiments.random_ops import run_random_ops
from repro.experiments.tables import run_starburst_costs

QUARTER = PAPER_SCALE.object_bytes // 4

paper_scale = pytest.mark.skipif(
    os.environ.get("REPRO_SCALE") != "paper",
    reason="paper-scale pins run only with REPRO_SCALE=paper",
)


@paper_scale
class TestTable2Exact:
    def test_starburst_read_costs_match_paper(self):
        costs = run_starburst_costs(PAPER_SCALE)
        # Paper: 37 / 54 / 201 ms.  The model gives 37.26 / 54.05 /
        # 199.09 ms (1.007 / 1.001 / 0.990 of the paper), pinned within
        # 0.5 %.
        assert costs.read_ms[0] == pytest.approx(37.26, rel=0.005)
        assert costs.read_ms[1] == pytest.approx(54.05, rel=0.005)
        assert costs.read_ms[2] == pytest.approx(199.09, rel=0.005)


@paper_scale
class TestUtilizationPins:
    def test_esm_100k_utilization_extremes(self):
        # Paper: "from approximately 96% with 1-page leaves, down to on
        # the average 75% with 64-page leaves."  The model gives 0.9638
        # and 0.7485 (1.004 and 0.998 of the paper), pinned within 0.5 %.
        one = run_random_ops("esm", 1, 100 * 1024, PAPER_SCALE)
        sixty_four = run_random_ops("esm", 64, 100 * 1024, PAPER_SCALE)
        assert one.utilizations()[-1] == pytest.approx(0.9638, rel=0.005)
        assert sixty_four.utilizations()[-1] == pytest.approx(
            0.7485, rel=0.005
        )

    def test_eos_large_threshold_utilization(self):
        # Paper: "with the 64-page case this number becomes almost 100%."
        # The model gives 0.9892 (0.989 of 100 %), pinned within 0.5 %.
        result = run_random_ops("eos", 64, 100 * 1024, PAPER_SCALE)
        assert result.utilizations()[-1] == pytest.approx(0.9892, rel=0.005)


@paper_scale
class TestOrderingPins:
    def test_figure_11c_leaf_ordering(self):
        # Paper: 16p best, then 4p, then 64p; 1p poorest (100 KB inserts).
        # Figure 11c prints no values, so there is no ratio to quote; the
        # model gives 416.6 / 507.0 / 855.5 / 1103.7 ms for 16p / 4p /
        # 64p / 1p, each pinned within 1 %, and the ordering is kept.
        costs = {
            setting: run_random_ops(
                "esm", setting, 100 * 1024, PAPER_SCALE
            ).steady_insert_ms()
            for setting in (1, 4, 16, 64)
        }
        assert costs[16] < costs[4] < costs[64] < costs[1]
        assert costs[16] == pytest.approx(416.6, rel=0.01)
        assert costs[4] == pytest.approx(507.0, rel=0.01)
        assert costs[64] == pytest.approx(855.5, rel=0.01)
        assert costs[1] == pytest.approx(1103.7, rel=0.01)

    def test_starburst_updates_30x_eos(self):
        # Paper (§4.6): with a threshold of 64 blocks the EOS update cost
        # is "approximately 30 times lower" than Starburst's.
        sb = run_random_ops("starburst", 0, 10 * 1024, PAPER_SCALE)
        eos = run_random_ops("eos", 64, 10 * 1024, PAPER_SCALE)
        ratio = sb.steady_insert_ms() / eos.steady_insert_ms()
        # The model gives 25.1 (15,469.6 ms against 616.5 ms), pinned
        # within 5 %.  The paper's "approximately 30 times" is a gap the
        # model leaves open; EXPERIMENTS.md reports it.
        assert ratio == pytest.approx(25.1, rel=0.05)


@paper_scale
class TestDeleteCostPins:
    def test_delete_cost_follows_the_insert_trends(self):
        # Paper (§4.4.3): "the trends mentioned for inserts are also valid
        # for the delete operations" (the series is in its technical
        # report).  At 100 KB ops the model gives 91.2 / 119.9 / 273.9 /
        # 628.9 ms for EOS T = 1 / 4 / 16 / 64 and 244.6 / 242.0 / 329.6 /
        # 744.4 ms for ESM leaves of 1 / 4 / 16 / 64 pages, pinned
        # within 1 %.
        expected = {
            "eos": (91.2, 119.9, 273.9, 628.9),
            "esm": (244.6, 242.0, 329.6, 744.4),
        }
        for scheme, costs in expected.items():
            for setting, cost in zip((1, 4, 16, 64), costs):
                result = run_random_ops(scheme, setting, 100 * KB, PAPER_SCALE)
                assert result.steady_delete_ms() == pytest.approx(
                    cost, rel=0.01
                )


@paper_scale
class TestDesignAblations:
    def test_hybrid_buffering(self):
        # Paper (§3.2): small segments go through the pool, larger ones
        # bypass it.  Two 2 KB-chunk scans of an EOS object: the model
        # gives 47.36 s for the hybrid rule (4 pages) and for buffering
        # everything, 94.72 s for buffering nothing; pinned within 0.5 %.
        def rescans(max_buffered):
            config = dataclasses.replace(
                PAPER_CONFIG, max_buffered_segment_pages=max_buffered
            )
            store = make_store("eos", config=config)
            oid = build_object(store, QUARTER, 64 * KB)
            before = store.snapshot()
            for _ in range(2):
                for position in range(0, QUARTER, 2 * KB):
                    store.read(oid, position, 2 * KB)
            return store.elapsed_ms(before) / 1000

        pool = PAPER_CONFIG.buffer_pool_pages
        for pages, seconds in ((4, 47.36), (0, 94.72), (pool, 47.36)):
            assert rescans(pages) == pytest.approx(seconds, rel=0.005)

    @staticmethod
    def esm_store(**options):
        store = LargeObjectStore("esm", record_data=False, **options)
        return store, build_object(store, QUARTER, 64 * KB)

    def test_esm_improved_insert(self):
        # Paper (§3.4, after [Care86]): "significant gains in storage
        # utilization with minimal additional insert cost".  3,000 10 KB
        # inserts on 4-page leaves: the model gives utilization 0.8168
        # against 0.6434 and 646.9 s against 604.7 s (+7.0 %) for the
        # improved and the basic algorithm, pinned within 0.5 %.
        results = []
        for improved in (True, False):
            store, oid = self.esm_store(leaf_pages=4, improved_insert=improved)
            before = store.snapshot()
            for i in range(PAPER_SCALE.n_ops // 4):
                position = (i * 37777) % store.size(oid)
                store.insert(oid, position, bytes(10 * KB))
            results.append(
                (store.utilization(oid), store.elapsed_ms(before) / 1000)
            )
        improved, basic = results
        assert improved == pytest.approx((0.8168, 646.9), rel=0.005)
        assert basic == pytest.approx((0.6434, 604.7), rel=0.005)

    def test_partial_leaf_io(self):
        # Paper (§4.5): only a leaf's needed pages are read, where
        # [Care86] read whole leaves.  1,200 1 KB reads on 16-page leaves:
        # the model gives 38.52 ms against 98.54 ms, pinned within 0.5 %.
        def read_ms(partial):
            store, oid = self.esm_store(leaf_pages=16, partial_leaf_io=partial)
            before = store.snapshot()
            reads = PAPER_SCALE.n_ops // 10
            for i in range(reads):
                store.read(oid, (i * 23333) % (store.size(oid) - KB), KB)
            return store.elapsed_ms(before) / reads

        assert read_ms(True) == pytest.approx(38.52, rel=0.005)
        assert read_ms(False) == pytest.approx(98.54, rel=0.005)

    def test_eos_threshold_rule(self):
        # Paper (§4.6): "segments less than 4 blocks must be avoided ...
        # with 4-block segments, better storage utilization and read
        # performance comes for free."  At 10 KB ops the model gives, for
        # T = 1 / 2 / 4 / 8 / 16, utilization, steady read and insert ms
        # below, pinned within 0.5 %.
        expected = {
            1: (0.7174, 160.0, 224.1),
            2: (0.7889, 129.2, 240.5),
            4: (0.8753, 102.9, 221.1),
            8: (0.9287, 64.84, 202.6),
            16: (0.9626, 59.11, 281.7),
        }
        for threshold, values in expected.items():
            result = run_random_ops("eos", threshold, 10 * KB, PAPER_SCALE)
            measured = (
                result.utilizations()[-1],
                result.steady_read_ms(),
                result.steady_insert_ms(),
            )
            assert measured == pytest.approx(values, rel=0.005)

    def test_block_based_scan(self):
        # Paper (§1): block-based storage scans slowly because "virtually
        # every disk page fetch will most likely result in a disk seek".
        # A 256 KB-chunk scan of the 10 MB object: the model gives 96.09 s
        # block-based, 15.52 s ESM (16-page leaves) and 11.79 s Starburst
        # and EOS (T = 16), pinned within 0.5 %.
        for scheme, seconds in (("blockbased", 96.09), ("esm", 15.52),
                                ("starburst", 11.79), ("eos", 11.79)):
            store = make_store(scheme, leaf_pages=16, threshold_pages=16)
            oid = build_object(store, PAPER_SCALE.object_bytes, 64 * KB)
            before = store.snapshot()
            for position in range(0, store.size(oid), 256 * KB):
                store.read(oid, position, 256 * KB)
            assert store.elapsed_ms(before) / 1000 == pytest.approx(
                seconds, rel=0.005
            )
