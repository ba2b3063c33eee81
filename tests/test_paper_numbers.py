"""Paper-scale pin tests: exact and near-exact numeric matches.

These run the paper's full 10 MB configuration, so they are skipped
unless ``REPRO_SCALE=paper`` (they take about 10 s); the regular
suite asserts the same *shapes* at reduced scale.  Numbers quoted from
the paper; see EXPERIMENTS.md for the complete accounting.
"""

import os

import pytest

from repro.experiments.common import PAPER_SCALE
from repro.experiments.random_ops import run_random_ops
from repro.experiments.tables import run_starburst_costs

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
