"""Integration tests for the experiment harness (tiny scale)."""

import pytest

from repro.experiments import common, random_ops
from repro.experiments.common import (
    APPEND_SIZES_KB,
    EOS_THRESHOLDS,
    ESM_LEAF_PAGES,
    MEAN_OP_SIZES,
    PAPER_SCALE,
    TINY_SCALE,
    resolve_scale,
)
from repro.experiments.figures import run_metric, run_sizes
from repro.experiments.registry import EXPERIMENTS, run
from repro.experiments.tables import run_starburst_costs, table1


def steady(scheme, setting, mean_op, kind):
    """A tiny run's steady-state cost of one op kind (ms)."""
    result = random_ops.run_random_ops(scheme, setting, mean_op, TINY_SCALE)
    return getattr(result, f"steady_{kind}_ms")()


@pytest.fixture(autouse=True)
def fresh_cache():
    common.clear()
    yield
    common.clear()


class TestScales:
    def test_paper_scale_matches_section_4_1(self):
        assert PAPER_SCALE.object_bytes == 10 * (1 << 20)
        assert PAPER_SCALE.window == 2000
        assert PAPER_SCALE.append_sizes_kb == APPEND_SIZES_KB

    def test_paper_append_sizes_footnote_2(self):
        assert APPEND_SIZES_KB == (
            3, 4, 5, 6, 7, 8, 10, 12, 14, 16, 20, 24, 28, 32,
            50, 64, 100, 128, 200, 256, 512,
        )

    def test_resolve_by_name(self):
        assert resolve_scale("tiny") is TINY_SCALE

    def test_resolve_by_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        assert resolve_scale().name == "tiny"
        monkeypatch.setenv("REPRO_SCALE", "paper")
        assert resolve_scale().name == "paper"
        # REPRO_FULL is not a switch: no value of it selects anything.
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        for value in ("0", "1"):
            monkeypatch.setenv("REPRO_FULL", value)
            assert resolve_scale().name == "tiny"
        monkeypatch.delenv("REPRO_SCALE")
        assert resolve_scale().name == "small"

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError):
            resolve_scale("huge")

    def test_settings_match_section_4_1(self):
        assert ESM_LEAF_PAGES == (1, 4, 16, 64)
        assert EOS_THRESHOLDS == (1, 4, 16, 64)
        assert MEAN_OP_SIZES == (100, 10240, 102400)


class TestTable1:
    def test_contains_all_parameters(self):
        out = table1()
        for fragment in ("4K-byte", "12 pages", "4 pages", "33", "1K-byte"):
            assert fragment in out


class TestFig5:
    def test_series_and_shape(self):
        result = run_sizes("fig5", TINY_SCALE)
        assert set(result.series) == {
            "ESM 1p", "ESM 4p", "ESM 16p", "ESM 64p", "Starburst/EOS",
        }
        for values in result.series.values():
            assert len(values) == len(TINY_SCALE.append_sizes_kb)
            assert all(v > 0 for v in values)
        # Exact-fit dip: 4 KB appends beat 3 KB for 1-page leaves.
        sizes = list(TINY_SCALE.append_sizes_kb)
        esm1 = result.series["ESM 1p"]
        assert esm1[sizes.index(4)] < esm1[sizes.index(3)]
        assert "Figure 5" in result.format()


class TestFig6:
    def test_series_and_shape(self):
        result = run_sizes("fig6", TINY_SCALE)
        sizes = list(TINY_SCALE.append_sizes_kb)
        large = sizes.index(64)
        esm1 = result.series["ESM 1p"]
        esm64 = result.series["ESM 64p"]
        assert esm64[large] < esm1[large]
        # Starburst/EOS match or beat the best ESM leaf at every size.
        for index, best in enumerate(map(min, zip(*(
            result.series[f"ESM {pages}p"] for pages in ESM_LEAF_PAGES
        )))):
            assert result.series["Starburst/EOS"][index] <= best * 1.10
        assert "Figure 6" in result.format()


class TestRandomOpsRuns:
    def test_windows_and_marks(self):
        result = random_ops.run_random_ops("eos", 4, 100, TINY_SCALE)
        assert len(result.windows) == TINY_SCALE.marks
        assert result.ops_marks[-1] == TINY_SCALE.n_ops

    def test_memoization_reuses_runs(self):
        first = random_ops.run_random_ops("eos", 4, 100, TINY_SCALE)
        second = random_ops.run_random_ops("eos", 4, 100, TINY_SCALE)
        assert first is second

    def test_starburst_uses_reduced_op_count(self):
        result = random_ops.run_random_ops("starburst", 0, 100, TINY_SCALE)
        assert result.ops_marks[-1] == TINY_SCALE.starburst_ops


class TestUtilizationExperiment:
    def test_eos_threshold_ordering(self):
        # Figure 8: "the larger the segment size threshold, the better
        # the utilization", and T=16 is already high.
        for mean_op in MEAN_OP_SIZES:
            result = run_metric("eos", mean_op, "utilization", TINY_SCALE)
            final = {name: v[-1] for name, v in result.series.items()}
            assert final["T=64p"] >= final["T=4p"] >= 0.8 * final["T=1p"]
            assert final["T=64p"] > final["T=1p"]
            assert final["T=16p"] > 0.9

    def test_esm_100k_leaf_ordering(self):
        for mean_op in MEAN_OP_SIZES:
            result = run_metric("esm", mean_op, "utilization", TINY_SCALE)
            for values in result.series.values():
                assert all(0.5 < value <= 1.0 for value in values)
        # Figure 7.c: "the larger the leaf, the worse the utilization".
        series = result.series
        assert series["leaf=1p"][-1] > series["leaf=64p"][-1]

    def test_format_mentions_figure(self):
        result = run_metric("eos", 100, "utilization", TINY_SCALE)
        assert "Figure 8.x" in result.format("8.x")


class TestCostExperiments:
    def test_read_cost_series(self):
        # Figures 9 and 10 at 10 KB and 100 KB: larger segments read
        # cheaper, and EOS reads at least match ESM's at the 1-page
        # setting.
        for mean_op in MEAN_OP_SIZES[1:]:
            esm_one = steady("esm", 1, mean_op, "read")
            eos_one = steady("eos", 1, mean_op, "read")
            assert steady("esm", 16, mean_op, "read") < esm_one
            assert steady("eos", 16, mean_op, "read") < eos_one
            assert eos_one <= 1.05 * esm_one
        # Figure 10.c: T=16 approaches Starburst's reads, and "when the
        # first updates are applied ... the I/O cost for reads is
        # independent of the segment size threshold": the first mark's
        # spread across T is no wider than the steady state's.
        mean_op = MEAN_OP_SIZES[-1]
        starburst = steady("starburst", 0, mean_op, "read")
        assert steady("eos", 16, mean_op, "read") <= 2.0 * starburst
        series = run_metric("eos", mean_op, "read", TINY_SCALE).series
        first = [values[0] for values in series.values()]
        last = [steady("eos", t, mean_op, "read") for t in EOS_THRESHOLDS]
        assert max(first) - min(first) <= 1.1 * (max(last) - min(last))

    def test_update_cost_kinds(self):
        insert = run_metric("eos", 100, "insert", TINY_SCALE)
        delete = run_metric("eos", 100, "delete", TINY_SCALE)
        assert insert.kind == "insert"
        assert delete.kind == "delete"
        with pytest.raises(ValueError):
            run_metric("eos", 100, "upsert", TINY_SCALE)
        # Figure 12: "with a value of segment size threshold of 1 to 4,
        # the insert cost remains the same.  As this value increases
        # above 4, the insert cost increases too".
        for mean_op in MEAN_OP_SIZES:
            eos = {t: steady("eos", t, mean_op, "insert") for t in (1, 4, 64)}
            assert eos[4] <= 1.6 * eos[1]
            assert eos[64] > eos[1]
        # Figure 11: 64-page leaves cost most for 100 B inserts, 4-page
        # leaves least for 10 KB ones ("leaves whose size are closer to
        # the insert size"), 1-page leaves poorly for 100 KB ones.
        esm = {
            (mean_op, pages): steady("esm", pages, mean_op, "insert")
            for mean_op in MEAN_OP_SIZES
            for pages in ESM_LEAF_PAGES
        }
        assert esm[100, 64] > esm[100, 1]
        assert min(ESM_LEAF_PAGES, key=lambda p: esm[10240, p]) == 4
        assert esm[102400, 1] > esm[102400, 16]


class TestStarburstTables:
    def test_read_cost_close_to_paper_at_tiny_scale(self):
        costs = run_starburst_costs(TINY_SCALE)
        # 100-byte reads cost at most one seek + one page transfer (37 ms);
        # at tiny scale some reads hit the pool and cost nothing.
        assert 20.0 <= costs.read_ms[0] <= 41.0
        # Insert/delete costs are constant across op sizes (Table 3).
        assert max(costs.insert_s) < 4 * min(costs.insert_s)
        assert max(costs.delete_s) < 4 * min(costs.delete_s)
        assert min(costs.insert_s) > 0.1  # seconds, not milliseconds
        assert "Table 2" in costs.format_table2()
        assert "Table 3" in costs.format_table3()


class TestRegistry:
    def test_known_names(self):
        assert {"table1", "fig5", "fig6"} <= set(EXPERIMENTS)

    def test_run_unknown_raises(self):
        with pytest.raises(ValueError):
            run("fig99")

    def test_run_table1(self):
        assert "Table 1" in run("table1")


class TestSummaryExperiment:
    def test_rows_and_shape(self):
        from repro.experiments.summary import format_summary, run_summary

        rows = run_summary(10 * 1024, TINY_SCALE)
        labels = [row.label for row in rows]
        assert any("ESM" in label for label in labels)
        assert any("Starburst" in label for label in labels)
        assert any("block-based" in label for label in labels)
        by = {row.label.split(" ")[0]: row for row in rows}
        starburst, eos, esm = by["Starburst"], by["EOS"], by["ESM"]
        # Starburst: the best utilization, dreadful updates; EOS: the
        # cheapest updates; block-based: the slowest scans.
        assert starburst.utilization >= max(eos.utilization, esm.utilization)
        assert starburst.insert_ms > 2 * eos.insert_ms
        assert eos.insert_ms <= 1.1 * esm.insert_ms
        assert by["block-based"].scan_s > 3 * min(eos.scan_s,
                                                  starburst.scan_s)
        out = format_summary(rows, 10 * 1024)
        assert "Section 4.6 summary" in out


class TestScalingExperiment:
    def test_exponents(self):
        from repro.experiments.scaling import run_scaling

        esm, sb, eos = (
            run_scaling(scheme, TINY_SCALE, steps=3)
            for scheme in ("esm", "starburst", "eos")
        )
        for result in (esm, sb, eos):
            assert 0.8 < result.build_exponent < 1.2
        assert abs(esm.insert_exponent) < 0.35
        assert abs(eos.insert_exponent) < 0.3
        assert sb.insert_exponent > max(0.4, esm.insert_exponent)

    def test_format(self):
        from repro.experiments.scaling import format_scaling, run_scaling

        out = format_scaling([run_scaling("eos", TINY_SCALE, steps=2)])
        assert "build exp" in out
