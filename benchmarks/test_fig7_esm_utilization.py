"""Figure 7 (a,b,c): ESM storage utilization under random updates."""

import pytest

from repro.experiments.common import MEAN_OP_SIZES
from repro.experiments.figures import run_metric


@pytest.mark.parametrize("sub,mean_op", zip("abc", MEAN_OP_SIZES))
def test_fig7_esm_utilization(benchmark, scale, report, sub, mean_op):
    result = benchmark.pedantic(
        run_metric,
        args=("esm", mean_op, "utilization", scale),
        rounds=1,
        iterations=1,
    )
    report(result.format(f"7.{sub}"))
    for series in result.series.values():
        assert all(0.5 < value <= 1.0 for value in series)
    if mean_op == MEAN_OP_SIZES[-1]:
        # 100 KB updates: "the larger the leaf, the worse the utilization"
        assert result.final("leaf=1p") > result.final("leaf=64p")
