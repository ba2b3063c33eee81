"""Figure 9 (a,b,c): ESM read I/O cost under random updates."""

import pytest

from repro.experiments.common import MEAN_OP_SIZES
from repro.experiments.figures import run_metric


@pytest.mark.parametrize("sub,mean_op", zip("abc", MEAN_OP_SIZES))
def test_fig9_esm_read_cost(benchmark, scale, report, sub, mean_op):
    result = benchmark.pedantic(
        run_metric,
        args=("esm", mean_op, "read", scale),
        rounds=1,
        iterations=1,
    )
    report(result.format(f"9.{sub}"))
    if mean_op >= 10 * 1024:
        # Larger leaves offer better read performance (multi-page reads
        # from one segment vs. one seek per page).
        assert result.steady("leaf=16p") < result.steady("leaf=1p")
