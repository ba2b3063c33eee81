"""Figure 12 (a,b,c): EOS insert I/O cost under random updates."""

import pytest

from repro.experiments.common import MEAN_OP_SIZES
from repro.experiments.figures import run_metric


@pytest.mark.parametrize("sub,mean_op", zip("abc", MEAN_OP_SIZES))
def test_fig12_eos_insert_cost(benchmark, scale, report, sub, mean_op):
    result = benchmark.pedantic(
        run_metric,
        args=("eos", mean_op, "insert", scale),
        rounds=1,
        iterations=1,
    )
    report(result.format(f"12.{sub}"))
    # "with a value of segment size threshold of 1 to 4, the insert cost
    #  remains the same.  As this value increases above 4, the insert
    #  cost increases too because of increased page reshuffling."
    assert result.steady("T=4p") <= 1.6 * result.steady("T=1p")
    assert result.steady("T=64p") > result.steady("T=1p")
