"""Figure 8 (a,b,c): EOS storage utilization under random updates."""

import pytest

from repro.experiments.common import MEAN_OP_SIZES
from repro.experiments.figures import run_metric


@pytest.mark.parametrize("sub,mean_op", zip("abc", MEAN_OP_SIZES))
def test_fig8_eos_utilization(benchmark, scale, report, sub, mean_op):
    result = benchmark.pedantic(
        run_metric,
        args=("eos", mean_op, "utilization", scale),
        rounds=1,
        iterations=1,
    )
    report(result.format(f"8.{sub}"))
    # "The larger the segment size threshold, the better the utilization."
    assert result.final("T=64p") >= result.final("T=4p") >= 0.8 * result.final("T=1p")
    # A threshold of 16 pages reaches very high utilization.
    assert result.final("T=16p") > 0.9
