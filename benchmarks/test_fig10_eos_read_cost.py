"""Figure 10 (a,b,c): EOS read I/O cost under random updates."""

import pytest

from repro.experiments.common import MEAN_OP_SIZES
from repro.experiments.figures import run_metric
from repro.experiments.random_ops import run_random_ops


@pytest.mark.parametrize("sub,mean_op", zip("abc", MEAN_OP_SIZES))
def test_fig10_eos_read_cost(benchmark, scale, report, sub, mean_op):
    result = benchmark.pedantic(
        run_metric,
        args=("eos", mean_op, "read", scale),
        rounds=1,
        iterations=1,
    )
    report(result.format(f"10.{sub}"))
    if mean_op >= 10 * 1024:
        # Larger thresholds read cheaper once the structure degrades.
        assert result.steady("T=16p") < result.steady("T=1p")
        # EOS reads beat or match ESM's for the same (1-page) setting.
        esm = run_metric("esm", mean_op, "read", scale)
        assert result.steady("T=1p") <= esm.steady("leaf=1p") * 1.05
    # A threshold of 16 is adequate to approach Starburst's read cost.
    if mean_op == MEAN_OP_SIZES[-1]:
        sb = run_random_ops("starburst", 0, mean_op, scale)
        assert result.steady("T=16p") <= 2.0 * sb.steady_read_ms()
        # "When the first updates are applied to the object, the I/O cost
        # for reads is independent of the segment size threshold" -- the
        # first mark's spread across T is narrower than steady state's.
        first = [result.series[name][0] for name in result.series]
        steady = [result.steady(name) for name in result.series]
        first_spread = max(first) - min(first)
        steady_spread = max(steady) - min(steady)
        assert first_spread <= steady_spread * 1.1
