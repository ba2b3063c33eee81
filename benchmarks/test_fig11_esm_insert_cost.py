"""Figure 11 (a,b,c): ESM insert I/O cost under random updates."""

import pytest

from repro.experiments.common import MEAN_OP_SIZES
from repro.experiments.figures import run_metric


@pytest.mark.parametrize("sub,mean_op", zip("abc", MEAN_OP_SIZES))
def test_fig11_esm_insert_cost(benchmark, scale, report, sub, mean_op):
    result = benchmark.pedantic(
        run_metric,
        args=("esm", mean_op, "insert", scale),
        rounds=1,
        iterations=1,
    )
    report(result.format(f"11.{sub}"))
    if mean_op < 1024:
        # 100-byte inserts: the 64-page case is the most expensive choice.
        assert result.steady("leaf=64p") > result.steady("leaf=1p")
    if mean_op == MEAN_OP_SIZES[1]:
        # 10 KB inserts: "the best results are shown with leaves whose
        # size are closer to the insert size; i.e., 4-page leaves."
        best = min(
            ("leaf=1p", "leaf=4p", "leaf=16p", "leaf=64p"),
            key=result.steady,
        )
        assert best == "leaf=4p"
    if mean_op == MEAN_OP_SIZES[-1]:
        # 100 KB inserts: 1-page leaves perform poorly (random writes).
        assert result.steady("leaf=1p") > result.steady("leaf=16p")
