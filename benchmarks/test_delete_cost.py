"""Delete I/O cost: the technical-report series the paper summarizes as
"the trends mentioned for inserts are also valid for the deletes"."""

import pytest

from repro.experiments.common import MEAN_OP_SIZES
from repro.experiments.figures import run_metric


@pytest.mark.parametrize("scheme", ["esm", "eos"])
def test_delete_cost_trends(benchmark, scale, report, scheme):
    mean_op = MEAN_OP_SIZES[-1]
    result = benchmark.pedantic(
        run_metric,
        args=(scheme, mean_op, "delete", scale),
        rounds=1,
        iterations=1,
    )
    report(result.format("TR"))
    series = result.series
    assert all(
        value >= 0 for values in series.values() for value in values
    )
    if scheme == "eos":
        # Larger thresholds reshuffle more on deletes too.
        assert result.steady("T=64p") > result.steady("T=1p")
