"""Figure 6: sequential scan time vs. scan size."""

from repro.experiments.figures import run_sizes


def test_fig6_scan_time(benchmark, scale, report):
    result = benchmark.pedantic(run_sizes, args=("fig6", scale), rounds=1,
                                iterations=1)
    report(result.format())
    sizes = list(result.sizes_kb)
    esm1 = result.series["ESM 1p"]
    sb = result.series["Starburst/EOS"]
    # ESM 1-page leaves are worst and roughly flat for scans > page size.
    big = sizes.index(64)
    assert esm1[big] > result.series["ESM 16p"][big]
    # Starburst/EOS match or beat the best ESM case.
    for index, kb in enumerate(sizes):
        best_esm = min(result.series[f"ESM {lp}p"][index]
                       for lp in (1, 4, 16, 64))
        assert sb[index] <= best_esm * 1.10
    # For scans shorter than the page size all techniques are equal.
    if 3 in sizes:
        small = sizes.index(3)
        values = [result.series[name][small] for name in result.series]
        assert max(values) <= min(values) * 1.2
