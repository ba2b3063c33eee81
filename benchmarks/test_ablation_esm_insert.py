"""Ablation: ESM improved vs. basic insert algorithm (Section 3.4).

"the improved algorithm leads to significant gains in storage
utilization with minimal additional insert cost" [Care86].
"""

from repro.analysis.report import format_table
from repro.core.api import LargeObjectStore
from repro.experiments.common import KB, build_object


def run_one(improved, scale):
    store = LargeObjectStore(
        "esm", leaf_pages=4, improved_insert=improved, record_data=False
    )
    oid = build_object(store, max(1, scale.object_bytes // 4), 64 * KB)
    before = store.snapshot()
    for i in range(scale.n_ops // 4):
        store.insert(oid, (i * 37777) % store.size(oid), bytes(10 * KB))
    cost_s = store.elapsed_ms(before) / 1000.0
    return store.utilization(oid), cost_s


def run_ablation(scale):
    improved_util, improved_cost = run_one(True, scale)
    basic_util, basic_cost = run_one(False, scale)
    return [
        ("improved", improved_util, improved_cost),
        ("basic", basic_util, basic_cost),
    ]


def test_ablation_esm_insert(benchmark, scale, report):
    rows = benchmark.pedantic(run_ablation, args=(scale,), rounds=1,
                              iterations=1)
    report(
        "Ablation: ESM insert algorithm (4-page leaves, 10 KB inserts)\n"
        + format_table(("algorithm", "utilization", "insert cost (s)"), rows)
    )
    improved = rows[0]
    basic = rows[1]
    # Improved utilization is at least as good, at modest extra cost.
    assert improved[1] >= basic[1] - 0.01
    assert improved[2] <= basic[2] * 1.5
