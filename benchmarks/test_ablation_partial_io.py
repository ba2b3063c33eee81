"""Ablation: dirty-blocks-only leaf I/O vs. whole-leaf I/O (Section 4.5).

The paper reads/writes only the pages of a leaf that are needed; the
preliminary [Care86] results assumed the whole leaf as the unit of both
reads and writes, which inflated multi-block-leaf read costs.  This
ablation reproduces why the paper's ESM read costs are better.
"""

from repro.analysis.report import format_table
from repro.core.api import LargeObjectStore
from repro.experiments.common import KB, build_object


def read_cost(partial, scale):
    store = LargeObjectStore(
        "esm", leaf_pages=16, partial_leaf_io=partial, record_data=False
    )
    oid = build_object(store, max(1, scale.object_bytes // 4), 64 * KB)
    before = store.snapshot()
    reads = max(1, scale.n_ops // 10)
    for i in range(reads):
        store.read(oid, (i * 23333) % (store.size(oid) - KB), KB)
    return store.elapsed_ms(before) / reads


def run_ablation(scale):
    return [
        ("partial (paper)", read_cost(True, scale)),
        ("whole leaf [Care86]", read_cost(False, scale)),
    ]


def test_ablation_partial_io(benchmark, scale, report):
    rows = benchmark.pedantic(run_ablation, args=(scale,), rounds=1,
                              iterations=1)
    report(
        "Ablation: unit of leaf I/O, 1 KB reads on 16-page leaves\n"
        + format_table(("unit", "read cost (ms)"), rows)
    )
    costs = dict(rows)
    assert costs["partial (paper)"] < costs["whole leaf [Care86]"]
