#!/usr/bin/env python3
"""Scheme shootout: replay one recorded workload against every scheme.

Records a single operation trace (the paper's 40/30/30 mix) and replays
it, byte-for-byte identically, against ESM, Starburst, EOS, and the
block-based baseline.  Because the replays are deterministic, the final
objects are identical on every scheme — only the simulated I/O costs and
the storage footprints differ, which is precisely the paper's subject.

Also demonstrates the trace tooling: the trace is saved to a file and
loaded back, so a workload can be shared or re-run after code changes.

Run:  python examples/scheme_shootout.py [mean_op_bytes]
"""

import os
import sys
import tempfile

from repro import ALL_SCHEMES, LargeObjectStore, Trace, replay
from repro.analysis.report import format_table
from repro.analysis.stats import summarize
from repro.workload.generator import WorkloadGenerator

KB = 1024
OBJECT_BYTES = 512 * KB
N_OPS = 300


def main() -> None:
    mean_op = int(sys.argv[1]) if len(sys.argv) > 1 else 4 * KB

    # Record one workload trace and round-trip it through a file.
    generator = WorkloadGenerator(OBJECT_BYTES, mean_op, seed=1992)
    trace = Trace.record(generator, N_OPS)
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "workload.trace")
        trace.save(path)
        trace = Trace.load(path)
    print(f"Recorded {len(trace)} operations (mean {mean_op} bytes) "
          f"and round-tripped them through a trace file\n")

    rows = []
    digests = set()
    for scheme in ALL_SCHEMES:
        store = LargeObjectStore(
            scheme, leaf_pages=4, threshold_pages=4
        )
        oid = store.create(bytes(OBJECT_BYTES))
        result = replay(store.manager, oid, trace)
        digests.add(store.read(oid, 0, store.size(oid)))
        costs = summarize(result.op_costs_ms)
        rows.append(
            (
                scheme,
                f"{result.total_ms / 1000:.1f}",
                f"{costs.median:.0f}",
                f"{costs.p95:.0f}",
                f"{costs.maximum:.0f}",
                f"{result.final_utilization:.1%}",
            )
        )
    assert len(digests) == 1, "replays must agree byte-for-byte"

    print(format_table(
        ("scheme", "total s", "median ms", "p95 ms", "max ms",
         "utilization"),
        rows,
    ))
    print(
        "\nIdentical bytes on every scheme — the differences above are "
        "the\nwhole story the paper tells: Starburst's tail-copy updates "
        "dominate\nits total, EOS stays cheap with good utilization, and "
        "the\nblock-based baseline pays a seek for every page."
    )


if __name__ == "__main__":
    main()
