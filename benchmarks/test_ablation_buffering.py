"""Ablation: the hybrid buffering scheme of Section 3.2.

Compares the paper's hybrid policy (buffer segments up to 4 pages,
bypass for larger ones with 3-step boundary I/O) against the two
extremes it rejects: buffering everything and buffering nothing.  Each
policy is a value of ``max_buffered_segment_pages``.
"""

import dataclasses

from repro.analysis.report import format_table
from repro.core.api import make_manager
from repro.core.env import StorageEnvironment
from repro.core.config import PAPER_CONFIG

KB = 1024
MB = 1 << 20


def workload_cost(max_buffered_segment_pages, scale):
    config = dataclasses.replace(
        PAPER_CONFIG, max_buffered_segment_pages=max_buffered_segment_pages
    )
    env = StorageEnvironment(config, record_leaf_data=False)
    manager = make_manager("eos", env, threshold_pages=4)
    oid = manager.create()
    chunk = bytes(64 * KB)
    size = max(1, scale.object_bytes // 4)
    done = 0
    while done < size:
        manager.append(oid, chunk[: min(len(chunk), size - done)])
        done += min(len(chunk), size - done)
    manager.trim(oid)
    before = env.snapshot()
    # A scan-then-rescan of small chunks: rereads reward buffering.
    for start in range(0, 2):
        position = 0
        while position < size:
            manager.read(oid, position, min(2 * KB, size - position))
            position += 2 * KB
    return env.elapsed_ms_since(before) / 1000.0


def run_ablation(scale):
    rows = [
        ("hybrid (paper)",
         workload_cost(PAPER_CONFIG.max_buffered_segment_pages, scale)),
        ("never buffer", workload_cost(0, scale)),
        ("always buffer", workload_cost(PAPER_CONFIG.buffer_pool_pages, scale)),
    ]
    return rows


def test_ablation_buffering(benchmark, scale, report):
    rows = benchmark.pedantic(run_ablation, args=(scale,), rounds=1,
                              iterations=1)
    report(
        "Ablation: buffering policy, repeated 2 KB scans (seconds)\n"
        + format_table(("policy", "seconds"), rows)
    )
    costs = dict(rows)
    # Small-chunk rescans punish the no-buffering extreme.
    assert costs["hybrid (paper)"] < costs["never buffer"]
