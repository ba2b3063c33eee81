"""Generator determinism and size bookkeeping."""

import pytest

from perfbench import workloads
from perfbench.workloads import OP_STREAMS, QUICK


@pytest.mark.parametrize("name", sorted(OP_STREAMS))
def test_same_seed_same_ops(name):
    first = OP_STREAMS[name](7, QUICK)
    again = OP_STREAMS[name](7, QUICK)
    assert [s.ops for s in first] == [s.ops for s in again]
    assert [s.final_sizes for s in first] == [s.final_sizes for s in again]


@pytest.mark.parametrize(
    "name", ["update_mix_tree", "update_mix_starburst", "atomic_multi_shard"]
)
def test_other_seed_other_ops(name):
    assert [s.ops for s in OP_STREAMS[name](7, QUICK)] != [
        s.ops for s in OP_STREAMS[name](8, QUICK)
    ]


def test_mix_holds_the_papers_shares():
    import random

    ops, final = workloads.generate_mix(random.Random(1), 10 << 20, 6000, 10 << 10)
    kinds = [op.kind for op in ops]
    assert 0.37 < kinds.count("read") / len(ops) < 0.43
    assert 0.27 < kinds.count("insert") / len(ops) < 0.33
    assert 0.9 * (10 << 20) <= final <= 1.1 * (10 << 20) + (15 << 10)
    assert all(5120 <= (op.nbytes or len(op.data)) <= 15360 for op in ops)


@pytest.mark.parametrize("name", sorted(OP_STREAMS))
def test_store_sizes_match_the_generators_model(name):
    ledger = workloads.EnvLedger()
    ledger.install()
    try:
        workload = workloads.make_workload(name, ledger, QUICK)
        n_ops = workload.generate(3)
        result = workload.run_pass()
    finally:
        ledger.uninstall()
    assert result.mismatches == []
    assert result.failed == 0
    assert result.ops == n_ops == sum(n for n, _ in result.samples)
    assert result.stats.io_calls > 0


def test_passes_over_a_shared_store_charge_alike():
    ledger = workloads.EnvLedger()
    ledger.install()
    try:
        workload = workloads.make_workload("seq_scan", ledger, QUICK)
        workload.generate(0)
        first, second = workload.run_pass(), workload.run_pass()
    finally:
        ledger.uninstall()
    assert first.sim_key == second.sim_key
    assert first.pool == second.pool


def test_ledger_uninstalls():
    from repro.core.env import StorageEnvironment

    original = StorageEnvironment.__init__
    ledger = workloads.EnvLedger()
    ledger.install()
    assert StorageEnvironment.__init__ is not original
    ledger.uninstall()
    assert StorageEnvironment.__init__ is original
