"""The oracle passes on the real program and fails on a wrong one."""

from perfbench import verify
from perfbench.workloads import OP_STREAMS, QUICK


def test_oracle_agrees_with_the_program():
    for name, generate in OP_STREAMS.items():
        assert verify.check_oracle(name, generate(5, QUICK)) == []


def test_oracle_catches_a_wrong_read(monkeypatch):
    from repro.tree.backed import TreeBackedManager

    honest = TreeBackedManager.read

    def off_by_one(self, oid, offset, nbytes):
        return honest(self, oid, max(0, offset - 1), nbytes)

    monkeypatch.setattr(TreeBackedManager, "read", off_by_one)
    problems = verify.check_oracle(
        "update_mix_tree", OP_STREAMS["update_mix_tree"](5, QUICK)
    )
    assert any("differs from oracle" in problem for problem in problems)


def test_goldens_cover_both_published_seeds():
    import json

    from perfbench import spec

    counts = json.loads(verify.SIM_COUNTS.read_text())
    assert set(counts) == set(OP_STREAMS)
    for seeds in counts.values():
        assert {str(spec.DEFAULT_SEED), str(spec.HELD_OUT_SEED)} <= set(seeds)
    assert verify.check_sim_counts("seq_scan", 1, [0, 0, 0, 0]) == []  # unpinned seed
    assert verify.check_sim_counts("seq_scan", spec.DEFAULT_SEED, [0, 0, 0, 0])


def test_report_goldens_flag_a_changed_report():
    good = dict(
        reversed(line.split())
        for line in (verify.GOLDEN / "paper_grid_tiny.sha256").read_text().splitlines()
    )
    assert verify.check_reports("tiny", good) == []
    assert verify.check_reports("tiny", dict(good, fig5="0" * 64)) == [
        "paper_grid: report 'fig5' differs from golden (tiny)"
    ]


def test_rewritten_sim_counts_are_the_ones_checked(tmp_path, monkeypatch):
    monkeypatch.setattr(verify, "SIM_COUNTS", tmp_path / "sim_counts.json")
    verify.write_sim_counts("seq_scan", 7, (1, 2, 3, 4))
    verify.write_sim_counts("seq_build", 7, (5, 6, 7, 8))
    assert verify.check_sim_counts("seq_scan", 7, (1, 2, 3, 4)) == []
    assert verify.check_sim_counts("seq_build", 7, (5, 6, 7, 9))
