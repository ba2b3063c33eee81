"""The comparison rule, on made-up numbers."""

import pytest

from perfbench import compare, spec

LOWER = spec.Metric("host_op_us_p50", "us/op", "lower", 0.10)
HIGHER = spec.Metric("host_ops_per_s", "ops/s", "higher", 0.10)
TIGHT = [100.0, 100.5, 101.0, 99.5, 100.2, 100.8, 99.8, 100.1, 100.4, 99.9]


def verdict(metric, a, b):
    return compare.judge(metric, a, b)[0]


def test_same_numbers_are_within_bound():
    assert verdict(LOWER, TIGHT, TIGHT) == "within-bound"
    assert verdict(LOWER, TIGHT, TIGHT[1:] + TIGHT[:1]) == "within-bound"


def test_a_clear_win_is_improved_in_both_directions():
    assert compare.judge(LOWER, TIGHT, [v * 0.8 for v in TIGHT])[:2] == ("improved", 1.0)
    assert compare.judge(HIGHER, TIGHT, [v * 1.2 for v in TIGHT])[:2] == ("improved", 1.0)


def test_worse_than_the_bound_is_regressed():
    assert verdict(LOWER, TIGHT, [v * 1.2 for v in TIGHT]) == "regressed"
    assert verdict(HIGHER, TIGHT, [v * 0.8 for v in TIGHT]) == "regressed"
    assert verdict(LOWER, TIGHT, [v * 1.05 for v in TIGHT]) == "within-bound"


SEEDS_DIFFER = [80.0, 120.0, 90.0, 110.0, 100.0, 70.0, 130.0, 95.0, 105.0, 100.0]


def test_pairing_by_seed_takes_the_seed_to_seed_spread_out():
    # The sides spread by 20 %, yet every pair differs by exactly 3 %.
    assert spec.spread(SEEDS_DIFFER) > LOWER.bound
    judged = compare.judge(LOWER, SEEDS_DIFFER, [v * 0.97 for v in SEEDS_DIFFER])
    assert judged[:2] == ("improved", 1.0)
    assert judged[2] == pytest.approx(-0.03) and judged[3] == pytest.approx(0.0)


def test_differences_spread_wider_than_the_bound_are_unresolved():
    factors = [v / 100 for v in SEEDS_DIFFER]
    noisy = [v * f for v, f in zip(TIGHT, factors)]
    assert verdict(LOWER, TIGHT, noisy) == "unresolved"
    # ... unless the change wins every pair.
    assert verdict(LOWER, TIGHT, [v * 0.4 for v in noisy]) == "improved"


def test_nine_wins_in_ten_with_a_gap_no_wider_than_the_noise_is_no_gain():
    factors = [0.99, 0.95, 0.99, 0.94, 0.99, 1.01, 0.96, 0.99, 0.93, 0.99]
    assert verdict(LOWER, TIGHT, [v * f for v, f in zip(TIGHT, factors)]) == "within-bound"


def test_exact_rows_pair_by_seed(tmp_path, capsys):
    import json

    def write(side, seed, io_calls):
        metrics = {name: {"value": 1.0, "unit": m.unit} for name, m in spec.END_TO_END.items()}
        metrics["io_calls_per_op"]["value"] = io_calls
        (tmp_path / side).mkdir(exist_ok=True)
        (tmp_path / side / f"seq_scan.seed{seed}.trace0.json").write_text(json.dumps(
            {"workload": "seq_scan", "seed": seed, "metrics": metrics}
        ))

    for seed, io_calls in ((1, 3.0), (2, 4.0)):
        write("a", seed, io_calls)
        write("b", seed, io_calls)
    rows = compare.compare(str(tmp_path / "a"), str(tmp_path / "b"))
    assert ("seq_scan", "io_calls_per_op", "==") in rows
    write("b", 2, 4.5)
    rows = compare.compare(str(tmp_path / "a"), str(tmp_path / "b"))
    assert ("seq_scan", "io_calls_per_op", "!=") in rows
    capsys.readouterr()
