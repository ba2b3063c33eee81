"""Compare two sets of perfbench results, one row per (workload, metric).

    python3 perfbench/compare.py A_DIR B_DIR
    python3 perfbench/compare.py --self [--out DIR]

``A_DIR`` is the parent commit's results and ``B_DIR`` the change's, both
written by ``run.py --out``: one file per (workload, seed), so ten runs a
side are ten seeds.  Every row pairs the two sides by seed.  A pair ran
the same ops, and under ``--self`` back to back, so its relative
difference ``(b - a) / a`` holds neither the seed-to-seed difference in
work nor the host's drift over the session.  Host-time rows get medians
and quartiles per side, the median and the inter-quartile distance of
the paired differences, the share of pairs the change wins, and a verdict:

* ``improved``      the change wins at least 9/10 of the pairs and the
                    median difference exceeds the differences' own
                    inter-quartile distance;
* ``regressed``     the median difference is worse by more than the bound;
* ``unresolved``    the differences spread wider than the bound, and the
                    change neither wins nor loses every pair;
* ``within-bound``  none of the above.

Rows of the simulated clock (``spec.EXACT``) must be equal in every pair:
``==`` or ``!=``.  ``--self`` measures the current tree twice, in
``RUNS`` pairs that alternate which side runs first, and fails unless
every row is ``within-bound`` or ``==``: the repeatability acceptance
check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __package__ in (None, ""):
    sys.path[0] = str(ROOT)

from perfbench import spec  # noqa: E402


#: Pairs per workload under ``--self``; a verdict needs at least ten.
RUNS = 10


def load(directory: str) -> dict[str, dict[int, dict[str, float]]]:
    """workload -> seed -> metric -> value, from the untraced results."""
    results: dict[str, dict[int, dict[str, float]]] = {}
    for path in sorted(Path(directory).glob("*.trace0.json")):
        record = json.loads(path.read_text())
        results.setdefault(record["workload"], {})[record["seed"]] = {
            name: metric["value"] for name, metric in record["metrics"].items()
        }
    return results


def judge(
    metric: spec.Metric, a: list[float], b: list[float]
) -> tuple[str, float, float, float]:
    """(verdict, win share, median worsening, its inter-quartile distance)
    for one host-time row; ``a[i]`` and ``b[i]`` ran the same seed."""
    sign = 1 if metric.better == "lower" else -1
    worse = [(y - x) / abs(x) * sign for x, y in zip(a, b)]
    wins = sum(w < 0 for w in worse)
    losses = sum(w > 0 for w in worse)
    q1, median, q3 = spec.quartiles(worse)
    clear_gap = abs(median) > q3 - q1
    if q3 - q1 > metric.bound and len(worse) not in (wins, losses):
        verdict = "unresolved"
    elif median > metric.bound:
        verdict = "regressed"
    elif wins >= 0.9 * len(worse) and clear_gap:
        verdict = "improved"
    else:
        verdict = "within-bound"
    return verdict, wins / len(worse), median, q3 - q1


def _quartiles_text(values: list[float]) -> str:
    return "/".join(f"{value:.5g}" for value in spec.quartiles(values))


def compare(a_dir: str, b_dir: str) -> list[tuple[str, str, str]]:
    """Print the table; returns (workload, metric, verdict) per row."""
    a_all, b_all = load(a_dir), load(b_dir)
    rows = []
    print(f"{'workload':22s} {'metric':20s} {'A q1/median/q3':>38s} "
          f"{'B q1/median/q3':>38s} {'worse by':>9s} {'its IQD':>8s} "
          f"{'bound':>6s} {'wins':>5s}  verdict")
    for workload in spec.WORKLOADS:
        a_runs, b_runs = a_all.get(workload, {}), b_all.get(workload, {})
        seeds = sorted(set(a_runs) & set(b_runs))
        if not seeds:
            print(f"{workload:22s} no seed was run on both sides")
            rows.append((workload, "*", "unresolved"))
            continue
        for name, metric in spec.END_TO_END.items():
            a = [a_runs[seed][name] for seed in seeds]
            b = [b_runs[seed][name] for seed in seeds]
            if name in spec.EXACT:
                verdict = "==" if a == b else "!="
                tail = f"{'':>9s} {'':>8s} {'':>6s} {'':>5s}"
            else:
                verdict, win_share, median, distance = judge(metric, a, b)
                tail = (f"{median:+9.4f} {distance:8.4f} {metric.bound:6.2f} "
                        f"{win_share:5.2f}")
            print(f"{workload:22s} {name:20s} {_quartiles_text(a):>38s} "
                  f"{_quartiles_text(b):>38s} {tail}  {verdict}")
            rows.append((workload, name, verdict))
    return rows


def measure_pairs(out: Path, base_seed: int) -> None:
    """``RUNS`` pairs of untraced runs per workload, one seed per pair,
    alternating which side goes first so that drift of the host falls
    on both sides alike."""
    for workload in spec.WORKLOADS:
        for seed in range(base_seed, base_seed + RUNS):
            for side in ("a", "b") if seed % 2 == 0 else ("b", "a"):
                done = subprocess.run(
                    [sys.executable, str(ROOT / "perfbench" / "run.py"),
                     "--workload", workload, "--seed", str(seed),
                     "--out", str(out / side)],
                    stdout=subprocess.DEVNULL,
                )
                if done.returncode:
                    sys.exit(f"{workload} seed {seed}: exit status {done.returncode}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dirs", nargs="*", metavar="DIR")
    parser.add_argument("--self", dest="self_check", action="store_true")
    parser.add_argument("--out", help="where --self keeps its two result sets")
    args = parser.parse_args(argv)
    if not args.self_check:
        if len(args.dirs) != 2:
            parser.error("give A_DIR and B_DIR, or --self")
        compare(*args.dirs)
        return 0
    with tempfile.TemporaryDirectory(prefix=".perfbench-self-", dir=ROOT) as scratch:
        out = Path(args.out or scratch)
        measure_pairs(out, spec.DEFAULT_SEED)
        rows = compare(str(out / "a"), str(out / "b"))
    bad = [row for row in rows if row[2] not in ("within-bound", "==")]
    for workload, name, verdict in bad:
        print(f"NOT REPEATABLE {workload} {name}: {verdict}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
