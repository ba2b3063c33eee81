"""The command itself: contract schema, quick smoke, and refusal to run
without the program."""

import json
import re
import shutil
import subprocess
import sys
import time

from perfbench import spec

RUN = str(spec.ROOT / "perfbench" / "run.py")
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_meets_the_contract():
    doc = json.loads((spec.ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert doc["paths"] == ["perfbench"]
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16 and 1 <= len(doc["per_layer"]) <= 128
    names = []
    for workload in doc["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in doc["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
    for metric in doc["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
        names.append(metric["name"])
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    setup = spec.END_TO_END["setup_s"]
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in spec.END_TO_END.values())
    # 4 + 22 x workloads runs, set-up included, must fit the driver's cap.
    assert (4 + 22 * len(doc["workloads"])) * 2.2 * doc["run_seconds"] < 3420


def test_quick_smoke_emits_every_metric_in_under_20_s():
    began = time.perf_counter()
    done = subprocess.run(
        [sys.executable, RUN, "--quick", "--seed", "5"],
        stdout=subprocess.PIPE, text=True,
    )
    elapsed = time.perf_counter() - began
    assert done.returncode == 0, done.stdout[-2000:]
    assert elapsed < 20.0
    for workload in spec.WORKLOADS:
        assert f"# {workload}  seed=5  trace=0" in done.stdout
        assert f"# {workload}  seed=5  trace=1" in done.stdout
    printed = {line.split()[0] for line in done.stdout.splitlines() if line[:1].isalnum()}
    assert set(spec.END_TO_END) | set(spec.PER_LAYER) <= printed
    assert {"sim_mismatches", "failed_ops_share"} <= printed


def test_driver_form_prints_one_json_object_last():
    done = subprocess.run(
        [sys.executable, RUN, "--workload", "atomic_multi_shard", "--seed", "9",
         "--seconds", "0", "--trace", "1", "--quick"],
        stdout=subprocess.PIPE, text=True,
    )
    assert done.returncode == 0
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == list(spec.PER_LAYER)
    shares = sum(
        metric["value"] for name, metric in result["metrics"].items()
        if name.endswith(".self_share")
    )
    assert abs(shares - 1.0) < 0.03
    assert result["metrics"]["shard.shards_per_batch"]["value"] == 4
    assert result["metrics"]["atomic.journal_io_calls_per_batch"]["value"] > 0
    assert result["metrics"]["tree.calls_per_op"]["value"] > 0


def test_passes_per_run_are_fixed_not_fitted_to_the_time_they_take():
    from perfbench import run

    assert set(run.PASSES) == set(spec.WORKLOADS)
    assert run.pass_counts("seq_scan", spec.RUN_SECONDS, 0) == (9, 0)
    assert run.pass_counts("seq_scan", spec.RUN_SECONDS, 1) == (3, 6)
    assert run.pass_counts("paper_grid", spec.RUN_SECONDS, 1) == (1, 1)
    assert run.pass_counts("paper_grid", 2 * spec.RUN_SECONDS, 0) == (4, 0)
    assert run.pass_counts("paper_grid", 1, 0) == (1, 0)


def copy_benchmark(tmp_path):
    shutil.copy(spec.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        spec.ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )


def test_regolden_rewrites_the_goldens_it_then_passes_against(tmp_path):
    copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(spec.ROOT / "src")
    golden = tmp_path / "perfbench" / "golden" / "paper_grid_tiny.sha256"
    committed = golden.read_text()
    golden.write_text(committed.replace(committed[:8], "0" * 8, 1))

    def run(*flags):
        return subprocess.run(
            [sys.executable, "perfbench/run.py", "--quick", *flags],
            cwd=tmp_path, stdout=subprocess.PIPE, text=True,
        )

    stale = run("--workload", "paper_grid")
    assert stale.returncode == 1 and "MISMATCH paper_grid: report" in stale.stdout
    assert golden.read_text() != committed
    # The everything form hands the flag on to each workload's interpreter.
    assert run("--regolden").returncode == 0
    assert golden.read_text() == committed
    assert run("--workload", "paper_grid").returncode == 0


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    copy_benchmark(tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "seq_scan",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    assert done.returncode != 0
    assert done.stdout == ""
