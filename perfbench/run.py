"""perfbench runner.

Driver form (one workload, one interpreter, last stdout line is JSON)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Everything form (each workload in a fresh interpreter, one after the
other, untraced for the end-to-end metrics and then traced for the
per-layer ones)::

    python3 perfbench/run.py --seed N [--out DIR] [--quick] [--regolden]

Exit status is non-zero when any verification fails.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __package__ in (None, ""):
    # Run as a script: sys.path[0] is perfbench/ itself, whose trace.py
    # would shadow the standard library's.  Import through the package.
    sys.path[0] = str(ROOT)
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing")
sys.path.insert(1, str(ROOT / "src"))

from perfbench import spec  # noqa: E402

#: Set-ups per run; ``setup_s`` is their median (plus the one import).
SETUP_REPEATS = 3
#: Share of the op stream the discarded warm-up pass replays.
WARMUP_FRACTION = 0.1
#: A pass whose wall time exceeds its CPU time by more than this was disturbed.
DISTURBED = 1.05
#: Measured passes P per workload at the declared ``run_seconds``: the
#: fewest whole passes that fill it on the quiet reference host (an odd
#: count where one more pass is cheap).  P is fixed, never fitted to the
#: time passes take, so the statistic taken across passes is the same
#: one however fast the program under test is.
PASSES = {
    "paper_grid": 2,
    "update_mix_tree": 2,
    "update_mix_starburst": 4,
    "seq_build": 3,
    "seq_scan": 9,
    "atomic_multi_shard": 4,
}
#: Share of its passes a traced run spends on the untraced reference.
REFERENCE_SHARE = 1 / 3


def scrub_environment(grid_scale: str) -> None:
    """Pin every ``REPRO_*`` switch: the benchmark measures the defaults."""
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_SCALE"] = grid_scale


def pass_counts(name: str, seconds: float, trace: int) -> tuple[int, int]:
    """(untraced, traced) passes of one run: P scaled by ``--seconds``."""
    total = max(1, round(PASSES[name] * seconds / spec.RUN_SECONDS))
    if not trace:
        return total, 0
    reference = max(1, round(total * REFERENCE_SHARE))
    return reference, max(1, total - reference)


def steady_windows(passes, quiet: float) -> list[tuple[int, float]]:
    """(ops, calibrated CPU seconds) per window position, disturbances
    filtered.

    Every pass replays the same ops in the same windows, so window *i*
    did identical work in each of them; its lower median across the
    passes drops a replay that the host interrupted.
    """
    return [
        (column[0][0], statistics.median_low(seconds for _, seconds in column))
        for column in zip(*(p.calibrated(quiet) for p in passes))
    ]


def end_to_end_metrics(
    passes, quiet: float, setup_s: float, peak_rss_mb: float
) -> dict[str, float]:
    windows = steady_windows(passes, quiet)
    per_op_us = [seconds / n_ops * 1e6 for n_ops, seconds in windows]
    seconds = sum(seconds for _, seconds in windows)
    first = passes[0]
    return {
        "host_ops_per_s": first.ops / seconds,
        "host_op_us_p50": statistics.median(per_op_us),
        "host_op_us_p90": statistics.quantiles(per_op_us, n=10, method="inclusive")[-1],
        "host_us_per_io_call": seconds / first.stats.io_calls * 1e6,
        "io_calls_per_op": first.stats.io_calls / first.ops,
        "pages_per_op": first.stats.pages_transferred / first.ops,
        "storage_utilization": first.utilization,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
    }


def per_layer_metrics(reference, traced, quiet: float, gen_s: float) -> dict[str, float]:
    """``traced`` is a list of (PassResult, PassTrace); ``reference`` the
    untraced passes of the same run."""
    from perfbench.trace import LAYERS
    from repro.core.config import PAPER_CONFIG

    first, first_trace = traced[0]
    ops = first.ops
    median = statistics.median

    def calls(layer: str, fn: str) -> int:
        return first_trace.by_fn.get((layer, fn), (0, 0.0))[0]

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    untraced_s = sum(seconds for _, seconds in steady_windows(reference, quiet))
    # Per traced pass: the seconds no wrapped layer accounts for, and the
    # pass as the sum of its parts.  Whatever the wrappers cost beyond
    # their calibration is spread over all parts and cancels in the shares;
    # a share of the untraced pass's calibrated time is a time again.
    other_s = [max(0.0, p.wall - t.covered_s) for p, t in traced]
    whole_s = [
        sum(t.self_s.values()) + other for (_, t), other in zip(traced, other_s)
    ]
    us_per_op = untraced_s / ops * 1e6

    metrics: dict[str, float] = {}
    for layer in LAYERS:
        share = median(
            t.self_s[layer] / whole for (_, t), whole in zip(traced, whole_s)
        )
        metrics[f"{layer}.calls_per_op"] = first_trace.calls[layer] / ops
        metrics[f"{layer}.self_us_per_op"] = share * us_per_op
        metrics[f"{layer}.self_share"] = share
    metrics["other.self_share"] = median(
        other / whole for other, whole in zip(other_s, whole_s)
    )
    stats, pool, counts = first.stats, first.pool, first_trace.counts
    metrics["disk.io_calls_per_op"] = stats.io_calls / ops
    metrics["disk.pages_per_call"] = ratio(stats.pages_transferred, stats.io_calls)
    metrics["disk.sim_ms_per_op"] = stats.elapsed_ms(PAPER_CONFIG) / ops
    metrics["buffer.hit_rate"] = pool.hit_rate
    metrics["buffer.evictions_per_op"] = pool.evictions / ops
    metrics["buffer.dirty_writebacks_per_op"] = pool.dirty_writebacks / ops
    metrics["buddy.allocs_per_op"] = calls("buddy", "allocate") / ops
    metrics["buddy.frees_per_op"] = calls("buddy", "free") / ops
    metrics["buddy.pages_allocated_per_op"] = counts.get("buddy.pages_allocated", 0) / ops
    metrics["tree.index_pages_final"] = first.index_pages
    metrics["segio.unaligned_reads_per_op"] = calls("segio", "read_boundary_unaligned") / ops
    metrics["exec.ops_per_batch"] = ratio(counts.get("exec.ops", 0), counts.get("exec.batches", 0))
    metrics["shard.shards_per_batch"] = ratio(
        counts.get("shard.shards", 0), counts.get("shard.batches", 0)
    )
    metrics["atomic.journal_io_calls_per_batch"] = ratio(
        first_trace.journal_io_calls, calls("atomic", "submit_many")
    )
    for kind in ("read", "insert", "delete", "append", "replace"):
        metrics[f"manager.{kind}_us_p50"] = median(
            t.manager_p50_s.get(kind, 0.0) / whole * untraced_s * 1e6
            for (_, t), whole in zip(traced, whole_s)
        )
    for kind in ("read", "insert", "delete"):
        metrics[f"manager.sim_ms_per_{kind}"] = ratio(
            counts.get(f"sim_ms.{kind}", 0.0), counts.get(f"ops.{kind}", 0)
        )
    metrics["workload.gen_us_per_op"] = gen_s / ops * 1e6
    metrics["trace.overhead_ratio"] = (
        sum(seconds for _, seconds in steady_windows([p for p, _ in traced], quiet))
        / untraced_s
    )
    metrics["trace.spans_per_op"] = first_trace.spans / ops
    return metrics


def verify_run(workload, seed: int, passes, quick: bool, regolden: bool) -> list[str]:
    """Every disagreement between the run's outputs and their references."""
    from perfbench import verify, workloads

    problems = [problem for p in passes for problem in p.mismatches]
    first = passes[0]
    for number, p in enumerate(passes[1:], start=2):
        same = (
            p.sim_key == first.sim_key
            and p.utilization == first.utilization
            and p.report_hashes == first.report_hashes
        )
        if not same:
            problems.append(
                f"{workload.name}: pass {number} (traced and untraced alike) "
                f"charged {p.sim_key}, pass 1 charged {first.sim_key}"
            )
    if workload.name == "paper_grid":
        scale = workload.sizes.grid_scale
        if regolden:
            verify.write_reports(scale, first.report_hashes)
        problems += verify.check_reports(scale, first.report_hashes)
        return problems
    if not quick:
        if regolden:
            verify.write_sim_counts(workload.name, seed, first.sim_key)
        problems += verify.check_sim_counts(workload.name, seed, first.sim_key)
    problems += verify.check_oracle(
        workload.name, workloads.OP_STREAMS[workload.name](seed, workloads.QUICK)
    )
    return problems


def run_one(args: argparse.Namespace) -> int:
    """Measure one workload in this interpreter; returns the exit status."""
    clock = time.process_time
    started = clock()
    from perfbench import calibrate, workloads
    from perfbench.trace import Tracer

    import_s = clock() - started
    sizes = workloads.QUICK if args.quick else workloads.FULL
    n_reference, n_traced = (
        (1, args.trace) if args.quick
        else pass_counts(args.workload, args.seconds, args.trace)
    )
    scrub_environment(sizes.grid_scale)
    ledger = workloads.EnvLedger()
    ledger.install()
    tracer = Tracer()
    try:
        workload = workloads.make_workload(args.workload, ledger, sizes)
        #: Per set-up: (CPU seconds, kernel readings taken beside it).
        setups: list[tuple[float, list[float]]] = []
        gens = []
        for _ in range(1 if args.quick else SETUP_REPEATS):
            workload.drop_state()
            begin = clock()
            workload.generate(args.seed)
            gens.append(clock() - begin)
            warm_up = workload.run_pass(WARMUP_FRACTION)
            spent = clock() - begin - sum(warm_up.kernel)
            # The warm-up has few windows; top its kernel readings up.
            setups.append((
                spent,
                warm_up.kernel + [calibrate.timed_kernel() for _ in range(16)],
            ))

        reference = [workload.run_pass() for _ in range(n_reference)]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        traced = []
        if n_traced:
            tracer.install()
            workload.attach(tracer)
            for _ in range(n_traced):
                result = workload.run_pass()
                tracer.calibrate()      # again: keeps the lowest cost seen
                traced.append((result, tracer.fold(*result.span_range)))
                tracer.clear()
    finally:
        tracer.uninstall()
        ledger.uninstall()

    passes = reference + [p for p, _ in traced]
    readings = [r for _, kernel in setups for r in kernel]
    readings += [r for p in passes for r in p.kernel]
    quiet = calibrate.quiet_level(readings)
    # The import is compiling and file reading; it follows the kernel's
    # slowdown too loosely (exponent 0.3, r = 0.6 over 30 fresh
    # interpreters) for the correction to steady it: plain CPU seconds.
    setup_s = import_s + statistics.median(
        spent / calibrate.slowdown(statistics.median(kernel), quiet)
        for spent, kernel in setups
    )

    problems = verify_run(workload, args.seed, passes, args.quick, args.regolden)
    if args.trace:
        metrics = per_layer_metrics(reference, traced, quiet, statistics.median(gens))
        declared = spec.PER_LAYER
    else:
        metrics = end_to_end_metrics(reference, quiet, setup_s, peak_rss_mb)
        declared = spec.END_TO_END
    if set(metrics) != set(declared):
        raise AssertionError(
            f"metrics computed and declared differ: {set(metrics) ^ set(declared)}"
        )
    attempted = sum(p.ops for p in passes)
    failed = sum(p.failed for p in passes)
    result = {
        "correct": not problems and not failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": declared[name].unit}
            for name in declared
        },
    }

    measured = [p for p, _ in traced] or reference
    kernel = {
        "quiet_us": quiet * 1e6,
        "reference_us": calibrate.REFERENCE_KERNEL_S * 1e6,
        "median_us": statistics.median(readings) * 1e6,
        "readings": len(readings),
    }
    print(f"# {args.workload}  seed={args.seed}  trace={args.trace}  "
          f"passes={len(measured)} x {measured[0].ops} ops  "
          f"windows/pass={len(measured[0].samples)}  "
          f"cpu={sum(p.cpu for p in measured):.2f}s  "
          f"wall={sum(p.wall for p in measured):.2f}s  "
          f"host slowdown={statistics.median(p.slowdown(quiet) for p in measured):.2f}")
    source = (
        "the committed reference" if quiet == calibrate.REFERENCE_KERNEL_S
        else f"this run's first decile, under the reference {kernel['reference_us']:.1f} us"
    )
    print(f"# kernel: quiet level {kernel['quiet_us']:.1f} us ({source}), "
          f"median {kernel['median_us']:.1f} us over {len(readings)} readings")
    for name in declared:
        print(f"{name:38s} {metrics[name]:16.6f} {declared[name].unit}")
    print(f"{'sim_mismatches':38s} {len(problems):16d} count")
    print(f"{'failed_ops_share':38s} {failed / attempted:16.6f} ratio")
    for problem in problems:
        print(f"MISMATCH {problem}")
    disturbed = [
        number for number, p in enumerate(passes, start=1)
        if p.wall > DISTURBED * p.cpu
    ]
    if disturbed:
        print(f"# disturbed passes (wall > {DISTURBED} x CPU): {disturbed}")
    if args.out:
        write_record(args, result, problems, disturbed, passes, traced, kernel)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def write_record(args, result, problems, disturbed, passes, traced, kernel) -> None:
    """The result plus what explains it, for ``compare.py`` and for later."""
    quiet = kernel["quiet_us"] / 1e6
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    record = dict(
        result,
        workload=args.workload, seed=args.seed, trace=args.trace,
        quick=args.quick, problems=problems, disturbed_passes=disturbed,
        untraced_passes=len(passes) - len(traced), traced_passes=len(traced),
        kernel=kernel,
        passes=[
            {"ops": p.ops, "wall_s": p.wall, "cpu_s": p.cpu,
             "host_slowdown": p.slowdown(quiet), "windows": len(p.samples),
             "sim_key": p.sim_key}
            for p in passes
        ],
        functions=[
            {"layer": layer, "fn": fn, "calls": calls, "self_s": self_s}
            for (layer, fn), (calls, self_s) in sorted(traced[0][1].by_fn.items())
        ] if traced else [],
    )
    path = out / f"{args.workload}.seed{args.seed}.trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")


def run_all(args: argparse.Namespace) -> int:
    """Every workload, untraced then traced, one fresh interpreter each."""
    status = 0
    for trace in (0, 1):
        for name in spec.WORKLOADS:
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            for flag in ("quick", "regolden"):
                if getattr(args, flag):
                    command.append(f"--{flag}")
            if args.out:
                command += ["--out", args.out]
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            lines = done.stdout.splitlines()
            if lines and lines[-1].startswith('{"correct"'):
                del lines[-1]       # the driver's JSON line; the table says it all
            print("\n".join(lines), flush=True)
            if done.returncode:
                print(f"# {name} trace={trace}: exit status {done.returncode}")
                status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="directory for result files (compare.py reads them)")
    parser.add_argument("--quick", action="store_true",
                        help="one short pass at reduced sizes (smoke test)")
    parser.add_argument("--regolden", action="store_true",
                        help="rewrite the committed goldens from this run")
    args = parser.parse_args(argv)
    return run_all(args) if args.workload is None else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
