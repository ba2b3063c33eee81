"""Command-line entry point: regenerate the paper's tables and figures.

Usage::

    repro-experiments                      # everything, default scale
    repro-experiments fig5 table1         # selected experiments
    repro-experiments --jobs 4            # fan the grid across 4 processes
    repro-experiments --list              # show experiments and scales
    repro-experiments --plot fig5         # add an ASCII chart rendering
    repro-experiments fsck --scheme eos   # workload + consistency check
    repro-experiments chaos --scale tiny  # exhaustive crash-sweep check
    repro-experiments chaos --shards 4    # ... of a cross-shard batch
    REPRO_SCALE=paper repro-experiments   # the paper's full 10 MB scale
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from repro.core.errors import InvalidArgumentError
from repro.experiments.common import (
    PAPER_SCALE,
    SMALL_SCALE,
    TINY_SCALE,
    resolve_scale,
)
from repro.experiments.parallel import (
    DEFAULT_RETRIES,
    DegradationLog,
    precompute,
)
from repro.experiments.registry import (
    CSV_EXPORTS,
    EXPERIMENTS,
    PLOTTABLE,
    export_csv,
    grid_for,
    run,
    run_plot,
)
from repro.obs import runtime as obs_runtime
from repro.obs import timeline as obs_timeline
from repro.obs.export import dump_trace
from repro.obs.tracer import Tracer, span_of

_EPILOG = """\
--jobs N computes the experiment grid (every scheme x setting x
operation-size point) in N worker processes before rendering; reports,
simulated-cost counters, traces and timelines are bit-identical for
every N because every point is an isolated simulation with a fixed
per-point seed.  --jobs 1 (the default) takes the same path and
computes the grid in this process.  --list prints the known
experiments, their grid sizes, and the available REPRO_SCALE values
without running anything.
"""


def _list_text() -> str:
    """The --list report: experiments, grid sizes, and scales."""
    lines = ["experiments:"]
    for name in sorted(EXPERIMENTS):
        tags = []
        if name in PLOTTABLE:
            tags.append("plot")
        if name in CSV_EXPORTS:
            tags.append("csv")
        suffix = f" [{', '.join(tags)}]" if tags else ""
        lines.append(
            f"  {name:<10} {len(grid_for(name)):>3} grid points{suffix}"
        )
    lines.append("scales (REPRO_SCALE):")
    for scale in (TINY_SCALE, SMALL_SCALE, PAPER_SCALE):
        lines.append(
            f"  {scale.name:<10} {scale.object_bytes >> 10:>6} KB object, "
            f"{scale.n_ops} ops"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "fsck":
        # Consistency-check subcommand; see repro.core.fsck.
        from repro.core.fsck import cli_main

        return cli_main(argv[1:])
    if argv and argv[0] == "chaos":
        # The one crash-sweep subcommand, single-store and --shards
        # alike; see repro.recovery.sweep.
        from repro.recovery.sweep import cli_main as chaos_main

        return chaos_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Regenerate the tables and figures of Biliris (SIGMOD 1992). "
            "Scale is controlled by REPRO_SCALE=tiny|small|paper."
        ),
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="NAME",
        help=f"experiments to run (default: all). Known: "
             f"{', '.join(sorted(EXPERIMENTS))}",
    )
    parser.add_argument(
        "--jobs", "-j",
        type=int,
        default=1,
        metavar="N",
        help=(
            "worker processes for the experiment grid (default: 1, "
            "computed in this process)"
        ),
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=DEFAULT_RETRIES,
        metavar="N",
        help=(
            "with --jobs, times a grid point lost to a worker failure is "
            "re-fanned out before falling back to serial (default: 2)"
        ),
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "with --jobs, per-point deadline; a point that exceeds it is "
            "computed serially and the pool is rebuilt (default: none)"
        ),
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        help=(
            "record a repro.obs JSONL trace of every experiment run to "
            "PATH (inspect with repro-obs summary/diff/flame)"
        ),
    )
    parser.add_argument(
        "--timeline",
        metavar="PATH",
        help=(
            "record a repro.obs.timeline JSONL time series (per-op "
            "latency histograms + periodic snapshots) to PATH (inspect "
            "with repro-obs timeline)"
        ),
    )
    parser.add_argument(
        "--timeline-every-ops",
        type=int,
        default=None,
        metavar="K",
        help="with --timeline, snapshot every K ops (default: 256)",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        dest="list_only",
        help="list known experiments and scales, run nothing",
    )
    parser.add_argument(
        "--csv",
        metavar="DIR",
        help=(
            "also write CSV series files for figure experiments "
            f"({', '.join(sorted(CSV_EXPORTS))})"
        ),
    )
    parser.add_argument(
        "--plot",
        action="store_true",
        help=(
            "also render an ASCII chart for figure experiments "
            f"({', '.join(sorted(PLOTTABLE))})"
        ),
    )
    args = parser.parse_args(argv)
    unknown = [name for name in args.experiments if name not in EXPERIMENTS]
    if unknown:
        parser.error(
            f"unknown experiment(s) {', '.join(unknown)}; "
            f"known: {', '.join(sorted(EXPERIMENTS))}"
        )
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")
    if args.timeline_every_ops is not None and args.timeline_every_ops < 1:
        parser.error("--timeline-every-ops must be at least 1")
    if args.retries < 0:
        parser.error("--retries must be at least 0")
    if args.timeout is not None and args.timeout <= 0:
        parser.error("--timeout must be greater than 0")
    try:
        scale = resolve_scale()
    except InvalidArgumentError as exc:
        parser.error(f"REPRO_SCALE: {exc}")
    if args.list_only:
        print(_list_text())
        return 0
    names = args.experiments or sorted(EXPERIMENTS)
    tracer = None
    if args.trace:
        tracer = Tracer(meta={"tool": "repro-experiments",
                              "experiments": names})
    sampler = None
    if args.timeline:
        sampler = obs_timeline.TimelineSampler(
            every_ops=(
                obs_timeline.DEFAULT_EVERY_OPS
                if args.timeline_every_ops is None
                else args.timeline_every_ops
            ),
            meta={"tool": "repro-experiments", "experiments": names},
        )
    # Every --jobs takes this one path: compute the grid (in this process
    # at --jobs 1, in workers otherwise), fill the result table, then
    # render from it.
    log = DegradationLog()
    precompute(
        names,
        jobs=args.jobs,
        scale=scale,
        retries=args.retries,
        timeout_s=args.timeout,
        log=log,
        tracer=tracer,
        sampler=sampler,
    )
    if log.degraded:
        print(log.summary(), file=sys.stderr)

    def render_all() -> None:
        for name in names:
            print(run(name))
            if args.plot and name in PLOTTABLE:
                print()
                print(run_plot(name))
            if args.csv and name in CSV_EXPORTS:
                print(f"wrote {export_csv(name, args.csv)}")
            print()

    with contextlib.ExitStack() as stack:
        # Ambient tracer/sampler are picked up by every
        # StorageEnvironment the assembly builds; the grid's points are
        # already memoized (and their per-point traces/timelines
        # absorbed above), so this only adds whatever the assembly
        # itself computes.
        if tracer is not None:
            stack.enter_context(obs_runtime.installed(tracer))
        if sampler is not None:
            stack.enter_context(obs_timeline.installed(sampler))
        render_all()
    if sampler is not None:
        with span_of(tracer, "obs.timeline", samples=len(sampler.samples)):
            obs_timeline.dump_timeline(sampler, args.timeline)
        print(f"wrote timeline {args.timeline}")
    if tracer is not None:
        dump_trace(tracer, args.trace)
        print(f"wrote trace {args.trace}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
