"""Command-line entry point: regenerate the paper's tables and figures.

Usage::

    repro-experiments                      # everything, default scale
    repro-experiments fig5 table1         # selected experiments
    repro-experiments --jobs 4            # fan the grid across 4 processes
    repro-experiments --list              # show experiments and scales
    repro-experiments --plot fig5         # add an ASCII chart rendering
    repro-experiments fsck --scheme eos   # workload + consistency check
    repro-experiments chaos --scale tiny  # exhaustive crash-sweep check
    REPRO_SCALE=paper repro-experiments   # the paper's full 10 MB scale
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments.common import PAPER_SCALE, SMALL_SCALE, TINY_SCALE
from repro.experiments.registry import (
    CSV_EXPORTS,
    EXPERIMENTS,
    PLOTTABLE,
    export_csv,
    grid_for,
    run,
    run_plot,
)

_EPILOG = """\
--jobs N computes the experiment grid (every scheme x setting x
operation-size point) in N worker processes before rendering; reports and
simulated-cost counters are bit-identical to a serial run because every
point is an isolated simulation with a fixed per-point seed.  --jobs 1
(the default) keeps the fully serial path.  --list prints the known
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
        # Exhaustive crash-sweep subcommand; see repro.recovery.sweep.
        from repro.recovery.sweep import cli_main as chaos_main

        return chaos_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Regenerate the tables and figures of Biliris (SIGMOD 1992). "
            "Scale is controlled by REPRO_SCALE=tiny|small|paper "
            "(or REPRO_FULL=1)."
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
            "fully serial)"
        ),
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=None,
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
    if args.list_only:
        print(_list_text())
        return 0
    names = args.experiments or sorted(EXPERIMENTS)
    tracer = None
    if args.trace:
        from repro.obs.tracer import Tracer

        tracer = Tracer(meta={"tool": "repro-experiments",
                              "experiments": names})
    sampler = None
    if args.timeline:
        from repro.obs.timeline import DEFAULT_EVERY_OPS, TimelineSampler

        sampler = TimelineSampler(
            every_ops=(
                DEFAULT_EVERY_OPS
                if args.timeline_every_ops is None
                else args.timeline_every_ops
            ),
            meta={"tool": "repro-experiments", "experiments": names},
        )
    if args.jobs > 1:
        # Warm the memo caches from worker processes; the serial assembly
        # below then renders from cached results, bit-identically.
        from repro.experiments.parallel import (
            DEFAULT_RETRIES,
            DegradationLog,
            precompute,
        )

        log = DegradationLog()
        precompute(
            names,
            jobs=args.jobs,
            retries=(
                DEFAULT_RETRIES if args.retries is None else args.retries
            ),
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

    import contextlib

    with contextlib.ExitStack() as stack:
        # Ambient tracer/sampler are picked up by every
        # StorageEnvironment the serial pass builds; with --jobs the
        # expensive points are already cached (and their worker
        # traces/timelines absorbed above), so this only adds whatever
        # the assembly itself computes.
        if tracer is not None:
            from repro.obs.runtime import installed

            stack.enter_context(installed(tracer))
        if sampler is not None:
            from repro.obs.timeline import installed as sampler_installed

            stack.enter_context(sampler_installed(sampler))
        render_all()
    if sampler is not None:
        from repro.obs.timeline import dump_timeline

        if tracer is not None:
            with tracer.span("obs.timeline", samples=len(sampler.samples)):
                dump_timeline(sampler, args.timeline)
        else:
            dump_timeline(sampler, args.timeline)
        print(f"wrote timeline {args.timeline}")
    if tracer is not None:
        from repro.obs.export import dump_trace

        dump_trace(tracer, args.trace)
        print(f"wrote trace {args.trace}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
