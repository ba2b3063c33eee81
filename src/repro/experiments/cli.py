"""Command-line entry point: regenerate the paper's tables and figures.

Usage::

    repro-experiments                      # everything, default scale
    repro-experiments fig5 table1         # selected experiments
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
import os
import sys

from repro.core.errors import InvalidArgumentError
from repro.experiments.common import (
    PAPER_SCALE,
    SMALL_SCALE,
    TINY_SCALE,
    resolve_scale,
)
from repro.experiments.parallel import precompute
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
from repro.obs.export import dump_trace
from repro.obs.tracer import Tracer

_EPILOG = """\
--list prints the known experiments, their grid sizes, and the
available REPRO_SCALE values without running anything.
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
        "--trace",
        metavar="PATH",
        help=(
            "record a repro.obs JSONL trace of every experiment run to "
            "PATH (inspect with repro-obs summary/diff/flame)"
        ),
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
    try:
        scale = resolve_scale()
    except InvalidArgumentError as exc:
        parser.error(f"REPRO_SCALE: {exc}")
    if args.list_only:
        print(_list_text())
        return 0
    names = args.experiments or sorted(EXPERIMENTS)
    # Both output paths are made before anything is computed: a bad path
    # is a usage error, not a traceback after the whole run.
    tracer = None
    if args.trace:
        try:
            open(args.trace, "w", encoding="utf-8").close()
        except OSError as exc:
            parser.error(f"--trace: cannot write {args.trace}: {exc}")
        tracer = Tracer(meta={"tool": "repro-experiments",
                              "experiments": names})
    if args.csv:
        try:
            os.makedirs(args.csv, exist_ok=True)
        except OSError as exc:
            parser.error(f"--csv: cannot make directory {args.csv}: {exc}")
    # An ambient tracer is picked up by every StorageEnvironment built
    # from here on: the grid's points first, in grid order, then
    # whatever the assembly itself computes.
    with (
        obs_runtime.installed(tracer)
        if tracer is not None
        else contextlib.nullcontext()
    ):
        precompute(names, scale=scale)
        for name in names:
            print(run(name))
            if args.plot and name in PLOTTABLE:
                print()
                print(run_plot(name))
            if args.csv and name in CSV_EXPORTS:
                print(f"wrote {export_csv(name, args.csv)}")
            print()
    if tracer is not None:
        dump_trace(tracer, args.trace)
        print(f"wrote trace {args.trace}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
