"""``repro-obs``: inspect JSONL traces produced by :mod:`repro.obs`.

Usage::

    repro-obs summary TRACE [--json]     # totals + per-span-kind costs
    repro-obs diff OLD NEW [--json]      # per-span-kind cost deltas
    repro-obs flame TRACE [--out PATH]   # collapsed stacks for flamegraphs
    repro-obs validate TRACE             # schema check, non-zero on problems
    repro-obs health [--scheme S]        # probe a deterministic store

``diff`` follows diff(1) conventions: exit 0 when the traces attribute
cost identically, 1 when they differ.  ``flame`` output feeds directly
into standard flamegraph tooling (``flamegraph.pl``, speedscope, or any
collapsed-stack consumer); the sample value is simulated microseconds.

``health`` builds a deterministic sharded store, exercises it with a
fixed batch workload, and prints the :mod:`repro.obs.health` gauge
report — every gauge cross-checked against allocator/pool ground truth
as it is computed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.core.errors import InvalidArgumentError, TraceError

from repro.obs.export import load_trace, validate_trace
from repro.obs.summarize import (
    collapsed_stacks,
    diff_documents,
    render_diff,
    render_summary,
    summarize,
)


def _cmd_summary(args: argparse.Namespace) -> int:
    document = load_trace(args.trace)
    if args.json:
        print(json.dumps(summarize(document), indent=2, sort_keys=True))
    else:
        print(render_summary(document))
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    old = load_trace(args.old)
    new = load_trace(args.new)
    if args.json:
        deltas = diff_documents(old, new)
        print(json.dumps(deltas, indent=2, sort_keys=True))
        return 1 if deltas else 0
    text = render_diff(old, new)
    if not text:
        print(f"traces attribute cost identically: {args.old} == {args.new}")
        return 0
    print(text)
    return 1


def _cmd_flame(args: argparse.Namespace) -> int:
    document = load_trace(args.trace)
    lines = collapsed_stacks(document)
    if args.out:
        Path(args.out).write_text(
            "".join(line + "\n" for line in lines), encoding="utf-8"
        )
        print(f"wrote {len(lines)} stacks to {args.out}")
    else:
        for line in lines:
            print(line)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    problems = validate_trace(args.trace)
    if problems:
        for problem in problems:
            print(f"INVALID: {problem}", file=sys.stderr)
        return 1
    print(f"{args.trace}: valid trace")
    return 0


#: Deterministic workout used by ``repro-obs health``: object count,
#: object bytes, batches, and ops per batch.
HEALTH_OBJECTS = 6
HEALTH_OBJECT_BYTES = 24 * 1024
HEALTH_BATCHES = 4
HEALTH_OPS_PER_BATCH = 8


def _cmd_health(args: argparse.Namespace) -> int:
    # Imported lazily: the health probe pulls the full storage stack,
    # which the trace-only subcommands never need.
    from repro.exec.plan import BatchOp, MultiOp
    from repro.obs.health import probe_sharded_store
    from repro.shard.router import ShardedStore

    store = ShardedStore(
        args.scheme, shards=args.shards, atomic=args.atomic
    )
    oids = [
        store.create(b"\x5a" * HEALTH_OBJECT_BYTES)
        for _ in range(HEALTH_OBJECTS)
    ]
    span = HEALTH_OBJECT_BYTES - 512
    for batch in range(HEALTH_BATCHES):
        mops = []
        for i in range(HEALTH_OPS_PER_BATCH):
            oid = oids[(batch + i) % len(oids)]
            offset = (batch * 7919 + i * 104729) % span
            mops.append(MultiOp(oid, BatchOp(
                "replace", offset, data=b"\xa5" * 512
            )))
        store.submit_many(mops)
    report = probe_sharded_store(store)
    report.to_metrics()  # raises on a metric name outside the taxonomy
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro-obs",
        description="Summarize, diff, and export repro.obs JSONL traces.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    summary = subparsers.add_parser(
        "summary", help="print cost totals and a per-span-kind table"
    )
    summary.add_argument("trace", help="trace JSONL path")
    summary.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    summary.set_defaults(func=_cmd_summary)

    diff = subparsers.add_parser(
        "diff",
        help="per-span-kind cost deltas between two traces "
        "(exit 1 when they differ)",
    )
    diff.add_argument("old", help="baseline trace JSONL path")
    diff.add_argument("new", help="candidate trace JSONL path")
    diff.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    diff.set_defaults(func=_cmd_diff)

    flame = subparsers.add_parser(
        "flame",
        help="collapsed-stack output (simulated microseconds) for "
        "flamegraph tools",
    )
    flame.add_argument("trace", help="trace JSONL path")
    flame.add_argument(
        "--out", metavar="PATH", help="write stacks to a file instead of stdout"
    )
    flame.set_defaults(func=_cmd_flame)

    validate = subparsers.add_parser(
        "validate", help="check a trace against the schema (exit 1 on problems)"
    )
    validate.add_argument("trace", help="trace JSONL path")
    validate.set_defaults(func=_cmd_validate)

    health = subparsers.add_parser(
        "health",
        help="exercise a deterministic store and print its gauge report",
    )
    health.add_argument(
        "--scheme",
        choices=("esm", "starburst", "eos", "blockbased"),
        default="eos",
        help="storage scheme to probe (default: eos)",
    )
    health.add_argument(
        "--shards", type=int, default=2,
        help="shard count for the probed store (default: 2)",
    )
    health.add_argument(
        "--atomic", action="store_true",
        help="reserve intent journals (adds journal-residue gauges)",
    )
    health.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    health.set_defaults(func=_cmd_health)

    args = parser.parse_args(argv)
    try:
        return int(args.func(args))
    except (TraceError, InvalidArgumentError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
