"""Command-line front end: ``python -m repro.lint [paths...]``.

Exit codes: 0 when the tree is clean, 1 when violations were found,
2 on usage errors (argparse's convention).
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from repro.lint.engine import lint_paths
from repro.lint.reporters import render_json, render_rule_list, render_text
from repro.lint.rules import RULES


def main(argv: list[str] | None = None) -> int:
    """Run the linter over the given paths; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "Storage-engine-aware static analysis: layering, cost-model, "
            "and invariant checks for the Biliris reproduction."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        metavar="PATH",
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        metavar="RULES",
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        print(render_rule_list())
        return 0

    known = set(RULES)
    select = _parse_rule_set(parser, args.select, known)
    ignore = _parse_rule_set(parser, args.ignore, known)
    paths = [pathlib.Path(p) for p in args.paths]
    for path in paths:
        if not path.exists():
            parser.error(f"no such file or directory: {path}")
    violations = lint_paths(paths, select=select, ignore=ignore)
    renderer = render_json if args.format == "json" else render_text
    print(renderer(violations))
    return 1 if violations else 0


def _parse_rule_set(
    parser: argparse.ArgumentParser, raw: str | None, known: set[str]
) -> set[str] | None:
    if raw is None:
        return None
    rules = {r.strip() for r in raw.split(",") if r.strip()}
    unknown = rules - known
    if unknown:
        parser.error(
            f"unknown rule id(s): {', '.join(sorted(unknown))}; "
            f"known: {', '.join(sorted(known))}"
        )
    return rules


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
