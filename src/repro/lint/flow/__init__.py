"""Whole-program analysis for the reproduction.

``repro.lint`` checks one file at a time; this subpackage adds the
properties no per-file pass can see and no run-time check kills:

* :mod:`repro.lint.flow.callgraph` — a cross-module call graph over the
  whole ``src/repro`` tree (class-hierarchy-aware ``self`` dispatch,
  name-based resolution elsewhere);
* :mod:`repro.lint.flow.rules` — FLOW002 (no state mutation in
  ``finally``/``except`` cleanup — the post-crash flush bug class) and
  FLOW000 (a flow suppression carries its rationale).

Entry point: :func:`repro.lint.flow.rules.analyze_paths`, surfaced on the
CLI as ``python -m repro.lint --flow``.  Pin balance, charged I/O inside
op spans, metric names and determinism across hash seeds are checked at
run time instead; see ``docs/static_analysis.md``.
"""

from __future__ import annotations

from repro.lint.flow.callgraph import Program
from repro.lint.flow.rules import FLOW_RULES, analyze_paths, analyze_program

__all__ = [
    "Program",
    "FLOW_RULES",
    "analyze_paths",
    "analyze_program",
]
