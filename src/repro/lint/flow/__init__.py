"""Whole-program, flow-sensitive analysis for the reproduction.

``repro.lint`` (PR 1) checks one file at a time; this subpackage adds the
properties no per-file pass can see:

* :mod:`repro.lint.flow.cfg` — per-function control-flow graphs built from
  the AST, with exception edges for ``try``/``except``/``finally`` and
  ``with``, loop back-edges, and early returns threaded through
  ``finally`` blocks;
* :mod:`repro.lint.flow.dataflow` — a small forward worklist framework
  running client analyses over those CFGs;
* :mod:`repro.lint.flow.callgraph` — a cross-module call graph over the
  whole ``src/repro`` tree (class-hierarchy-aware ``self`` dispatch,
  name-based resolution elsewhere);
* :mod:`repro.lint.flow.rules` — the interprocedural rule families:
  FLOW001 (fix/unfix typestate), FLOW002 (no state mutation in
  ``finally``/``except`` cleanup — the post-crash flush bug class),
  DET001 and DET003 (determinism), and CHG001 (charge-completeness against the
  :mod:`repro.obs` span taxonomy).

Entry point: :func:`repro.lint.flow.rules.analyze_paths`, surfaced on the
CLI as ``python -m repro.lint --flow``.  Static findings are mirrored at
runtime by the ``REPRO_CHECKS=1`` pin-balance sanitizer in
:mod:`repro.buffer.pool`, so the two validate each other.
"""

from __future__ import annotations

from repro.lint.flow.cfg import CFG, Block, Header, build_cfg
from repro.lint.flow.callgraph import Program
from repro.lint.flow.rules import FLOW_RULES, analyze_paths, analyze_program

__all__ = [
    "CFG",
    "Block",
    "Header",
    "build_cfg",
    "Program",
    "FLOW_RULES",
    "analyze_paths",
    "analyze_program",
]
