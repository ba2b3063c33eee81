"""The whole-program rules of ``repro.lint --flow``.

One family, encoding a property the per-file rules of
:mod:`repro.lint.rules` cannot see and no run-time check kills (see
``docs/static_analysis.md``'s mutant table):

* **FLOW002 — crash-safe cleanup.**  ``finally:`` and ``except:`` bodies
  in the storage layers must not mutate pool/disk/allocator state,
  directly or transitively — the PR 4 bug class (post-crash
  ``finally:``-flushes leaking state into the image).

Determinism is checked at run time instead: CI regenerates REPORT.md,
the chaos sweep's output and a trace diff under two hash seeds and
compares them byte for byte.  (DET002, unseeded clocks and RNGs, is a
row of the per-file seam table in :mod:`repro.lint.rules`.)

Suppression uses the engine syntax plus a mandatory rationale for flow
rules: ``# repro-lint: disable=FLOW002 -- why this is safe``.  A flow
suppression without the ``--`` rationale is itself reported (FLOW000).
"""

from __future__ import annotations

import abc
import ast
import pathlib
from typing import Iterable, Iterator

from repro.lint.engine import FileContext, Violation
from repro.lint.flow.callgraph import (
    FunctionInfo,
    Program,
    _attribute_chain,
)

#: rule id -> rule instance, in registration order.
FLOW_RULES: dict[str, "FlowRule"] = {}

#: Flow-rule id prefixes whose suppressions require a rationale.
FLOW_RULE_PREFIXES = ("FLOW",)


def register(cls: type["FlowRule"]) -> type["FlowRule"]:
    """Class decorator adding a flow rule to the registry."""
    FLOW_RULES[cls.rule_id] = cls()
    return cls


class FlowRule(abc.ABC):
    """One whole-program check with a stable id and one-line summary."""

    rule_id: str = ""
    summary: str = ""

    @abc.abstractmethod
    def check(self, program: Program) -> Iterator[Violation]:
        """Yield every violation found in ``program``."""

    def violation(self, ctx: FileContext, node: ast.AST | None, line: int,
                  message: str) -> Violation:
        """Build a violation anchored at ``node`` (or an explicit line)."""
        if node is not None:
            line = getattr(node, "lineno", line)
            col = getattr(node, "col_offset", 0)
        else:
            col = 0
        return Violation(
            path=ctx.display_path,
            line=line,
            col=col,
            rule_id=self.rule_id,
            message=message,
        )


# ----------------------------------------------------------------------
# Shared receiver / call-shape helpers
# ----------------------------------------------------------------------
def _receiver_chain(call: ast.Call) -> list[str]:
    """Dotted receiver of a method call (empty for plain-name calls)."""
    if isinstance(call.func, ast.Attribute):
        return _attribute_chain(call.func.value)
    return []


def _is_pool_call(call: ast.Call, names: frozenset[str]) -> bool:
    """True for ``<...>.pool.<name>(...)`` / ``pool.<name>(...)``."""
    if not isinstance(call.func, ast.Attribute) or call.func.attr not in names:
        return False
    chain = _receiver_chain(call)
    return bool(chain) and chain[-1] == "pool"


def _is_disk_call(call: ast.Call, names: frozenset[str]) -> bool:
    """True for ``<...>.disk.<name>(...)`` / ``disk.<name>(...)``."""
    if not isinstance(call.func, ast.Attribute) or call.func.attr not in names:
        return False
    chain = _receiver_chain(call)
    return bool(chain) and chain[-1] == "disk"


# ----------------------------------------------------------------------
# FLOW002: no state mutation in finally/except cleanup
# ----------------------------------------------------------------------
_DISK_MUTATORS = frozenset(
    {"write_pages", "poke_pages", "defer_image", "discard_pages"}
)
_POOL_MUTATORS = frozenset({
    "write_run", "flush_all", "flush_page", "invalidate", "invalidate_run",
    "update_if_resident", "access_new", "commit_image",
})
_ALLOC_MUTATORS = frozenset({"allocate", "free", "free_range"})


def _is_direct_mutator(call: ast.Call) -> bool:
    """A call that directly mutates pool, disk, or allocator state."""
    if _is_disk_call(call, _DISK_MUTATORS):
        return True
    if _is_pool_call(call, _POOL_MUTATORS):
        return True
    if isinstance(call.func, ast.Attribute) and (
        call.func.attr in _ALLOC_MUTATORS
    ):
        chain = _receiver_chain(call)
        return bool(chain) and chain[-1] in ("meta", "data", "areas", "area")
    return False


@register
class CrashSafeCleanupRule(FlowRule):
    """FLOW002: cleanup blocks in storage layers must not mutate state.

    PR 4 found managers flushing post-crash state from ``finally:``
    blocks into the disk image; the runtime halt latch now contains the
    damage, and this rule removes the pattern at the source.  Cleanup may
    restore in-memory bookkeeping, but pool writebacks, disk pokes, and
    allocator mutations belong on the success path only.
    """

    rule_id = "FLOW002"
    summary = (
        "no pool/disk/allocator mutation inside finally:/except: blocks "
        "in the storage layers (the PR 4 post-crash flush bug class)"
    )

    _layers = frozenset({
        "esm", "eos", "starburst", "blockbased", "tree", "segio",
        "records", "buddy", "exec",
    })

    def check(self, program: Program) -> Iterator[Violation]:
        mutators = {
            qualname
            for qualname, info in program.functions.items()
            if any(
                isinstance(node, ast.Call) and _is_direct_mutator(node)
                for node in ast.walk(info.node)
            )
        }
        reach_mut = program.reaching(mutators)
        for info in program.functions.values():
            if info.ctx.layer not in self._layers:
                continue
            for region, kind in self._cleanup_regions(info.node):
                for stmt in region:
                    for node in ast.walk(stmt):
                        if not isinstance(node, ast.Call):
                            continue
                        label = self._mutating_label(
                            program, info, node, reach_mut
                        )
                        if label is not None:
                            yield self.violation(
                                info.ctx,
                                node,
                                node.lineno,
                                f"{label} inside a `{kind}:` block in "
                                f"{info.name}(); state mutation in cleanup "
                                "can push post-crash state into the image — "
                                "move it to the success path",
                            )

    @staticmethod
    def _cleanup_regions(
        func: ast.AST,
    ) -> Iterator[tuple[list[ast.stmt], str]]:
        for node in ast.walk(func):
            if isinstance(node, ast.Try):
                if node.finalbody:
                    yield node.finalbody, "finally"
                for handler in node.handlers:
                    yield handler.body, "except"

    @staticmethod
    def _mutating_label(program: Program, caller: FunctionInfo,
                        call: ast.Call, reach_mut: set[str]) -> str | None:
        if _is_direct_mutator(call):
            name = (
                call.func.attr
                if isinstance(call.func, ast.Attribute)
                else ast.unparse(call.func)
            )
            return f"direct state mutation {name}()"
        for callee in program.resolve_call(caller, call):
            if callee in reach_mut:
                short = callee.rsplit(".", 2)
                return (
                    f"call to {'.'.join(short[-2:])}(), which transitively "
                    "mutates pool/disk state,"
                )
        return None


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def analyze_program(
    program: Program,
    select: set[str] | None = None,
    ignore: set[str] | None = None,
) -> list[Violation]:
    """Run every registered flow rule over an indexed program.

    Violations suppressed with ``# repro-lint: disable=<rule>`` comments
    are dropped, but a flow-rule suppression without a ``--`` rationale
    is reported as FLOW000: the acceptance bar for this analysis is that
    every silenced finding carries a written justification.
    """
    by_path = {ctx.display_path: ctx for ctx in program.contexts}
    violations: list[Violation] = []
    for rule_id, rule in FLOW_RULES.items():
        if select is not None and rule_id not in select:
            continue
        if ignore is not None and rule_id in ignore:
            continue
        for violation in rule.check(program):
            ctx = by_path.get(violation.path)
            if ctx is not None and ctx.is_suppressed(
                violation.rule_id, violation.line
            ):
                continue
            violations.append(violation)
    violations.extend(_missing_rationales(program, select, ignore))
    return sorted(set(violations))


def _missing_rationales(
    program: Program,
    select: set[str] | None,
    ignore: set[str] | None,
) -> Iterator[Violation]:
    if select is not None and "FLOW000" not in select:
        return
    if ignore is not None and "FLOW000" in ignore:
        return
    for ctx in program.contexts:
        for line, rule_id in ctx.suppressions_missing_rationale():
            if not rule_id.startswith(FLOW_RULE_PREFIXES):
                continue
            yield Violation(
                path=ctx.display_path,
                line=line,
                col=0,
                rule_id="FLOW000",
                message=(
                    f"suppression of {rule_id} has no rationale; write "
                    f"`# repro-lint: disable={rule_id} -- <why this is "
                    "safe>`"
                ),
            )


def analyze_paths(
    paths: Iterable[pathlib.Path],
    select: set[str] | None = None,
    ignore: set[str] | None = None,
) -> list[Violation]:
    """Index ``paths`` as one program and run the flow rules."""
    return analyze_program(Program.from_paths(paths), select, ignore)
