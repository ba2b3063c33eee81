"""The whole-program rule families of ``repro.lint --flow``.

Two families, each encoding a property the per-file rules of
:mod:`repro.lint.rules` cannot see and no run-time check kills (see
``docs/static_analysis.md``'s mutant table):

* **FLOW002 — crash-safe cleanup.**  ``finally:`` and ``except:`` bodies
  in the storage layers must not mutate pool/disk/allocator state,
  directly or transitively — the PR 4 bug class (post-crash
  ``finally:``-flushes leaking state into the image).
* **DET001, DET003 — determinism.**  No unordered ``set`` iteration, no
  arbitrary-element extraction — anything that could make reports,
  traces, or error messages differ across interpreter processes.
  (DET002, unseeded clocks and RNGs, needs no call graph: it is a row of
  the per-file seam table in :mod:`repro.lint.rules`.)

Suppression uses the engine syntax plus a mandatory rationale for flow
rules: ``# repro-lint: disable=FLOW002 -- why this is safe``.  A flow
suppression without the ``--`` rationale is itself reported (FLOW000).
"""

from __future__ import annotations

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
FLOW_RULE_PREFIXES = ("FLOW", "DET")


def register(cls: type["FlowRule"]) -> type["FlowRule"]:
    """Class decorator adding a flow rule to the registry."""
    FLOW_RULES[cls.rule_id] = cls()
    return cls


class FlowRule:
    """One whole-program check with a stable id and one-line summary."""

    rule_id: str = ""
    summary: str = ""

    def check(self, program: Program) -> Iterator[Violation]:
        """Yield every violation found in ``program``."""
        raise NotImplementedError

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
    "update_if_resident", "set_provider", "access_new",
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
# DET001, DET003: determinism
# ----------------------------------------------------------------------
class _SetTypes:
    """Light set-type inference for one file: locals and self attributes."""

    def __init__(self, ctx: FileContext) -> None:
        #: class name -> attribute names known to hold sets.
        self.class_attrs: dict[str, set[str]] = {}
        for cls in ast.walk(ctx.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            attrs: set[str] = set()
            for node in ast.walk(cls):
                target: ast.expr | None = None
                value: ast.expr | None = None
                annotation: ast.expr | None = None
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target, value = node.targets[0], node.value
                elif isinstance(node, ast.AnnAssign):
                    target, value = node.target, node.value
                    annotation = node.annotation
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                if (value is not None and self._is_set_expr(value, set())) or (
                    annotation is not None and self._is_set_annotation(annotation)
                ):
                    attrs.add(target.attr)
            if attrs:
                self.class_attrs[cls.name] = attrs

    @staticmethod
    def _is_set_annotation(node: ast.expr) -> bool:
        base = node
        if isinstance(base, ast.Subscript):
            base = base.value
        name = None
        if isinstance(base, ast.Name):
            name = base.id
        elif isinstance(base, ast.Attribute):
            name = base.attr
        return name in ("set", "frozenset", "Set", "FrozenSet", "MutableSet")

    def _is_set_expr(self, node: ast.expr, local_sets: set[str],
                     cls_name: str | None = None) -> bool:
        """Conservative: True only when the expression is surely a set."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id in (
                "set", "frozenset"
            ):
                return True
            if isinstance(node.func, ast.Attribute) and node.func.attr in (
                "difference", "union", "intersection",
                "symmetric_difference", "copy",
            ):
                return self._is_set_expr(node.func.value, local_sets, cls_name)
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_set_expr(
                node.left, local_sets, cls_name
            ) or self._is_set_expr(node.right, local_sets, cls_name)
        if isinstance(node, ast.Name):
            return node.id in local_sets
        if isinstance(node, ast.Attribute) and isinstance(
            node.value, ast.Name
        ) and node.value.id == "self" and cls_name is not None:
            return node.attr in self.class_attrs.get(cls_name, set())
        return False

    def local_sets(self, func: ast.AST) -> set[str]:
        """Names assigned a definite set value anywhere in the function."""
        found: set[str] = set()
        # Two passes so ``a = set(); b = a`` resolves.
        for _ in range(2):
            for node in ast.walk(func):
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target = node.targets[0]
                    if isinstance(target, ast.Name) and self._is_set_expr(
                        node.value, found
                    ):
                        found.add(target.id)
                elif isinstance(node, ast.AnnAssign) and isinstance(
                    node.target, ast.Name
                ) and self._is_set_annotation(node.annotation):
                    found.add(node.target.id)
        return found


#: Consumers of an iterable whose result is order-insensitive.
_ORDER_SAFE_CONSUMERS = frozenset({
    "sorted", "min", "max", "sum", "len", "any", "all", "set", "frozenset",
    "bool",
})


@register
class UnorderedIterationRule(FlowRule):
    """DET001: no iteration over sets in an order that can escape.

    ``set`` iteration order depends on insertion history and hash
    randomization of the hosting process; two runs of the same
    workload can disagree.  Dict iteration is fine (insertion-ordered); set consumers
    must go through ``sorted(...)`` (or an order-insensitive reducer like
    ``sum``/``min``/``len``).
    """

    rule_id = "DET001"
    summary = (
        "no iteration over set values (for/comprehension/list()/join()); "
        "wrap in sorted() or use an order-insensitive reducer"
    )

    # ``iter`` is deliberately absent: bare ``iter(a_set)`` only matters
    # once an element is drawn, and ``next(iter(a_set))`` is DET003's.
    _consumers = frozenset({"list", "tuple", "enumerate"})

    def check(self, program: Program) -> Iterator[Violation]:
        for ctx in program.contexts:
            types = _SetTypes(ctx)
            for info in self._functions(program, ctx):
                local_sets = types.local_sets(info.node)

                def is_set(node: ast.expr) -> bool:
                    return types._is_set_expr(node, local_sets, info.cls)

                for node in ast.walk(info.node):
                    iters: list[ast.expr] = []
                    what = ""
                    if isinstance(node, (ast.For, ast.AsyncFor)):
                        iters, what = [node.iter], "for-loop"
                    elif isinstance(node, (ast.ListComp, ast.GeneratorExp,
                                           ast.DictComp)):
                        iters = [g.iter for g in node.generators]
                        what = "comprehension"
                    elif isinstance(node, ast.Call):
                        fn = node.func
                        if isinstance(fn, ast.Name) and (
                            fn.id in self._consumers
                        ):
                            iters, what = list(node.args[:1]), f"{fn.id}()"
                        elif isinstance(fn, ast.Attribute) and (
                            fn.attr == "join" and node.args
                        ):
                            iters, what = [node.args[0]], "str.join()"
                    for it in iters:
                        if is_set(it):
                            yield self.violation(
                                ctx,
                                it,
                                it.lineno,
                                f"{what} iterates over a set "
                                f"({ast.unparse(it)}); set order is "
                                "nondeterministic across processes — wrap "
                                "in sorted() so reports and layouts stay "
                                "bit-identical",
                            )

    @staticmethod
    def _functions(program: Program,
                   ctx: FileContext) -> Iterator[FunctionInfo]:
        for info in program.functions.values():
            if info.ctx is ctx:
                yield info


@register
class ArbitraryChoiceRule(FlowRule):
    """DET003: no arbitrary-element extraction or identity-keyed order.

    ``set.pop()``, ``dict.popitem()``, and ``next(iter(a_set))`` pick an
    unspecified element; ``id(...)`` used as a sort key or subscript ties
    behavior to allocation addresses.  Either makes page layouts and
    reports depend on interpreter internals.
    """

    rule_id = "DET003"
    summary = (
        "no set.pop()/dict.popitem()/next(iter(set)) arbitrary picks and "
        "no id() as an ordering or lookup key"
    )

    def check(self, program: Program) -> Iterator[Violation]:
        for ctx in program.contexts:
            types = _SetTypes(ctx)
            for info in program.functions.values():
                if info.ctx is not ctx:
                    continue
                local_sets = types.local_sets(info.node)

                def is_set(node: ast.expr) -> bool:
                    return types._is_set_expr(node, local_sets, info.cls)

                for node in ast.walk(info.node):
                    if not isinstance(node, ast.Call):
                        continue
                    func = node.func
                    if isinstance(func, ast.Attribute):
                        if (
                            func.attr == "pop"
                            and not node.args
                            and is_set(func.value)
                        ):
                            yield self.violation(
                                ctx, node, node.lineno,
                                "set.pop() removes an arbitrary element; "
                                "pop from a sorted list instead",
                            )
                        elif func.attr == "popitem":
                            yield self.violation(
                                ctx, node, node.lineno,
                                "dict.popitem() extracts an unspecified "
                                "end; pop an explicit key instead",
                            )
                    elif isinstance(func, ast.Name) and func.id == "next":
                        if node.args and self._is_iter_of_set(
                            node.args[0], is_set
                        ):
                            yield self.violation(
                                ctx, node, node.lineno,
                                "next(iter(<set>)) picks an arbitrary "
                                "element; use min()/max() or sorted()",
                            )
                    elif isinstance(func, ast.Name) and func.id == "id":
                        if self._in_ordering_position(ctx, node):
                            yield self.violation(
                                ctx, node, node.lineno,
                                "id() as an ordering or lookup key ties "
                                "behavior to allocation addresses; key on "
                                "stable identifiers instead",
                            )

    @staticmethod
    def _is_iter_of_set(node: ast.expr, is_set) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "iter"
            and bool(node.args)
            and is_set(node.args[0])
        )

    @staticmethod
    def _in_ordering_position(ctx: FileContext, node: ast.Call) -> bool:
        """id() used as a sort key, subscript index, or container add."""
        parent = ctx.parent(node)
        if isinstance(parent, ast.Lambda) and parent.body is node:
            parent = ctx.parent(parent)
        if isinstance(parent, ast.keyword) and parent.arg == "key":
            return True
        if isinstance(parent, ast.Subscript) and parent.slice is node:
            return True
        if isinstance(parent, ast.Compare):
            return True
        if isinstance(parent, ast.Call) and isinstance(
            parent.func, ast.Attribute
        ) and parent.func.attr in ("add", "append", "setdefault"):
            return True
        return False


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
