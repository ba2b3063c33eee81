"""The whole-program rule families of ``repro.lint --flow``.

Four families, each encoding a property the per-file rules of
:mod:`repro.lint.rules` cannot see:

* **FLOW001 — pin typestate.**  Every ``pool.fix()`` / ``pool.fix_new()``
  must be balanced by ``pool.unfix()`` on *all* CFG paths, including
  exception paths, unless the pinned frame escapes to the caller (it is
  returned or stored).  A leaked pin silently shrinks the pool's
  evictable set and drifts the Section 4.1 cost model.
* **FLOW002 — crash-safe cleanup.**  ``finally:`` and ``except:`` bodies
  in the storage layers must not mutate pool/disk/allocator state,
  directly or transitively — the PR 4 bug class (post-crash
  ``finally:``-flushes leaking state into the image), now enforced
  statically.
* **DET001, DET003 — determinism.**  No unordered ``set`` iteration, no
  arbitrary-element extraction — anything that could make reports,
  traces, or page layouts differ across runs or interpreter processes.  (DET002, unseeded clocks and RNGs, needs no call graph: it is
  a row of the per-file seam table in :mod:`repro.lint.rules`.)
* **CHG001 — charge-completeness.**  Every paper-facing manager
  operation that transitively reaches a charged ``SimulatedDisk``
  primitive must open an ``op.*`` tracing span, and every op-span name
  must exist in the :mod:`repro.obs` span taxonomy — so the exact
  cost-decomposition invariant of PR 5 (span self-costs sum to the total
  with ``==``) covers all physical I/O.

Suppression uses the engine syntax plus a mandatory rationale for flow
rules: ``# repro-lint: disable=FLOW001 -- why this is safe``.  A flow
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
from repro.lint.flow.cfg import Header, Item, build_cfg
from repro.lint.flow.dataflow import Analysis, run_forward

#: rule id -> rule instance, in registration order.
FLOW_RULES: dict[str, "FlowRule"] = {}

#: Flow-rule id prefixes whose suppressions require a rationale.
FLOW_RULE_PREFIXES = ("FLOW", "DET", "CHG")


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


def _key_of(call: ast.Call) -> str:
    """Normalized page-id expression of a fix/unfix call site."""
    if not call.args:
        return "?"
    return ast.unparse(call.args[0])


_FIX_NAMES = frozenset({"fix", "fix_new"})
_UNFIX_NAMES = frozenset({"unfix"})


# ----------------------------------------------------------------------
# FLOW001: fix/unfix pin typestate
# ----------------------------------------------------------------------
#: Pin state: (pins, binds) where pins maps a page-id expression to the
#: set of source lines that acquired it, and binds maps local variable
#: names to the page-id key of the frame they hold.  Both are stored as
#: canonical frozensets so states are hashable and joins are unions.
PinState = tuple[
    frozenset[tuple[str, frozenset[int]]],
    frozenset[tuple[str, str]],
]

_EMPTY_PIN_STATE: PinState = (frozenset(), frozenset())


class PinAnalysis(Analysis[PinState]):
    """May-leak analysis for buffer-pool pins within one function."""

    def initial(self) -> PinState:
        return _EMPTY_PIN_STATE

    def join(self, a: PinState, b: PinState) -> PinState:
        if a == b:
            return a
        pins: dict[str, set[int]] = {}
        for source in (a[0], b[0]):
            for key, lines in source:
                pins.setdefault(key, set()).update(lines)
        return (
            frozenset((k, frozenset(v)) for k, v in pins.items()),
            a[1] | b[1],
        )

    def transfer(self, state: PinState, item: Item) -> PinState:
        return self._transfer(state, item, acquire=True)

    def transfer_exception(self, state: PinState, item: Item) -> PinState:
        # An aborted statement publishes no acquisitions, but a failing
        # ``unfix(p)`` still released bookkeeping before raising — apply
        # releases only, so cleanup calls are not misread as leaks.
        return self._transfer(state, item, acquire=False)

    # ------------------------------------------------------------------
    def _transfer(self, state: PinState, item: Item,
                  acquire: bool) -> PinState:
        exprs: list[ast.AST]
        stmt: ast.stmt | None
        if isinstance(item, Header):
            exprs = list(item.exprs)
            stmt = None
        else:
            exprs = [item]
            stmt = item
        pins = {key: set(lines) for key, lines in state[0]}
        binds = dict(state[1])
        changed = False
        for root in exprs:
            for node in ast.walk(root):
                if not isinstance(node, ast.Call):
                    continue
                if _is_pool_call(node, _FIX_NAMES):
                    if acquire:
                        key = _key_of(node)
                        pins.setdefault(key, set()).add(node.lineno)
                        changed = True
                elif _is_pool_call(node, _UNFIX_NAMES):
                    self._release(pins, _key_of(node))
                    changed = True
                elif acquire:
                    changed |= self._escape_via_args(node, pins, binds)
        if stmt is not None and acquire:
            changed |= self._bind_or_escape(stmt, pins, binds)
        if not changed:
            return state
        return (
            frozenset((k, frozenset(v)) for k, v in pins.items() if v),
            frozenset(binds.items()),
        )

    @staticmethod
    def _release(pins: dict[str, set[int]], key: str) -> None:
        if key == "?":
            pins.clear()  # dynamic unfix: assume it balances anything
            return
        lines = pins.get(key)
        if lines:
            lines.discard(max(lines))
            if not lines:
                del pins[key]
        elif "?" in pins:
            unknown = pins["?"]
            unknown.discard(max(unknown))
            if not unknown:
                del pins["?"]

    def _escape_via_args(self, call: ast.Call, pins: dict[str, set[int]],
                         binds: dict[str, str]) -> bool:
        """A frame handed to another function escapes local tracking."""
        changed = False
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            if isinstance(arg, ast.Name) and arg.id in binds:
                pins.pop(binds[arg.id], None)
                changed = True
        return changed

    def _bind_or_escape(self, stmt: ast.stmt, pins: dict[str, set[int]],
                        binds: dict[str, str]) -> bool:
        changed = False
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            value = stmt.value
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign)
                else [stmt.target]
            )
            if isinstance(value, ast.Call) and _is_pool_call(value, _FIX_NAMES):
                key = _key_of(value)
                for target in targets:
                    if isinstance(target, ast.Name):
                        binds[target.id] = key
                        changed = True
                    elif isinstance(target, (ast.Attribute, ast.Subscript)):
                        # Frame stored beyond the function: escapes.
                        pins.pop(key, None)
                        changed = True
            elif isinstance(value, ast.Name) and value.id in binds:
                for target in targets:
                    if isinstance(target, (ast.Attribute, ast.Subscript)):
                        pins.pop(binds[value.id], None)
                        changed = True
        elif isinstance(stmt, ast.Return) and stmt.value is not None:
            for node in ast.walk(stmt.value):
                if isinstance(node, ast.Name) and node.id in binds:
                    pins.pop(binds[node.id], None)
                    changed = True
                elif isinstance(node, ast.Call) and _is_pool_call(
                    node, _FIX_NAMES
                ):
                    pins.pop(_key_of(node), None)
                    changed = True
        return changed


@register
class PinTypestateRule(FlowRule):
    """FLOW001: every fix()/fix_new() is balanced on all paths."""

    rule_id = "FLOW001"
    summary = (
        "pool.fix()/fix_new() must be balanced by unfix() (or an escaping "
        "return of the frame) on every path, including exception paths"
    )

    def check(self, program: Program) -> Iterator[Violation]:
        for info in program.functions.values():
            uses_pins = any(
                isinstance(node, ast.Call)
                and (_is_pool_call(node, _FIX_NAMES)
                     or _is_pool_call(node, _UNFIX_NAMES))
                for node in ast.walk(info.node)
            )
            if not uses_pins:
                continue
            cfg = build_cfg(info.node)
            states = run_forward(cfg, PinAnalysis())
            leaks: dict[tuple[str, int], set[str]] = {}
            for exit_block, path_kind in (
                (cfg.exit, "a fall-through path"),
                (cfg.raise_exit, "an exception path"),
            ):
                state = states.get(exit_block.bid)
                if state is None:
                    continue
                for key, lines in state[0]:
                    for line in lines:
                        leaks.setdefault((key, line), set()).add(path_kind)
            for (key, line), kinds in sorted(leaks.items()):
                where = " and ".join(sorted(kinds))
                yield self.violation(
                    info.ctx,
                    None,
                    line,
                    f"{info.name}() pins page {key} here but {where} can "
                    "leave the function without unfix(); a leaked pin "
                    "shrinks the evictable pool and drifts the cost model "
                    "(wrap the use in try/finally)",
                )


# ----------------------------------------------------------------------
# FLOW002: no state mutation in finally/except cleanup
# ----------------------------------------------------------------------
_DISK_MUTATORS = frozenset({"write_pages", "poke_pages", "discard_pages"})
_POOL_MUTATORS = frozenset({
    "write_run", "flush_all", "flush_page", "invalidate", "invalidate_run",
    "update_if_resident", "set_provider",
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

    #: The sanctioned cleanup primitive: releasing a pin undoes this
    #: operation's own bookkeeping and performs no I/O (writeback happens
    #: at eviction/flush on the success path) — unfix-in-finally is the
    #: fix FLOW001 prescribes, so FLOW002 must not reject it.
    _cleanup_safe = frozenset({"unfix"})

    @classmethod
    def _mutating_label(cls, program: Program, caller: FunctionInfo,
                        call: ast.Call, reach_mut: set[str]) -> str | None:
        if isinstance(call.func, ast.Attribute) and (
            call.func.attr in cls._cleanup_safe
        ):
            return None
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
# CHG001: charge-completeness
# ----------------------------------------------------------------------
_CHARGED_DISK_PRIMITIVES = frozenset({
    "read_pages", "read_page_views", "write_pages",
})
_CHARGE_CALLS = frozenset({"charge_read", "charge_write"})


@register
class ChargeCompletenessRule(FlowRule):
    """CHG001: charged I/O is reachable only through accounted op spans.

    Every concrete override of the paper-facing byte-range interface
    (the abstract methods of ``LargeObjectManager``) that transitively
    reaches a charged ``SimulatedDisk`` primitive must open an
    ``op.*`` span via ``self._op_span(...)`` — that is what makes PR 5's
    exact cost decomposition (span self-costs ``==`` total cost) cover
    all physical I/O.  Op-span names are cross-checked against the
    :mod:`repro.obs` span taxonomy so a typo cannot open an
    unclassifiable span.
    """

    rule_id = "CHG001"
    summary = (
        "manager byte-range overrides reaching charged disk I/O must "
        "open a _op_span(); op-span names must be in the repro.obs "
        "span taxonomy"
    )

    _manager_base = "LargeObjectManager"

    def check(self, program: Program) -> Iterator[Violation]:
        charged = {
            qualname
            for qualname, info in program.functions.items()
            if self._calls_charged_primitive(info.node)
        }
        reach_charged = program.reaching(charged)
        required = self._interface_methods(program)
        for cls_info in program.subclasses_of(self._manager_base):
            for name, method in sorted(cls_info.methods.items()):
                if name not in required:
                    continue
                if method.qualname not in reach_charged:
                    continue
                if self._opens_op_span(method.node):
                    continue
                yield self.violation(
                    method.ctx,
                    method.node,
                    method.node.lineno,
                    f"{cls_info.name}.{name}() reaches charged disk I/O "
                    "but opens no op span (self._op_span(...)); unspanned "
                    "I/O breaks the exact span-cost decomposition of "
                    "experiment totals",
                )
        yield from self._check_taxonomy(program)

    # ------------------------------------------------------------------
    @staticmethod
    def _calls_charged_primitive(func: ast.AST) -> bool:
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                if _is_disk_call(node, _CHARGED_DISK_PRIMITIVES):
                    return True
                if isinstance(node.func, ast.Attribute) and (
                    node.func.attr in _CHARGE_CALLS
                ):
                    return True
        return False

    #: Concrete base-class entry points that also reach charged I/O and
    #: must open a span: the batch submission API dispatches every
    #: byte-range op, so an unspanned ``submit_ops`` would leave whole
    #: batches outside the cost decomposition.
    _extra_required = frozenset({"submit_ops"})

    def _interface_methods(self, program: Program) -> set[str]:
        """Abstract method names of the manager base class."""
        required: set[str] = set(self._extra_required)
        for (_, cls_name), cls_info in program.classes.items():
            if cls_name != self._manager_base:
                continue
            for name, method in cls_info.methods.items():
                for decorator in method.node.decorator_list:
                    dec = decorator
                    if isinstance(dec, ast.Attribute):
                        dec_name = dec.attr
                    elif isinstance(dec, ast.Name):
                        dec_name = dec.id
                    else:
                        continue
                    if dec_name == "abstractmethod":
                        required.add(name)
        return required

    @staticmethod
    def _opens_op_span(func: ast.AST) -> bool:
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ) and node.func.attr == "_op_span":
                return True
        return False

    def _check_taxonomy(self, program: Program) -> Iterator[Violation]:
        try:
            from repro.obs.taxonomy import SPAN_KINDS
        except ImportError:  # pragma: no cover - taxonomy ships with repro
            return
        for info in program.functions.values():
            for call in program.iter_calls(info):
                if not (
                    isinstance(call.func, ast.Attribute)
                    and call.func.attr == "_op_span"
                    and call.args
                    and isinstance(call.args[0], ast.Constant)
                    and isinstance(call.args[0].value, str)
                ):
                    continue
                kind = f"op.{call.args[0].value}"
                if kind not in SPAN_KINDS:
                    yield self.violation(
                        info.ctx,
                        call,
                        call.lineno,
                        f"op span {kind!r} is not in the repro.obs span "
                        "taxonomy (repro.obs.taxonomy.SPAN_KINDS); add it "
                        "there or fix the name so traces stay classifiable",
                    )


# ----------------------------------------------------------------------
# CHG002: metric-name registration
# ----------------------------------------------------------------------
_METRIC_EMITTERS = frozenset({"inc", "set_gauge", "observe"})

#: Files whose metric emissions the rule audits: the health probe and
#: the timeline sampler, i.e. the producers of the documented metric
#: catalogue.  (``MetricsRegistry`` itself re-emits already-validated
#: names from merge/deserialize paths and is deliberately out of scope.)
_METRIC_FILES = frozenset({"health.py", "timeline.py"})


@register
class MetricRegistrationRule(FlowRule):
    """CHG002: every emitted health/timeline metric name is registered.

    The health probe and timeline sampler publish a documented metric
    catalogue (:data:`repro.obs.taxonomy.METRIC_NAMES` plus the
    :data:`~repro.obs.taxonomy.METRIC_FAMILY_PREFIXES` families); an
    ``inc``/``set_gauge``/``observe`` call minting a name outside it
    would silently desynchronize dashboards and the docs.  Constant
    names must be known exactly; f-string names must have a constant
    leading fragment compatible with a registered family or exact name.
    """

    rule_id = "CHG002"
    summary = (
        "health/timeline metric names passed to inc()/set_gauge()/"
        "observe() must be registered in the repro.obs metric taxonomy"
    )

    def check(self, program: Program) -> Iterator[Violation]:
        try:
            from repro.obs.taxonomy import (
                is_known_metric,
                is_known_metric_prefix,
            )
        except ImportError:  # pragma: no cover - taxonomy ships with repro
            return
        for info in program.functions.values():
            ctx = info.ctx
            if ctx.layer != "obs" or ctx.path.name not in _METRIC_FILES:
                continue
            for call in program.iter_calls(info):
                if not (
                    isinstance(call.func, ast.Attribute)
                    and call.func.attr in _METRIC_EMITTERS
                    and call.args
                ):
                    continue
                name_arg = call.args[0]
                if isinstance(name_arg, ast.Constant) and isinstance(
                    name_arg.value, str
                ):
                    if not is_known_metric(name_arg.value):
                        yield self.violation(
                            ctx,
                            call,
                            call.lineno,
                            f"metric name {name_arg.value!r} is not "
                            "registered in the repro.obs metric taxonomy "
                            "(METRIC_NAMES / METRIC_FAMILY_PREFIXES); "
                            "register it or fix the name so the catalogue "
                            "stays complete",
                        )
                elif isinstance(name_arg, ast.JoinedStr):
                    prefix = self._leading_constant(name_arg)
                    if not is_known_metric_prefix(prefix):
                        yield self.violation(
                            ctx,
                            call,
                            call.lineno,
                            f"f-string metric name starting {prefix!r} "
                            "matches no registered metric family or exact "
                            "name in the repro.obs metric taxonomy; "
                            "register the family or fix the prefix",
                        )
                # Plain-variable names are re-emissions of names already
                # validated at their original constant/f-string site
                # (merge, absorb, deserialize) — not audited here.

    @staticmethod
    def _leading_constant(node: ast.JoinedStr) -> str:
        """The constant fragment before the first interpolation."""
        parts: list[str] = []
        for value in node.values:
            if isinstance(value, ast.Constant) and isinstance(
                value.value, str
            ):
                parts.append(value.value)
            else:
                break
        return "".join(parts)


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
