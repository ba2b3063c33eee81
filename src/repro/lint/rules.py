"""The storage-engine rule catalogue.

Each rule is registered in :data:`RULES`: a visitor class, a small AST
pass whose verdict needs more than a path, or a row of :data:`SEAMS`,
*pattern X may appear only where P allows, because R*.  Rules are
stateless; they receive a :class:`~repro.lint.engine.FileContext` and
yield :class:`~repro.lint.engine.Violation` objects.  A visitor's
docstring and a seam's ``reason`` state what it enforces and why
(mirrored in ``docs/static_analysis.md``).
"""

from __future__ import annotations

import abc
import ast
import builtins
import dataclasses
import functools
from typing import Callable, Iterable, Iterator

from repro.lint.engine import FileContext, Violation

#: rule id -> rule instance, in registration order.
RULES: dict[str, "Rule"] = {}


def register(cls: type["Rule"]) -> type["Rule"]:
    """Class decorator adding a rule to the global registry."""
    RULES[cls.rule_id] = cls()
    return cls


def active_rules() -> list["Rule"]:
    """All registered rules, in registration order."""
    return list(RULES.values())


class Rule(abc.ABC):
    """One static check with a stable id and a one-line summary."""

    rule_id: str
    summary: str

    @abc.abstractmethod
    def check(self, ctx: FileContext) -> Iterator[Violation]:
        """Yield every violation of this rule found in ``ctx``."""

    def violation(self, ctx: FileContext, node: ast.AST, message: str) -> Violation:
        """Build a violation anchored at ``node``."""
        return Violation(
            path=ctx.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule_id=self.rule_id,
            message=message,
        )


def _attribute_chain(node: ast.expr) -> list[str]:
    """Dotted-name parts of an attribute expression, outermost first.

    ``self.env.pool.disk`` -> ``["self", "env", "pool", "disk"]``.  Returns
    an empty list when the expression is not a plain dotted name (e.g. a
    subscript or call result).
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return []


@register
class CostConstantRule(Rule):
    """CST001: no bare cost-model magic numbers in arithmetic.

    The paper's seek cost (33 ms; worked examples 45 ms and 111 ms) and
    the KB/page-size divisors (1024, 4096) must come from
    :class:`repro.core.config.SystemConfig` / :mod:`repro.disk.iomodel`.
    Re-deriving a cost inline with a literal silently diverges from the
    configured model when experiments change the parameters.
    """

    rule_id = "CST001"
    summary = (
        "no bare seek/transfer magic numbers (33, 45, 111; 1024/4096 in "
        "cost context) outside repro/disk/iomodel.py and repro/core/config.py"
    )

    _seek_literals = frozenset({33, 45, 111})
    _context_literals = frozenset({1024, 4096})
    _cost_tokens = ("seek", "transfer", "cost", "elapsed")
    _exempt = frozenset({"repro/disk/iomodel.py", "repro/core/config.py"})

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if ctx.package_path in self._exempt:
            return
        reported: set[tuple[int, int]] = set()
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.BinOp):
                continue
            for operand in (node.left, node.right):
                if not isinstance(operand, ast.Constant):
                    continue
                value = operand.value
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    continue
                key = (operand.lineno, operand.col_offset)
                if key in reported:
                    continue
                if value in self._seek_literals:
                    reported.add(key)
                    yield self.violation(
                        ctx,
                        operand,
                        f"magic cost constant {value!r}; use "
                        "config.seek_ms / the CostModel instead of inlining "
                        "Section 4.1 numbers",
                    )
                elif value in self._context_literals and self._in_cost_context(
                    ctx, node
                ):
                    reported.add(key)
                    yield self.violation(
                        ctx,
                        operand,
                        f"magic divisor {value!r} in cost arithmetic; use "
                        "config.page_size / config.transfer_ms_per_page",
                    )

    def _in_cost_context(self, ctx: FileContext, node: ast.AST) -> bool:
        """True when the outermost enclosing expression names a cost term."""
        top = node
        parent = ctx.parent(top)
        while isinstance(parent, (ast.BinOp, ast.UnaryOp)):
            top = parent
            parent = ctx.parent(top)
        for sub in ast.walk(top):
            name = None
            if isinstance(sub, ast.Name):
                name = sub.id
            elif isinstance(sub, ast.Attribute):
                name = sub.attr
            if name is None:
                continue
            lowered = name.lower()
            if (
                any(token in lowered for token in self._cost_tokens)
                or lowered.endswith("_ms")
                or "_ms_" in lowered
            ):
                return True
        return False


@functools.lru_cache(maxsize=1)
def _core_error_names() -> frozenset[str]:
    """Exception class names exported by :mod:`repro.core.errors`."""
    import repro.core.errors as errors_module

    return frozenset(
        name
        for name in dir(errors_module)
        if isinstance(getattr(errors_module, name), type)
        and issubclass(getattr(errors_module, name), BaseException)
    )


@register
class ErrorTypeRule(Rule):
    """ERR001: raise only exception types from :mod:`repro.core.errors`.

    A single hierarchy rooted at ``ReproError`` lets callers (and the
    randomized workload harness) distinguish simulation bugs from caller
    mistakes with one ``except``.  Raising bare builtins (``ValueError``,
    ``TypeError``) or module-private exception classes fragments that
    contract.  ``NotImplementedError`` is allowed for abstract stubs, and
    re-raises (``raise`` with no operand) are always fine.
    """

    rule_id = "ERR001"
    summary = "only exception types from repro.core.errors may be raised"

    _allowed_builtins = frozenset({"NotImplementedError"})

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if ctx.package_path == "repro/core/errors.py":
            return
        allowed = _core_error_names() | self._allowed_builtins
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            target = node.exc
            if isinstance(target, ast.Call):
                target = target.func
            if isinstance(target, ast.Name):
                name = target.id
            elif isinstance(target, ast.Attribute):
                name = target.attr
            else:
                continue  # dynamic expression; not statically checkable
            if name in allowed:
                continue
            if self._looks_like_exception(name):
                yield self.violation(
                    ctx,
                    node,
                    f"raising {name}; raise a type from repro.core.errors "
                    "so callers can rely on the ReproError hierarchy",
                )

    @staticmethod
    def _looks_like_exception(name: str) -> bool:
        builtin = getattr(builtins, name, None)
        if isinstance(builtin, type) and issubclass(builtin, BaseException):
            return True
        return name.endswith(("Error", "Exception"))


@register
class AllocationPairingRule(Rule):
    """ALLOC001: modules that allocate buddy segments must also free them.

    Every ``allocate(...)`` call site must have a reachable ``free(...)``
    path in the same module; an allocate-only module is an orphan
    allocation — exactly the leak pattern ``repro.core.fsck`` detects at
    runtime, caught here before it ships.
    """

    rule_id = "ALLOC001"
    summary = "every allocate() call site needs a reachable free() in its module"

    _free_names = frozenset({"free", "free_range", "deallocate"})

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        allocates: list[ast.Call] = []
        has_free = False
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            attr = None
            if isinstance(func, ast.Attribute):
                attr = func.attr
            elif isinstance(func, ast.Name):
                attr = func.id
            if attr == "allocate":
                allocates.append(node)
            elif attr in self._free_names:
                has_free = True
        if allocates and not has_free:
            for call in allocates:
                yield self.violation(
                    ctx,
                    call,
                    "allocate() without any free() path in this module; "
                    "orphan allocations leak pages the fsck leak check will "
                    "flag at runtime",
                )


@register
class MutableStateRule(Rule):
    """MUT001: no mutable default arguments or module-level mutable state.

    Mutable defaults are shared across calls; module-level mutable
    containers are shared across :class:`StorageEnvironment` instances and
    break the "one environment, one cost ledger" isolation the experiments
    assume.  Uppercase constants and dunders (``__all__``) are exempt by
    convention.
    """

    rule_id = "MUT001"
    summary = "no mutable default arguments or module-level mutable state"

    _mutable_calls = frozenset({"list", "dict", "set", "bytearray", "defaultdict"})

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                defaults = list(node.args.defaults)
                defaults.extend(d for d in node.args.kw_defaults if d is not None)
                for default in defaults:
                    if self._is_mutable(default):
                        name = getattr(node, "name", "<lambda>")
                        yield self.violation(
                            ctx,
                            default,
                            f"mutable default argument in {name}(); default "
                            "to None and build the container in the body",
                        )
        for stmt in ctx.tree.body:
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            if value is None or not self._is_mutable(value):
                continue
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                name = target.id
                if name.startswith("__") or name == name.upper():
                    continue  # dunder or constant-by-convention
                yield self.violation(
                    ctx,
                    stmt,
                    f"module-level mutable state {name!r}; module globals are "
                    "shared across StorageEnvironment instances",
                )

    def _is_mutable(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.SetComp, ast.DictComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in self._mutable_calls
        return False


@register
class DocAnnotationRule(Rule):
    """DOC001: public Manager/Allocator methods are documented and typed.

    The managers are the paper-facing API surface: each override states
    *which* algorithm of the paper it implements (Sections 3.2-3.5), so a
    missing docstring loses the paper cross-reference, and missing
    annotations break the strict-mypy gate on the core packages.
    """

    rule_id = "DOC001"
    summary = (
        "public Manager/Allocator methods need docstrings and full type "
        "annotations"
    )

    _class_suffixes = ("Manager", "Allocator")

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for cls in ast.walk(ctx.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            if not cls.name.endswith(self._class_suffixes):
                continue
            for fn in cls.body:
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if fn.name.startswith("_"):
                    continue
                label = f"{cls.name}.{fn.name}"
                if ast.get_docstring(fn) is None:
                    yield self.violation(
                        ctx, fn, f"public method {label} has no docstring"
                    )
                args = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
                missing = [
                    a.arg
                    for a in args
                    if a.arg not in ("self", "cls") and a.annotation is None
                ]
                for extra in (fn.args.vararg, fn.args.kwarg):
                    if extra is not None and extra.annotation is None:
                        missing.append(extra.arg)
                if missing:
                    yield self.violation(
                        ctx,
                        fn,
                        f"{label} is missing parameter annotations: "
                        f"{', '.join(missing)}",
                    )
                if fn.returns is None:
                    yield self.violation(
                        ctx, fn, f"{label} is missing a return annotation"
                    )


@register
class PureReadContractRule(Rule):
    """INV001: ``@pure_read`` methods must not mutate the disk.

    Methods decorated with :func:`repro.lint.contracts.pure_read` promise
    to leave the simulated disk untouched: no ``write_pages`` /
    ``poke_pages`` / ``discard_pages`` calls, no ``charge_write``, and no
    assignment through a ``disk`` attribute.  The same contract asserts at
    runtime under ``REPRO_CHECKS=1``; this rule proves it statically.  It
    is scoped by a decorator, not by a path, so it is not a seam.
    """

    rule_id = "INV001"
    summary = "@pure_read methods must be pure-read on the disk"

    _mutators = frozenset(
        {"write_pages", "poke_pages", "discard_pages", "charge_write"}
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for fn in ast.walk(ctx.tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not self._has_pure_read_decorator(fn):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and isinstance(
                    node.func, ast.Attribute
                ):
                    if node.func.attr in self._mutators:
                        yield self.violation(
                            ctx,
                            node,
                            f"@pure_read method {fn.name} calls "
                            f"{node.func.attr}(), which mutates the disk",
                        )
                elif isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    for target in targets:
                        chain = _attribute_chain(target)
                        if "disk" in chain[:-1]:
                            yield self.violation(
                                ctx,
                                node,
                                f"@pure_read method {fn.name} assigns to "
                                f"{'.'.join(chain)}",
                            )

    @staticmethod
    def _has_pure_read_decorator(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
        for decorator in fn.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            name = None
            if isinstance(target, ast.Name):
                name = target.id
            elif isinstance(target, ast.Attribute):
                name = target.attr
            if name == "pure_read":
                return True
        return False


@register
class FaultHandlingRule(Rule):
    """FAULT001: crash/fault exceptions propagate to the fault layers.

    :class:`~repro.core.errors.CrashError` means the simulated machine
    died; :class:`~repro.core.errors.IOFaultError` means the device
    failed past its bounded retry budget.  Both are *verdicts*, not
    conditions to handle: a ``except CrashError`` buried in a manager —
    or a broad ``except Exception`` / ``except ReproError`` / bare
    ``except`` that swallows them incidentally — would absorb an injected
    crash mid-operation and invalidate every guarantee the crash sweep
    (:func:`repro.recovery.sweep.sweep`) verifies.  Only the fault-injection and
    recovery layers (``repro.faults``, ``repro.recovery``) may catch
    them.  Handlers that re-raise with a bare ``raise`` are exempt
    (cleanup-and-propagate), as are sites suppressed with
    ``# repro-lint: disable=FAULT001`` (none are live).  The
    bare-``raise`` exemption is why this is a
    visitor and not a row of :data:`SEAMS`: the verdict depends on the
    handler body, not only on the path.
    """

    rule_id = "FAULT001"
    summary = (
        "only repro.faults / repro.recovery may catch CrashError, "
        "IOFaultError, or exception types broad enough to swallow them"
    )

    _fault_names = frozenset({"CrashError", "IOFaultError"})
    _broad_names = frozenset({"Exception", "BaseException", "ReproError"})
    _allowed_layers = frozenset({"faults", "recovery"})

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if ctx.layer in self._allowed_layers:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if self._reraises(node):
                continue
            named, broad = self._classify(node.type)
            if named:
                yield self.violation(
                    ctx,
                    node,
                    f"catching {', '.join(sorted(named))} outside the "
                    "fault/recovery layers; injected faults must "
                    "propagate (or re-raise with a bare `raise`)",
                )
            elif broad:
                yield self.violation(
                    ctx,
                    node,
                    f"broad `except {broad}` can swallow an injected "
                    "CrashError/IOFaultError; catch the specific "
                    "expected types or re-raise with a bare `raise`",
                )

    def _classify(
        self, spec: ast.expr | None
    ) -> tuple[set[str], str | None]:
        """(fault types caught by name, broad-catch description or None)."""
        if spec is None:
            return set(), "<bare>"
        names = set()
        exprs = spec.elts if isinstance(spec, ast.Tuple) else [spec]
        for expr in exprs:
            if isinstance(expr, ast.Name):
                names.add(expr.id)
            elif isinstance(expr, ast.Attribute):
                names.add(expr.attr)
        broad = names & self._broad_names
        return names & self._fault_names, (
            ", ".join(sorted(broad)) if broad else None
        )

    @staticmethod
    def _reraises(handler: ast.ExceptHandler) -> bool:
        """True when the handler body re-raises the caught exception."""
        return any(
            isinstance(child, ast.Raise) and child.exc is None
            for child in ast.walk(handler)
        )


# ----------------------------------------------------------------------
# The seam table: pattern X may appear only where P allows, because R
# ----------------------------------------------------------------------
#: Whether a seam's pattern is allowed in the file at a ``/``-rooted path.
Scope = Callable[[str], bool]


def under(*fragments: str) -> Scope:
    """Allowed in files whose path holds a fragment (``"repro/disk/"``,
    ``"cli.py"``) from a component boundary on; ``under()``: nowhere."""
    needles = tuple(f"/{fragment}" for fragment in fragments)
    return lambda path: any(needle in path for needle in needles)


def outside(*fragments: str) -> Scope:
    """Allowed everywhere except where ``under(*fragments)`` would be."""
    inside = under(*fragments)
    return lambda path: not inside(path)


@dataclasses.dataclass(frozen=True)
class Seam(Rule):
    """One row of :data:`SEAMS`; its ``reason`` is the violation message."""

    rule_id: str
    summary: str
    match: Callable[[ast.AST], bool]
    allowed: Scope
    reason: str

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        return check_seams(ctx, [self])


def check_seams(ctx: FileContext, seams: Iterable[Seam]) -> Iterator[Violation]:
    """Every violation of ``seams`` in ``ctx``, from one walk of its tree."""
    path = "/" + ctx.path.as_posix()
    live = [seam for seam in seams if not seam.allowed(path)]
    if not live:
        return
    for node in ast.walk(ctx.tree):
        for seam in live:
            if seam.match(node):
                yield seam.violation(ctx, node, seam.reason)


def _name_of(node: ast.AST) -> str:
    """The last name of a dotted expression (``self.env.disk`` -> ``disk``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def _call_of(node: ast.AST) -> tuple[str, str]:
    """``(receiver, name)`` of a call: ``("disk", "read_pages")`` for
    ``self.disk.read_pages(...)``, ``("", "print")`` for ``print(...)``."""
    if not isinstance(node, ast.Call):
        return ("", "")
    if isinstance(node.func, ast.Attribute):
        return (_name_of(node.func.value), node.func.attr)
    return ("", _name_of(node.func))


def _written(node: ast.AST) -> bool:
    """True for an assignment or ``del`` target."""
    return isinstance(getattr(node, "ctx", None), (ast.Store, ast.Del))


def _private_of(owner: str) -> Callable[[ast.AST], bool]:
    """Matches ``<...>owner._name``: a reach into ``owner``'s private state."""
    return lambda node: (
        isinstance(node, ast.Attribute)
        and node.attr[:1] == "_"
        and "a" <= node.attr[1:2] <= "z"
        and _name_of(node.value).endswith(owner)
    )


def _payload_bytes(node: ast.AST) -> bool:
    if isinstance(node, ast.Call):
        return bool(node.args) and _call_of(node) in (("", "bytes"),
                                                      ("", "bytearray"))
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Mult)
        and any(
            isinstance(side, ast.Constant) and isinstance(side.value, bytes)
            for side in (node.left, node.right)
        )
    )


#: module -> its calls that read a clock, entropy or directory order.
_SOURCES = {
    "time": {"time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
             "perf_counter_ns"},
    "os": {"listdir", "scandir", "walk", "urandom"},
    "uuid": {"uuid1", "uuid4"},
}


def _nondeterministic(node: ast.AST) -> bool:
    module, name = _call_of(node)
    if module in ("random", "glob", "secrets"):  # all but random.Random(seed)
        return name != "Random"
    return name in _SOURCES.get(module, ())


def _node_array_write(node: ast.AST) -> bool:
    target = node
    if isinstance(node, ast.Subscript) and _written(node):
        target = node.value
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr not in ("append", "insert", "pop", "extend",
                                  "clear", "remove", "sort", "reverse"):
            return False
        target = node.func.value
    elif not _written(node):
        return False
    return isinstance(target, ast.Attribute) and target.attr in (
        "cums", "refs", "allocs"
    )


_CLI = under("cli.py", "__main__.py")

#: The seams: id, summary, pattern, where it is allowed, and why (the
#: message of every violation).
SEAMS: tuple[Seam, ...] = (
    Seam(
        "LAY001", "Disk.read_pages/write_pages only in buffer/, segio/, disk/",
        lambda node: _call_of(node) in (("disk", "read_pages"),
                                        ("disk", "write_pages")),
        under("repro/buffer/", "repro/segio/", "repro/disk/"),
        "raw disk I/O above the pool skips hit accounting and cache refresh "
        "and skews the Section 4.1 counts; go through BufferPool or SegmentIO",
    ),
    Seam(
        "PHANT001", "no bytes(n)/bytearray(n)/b'..' * n in experiments/, "
        "workload/",
        _payload_bytes,
        outside("repro/experiments/", "repro/workload/"),
        "these layers drive phantom stores, which discard page content; "
        "pass SizedPayload(n) (or suppress where real content is needed)",
    ),
    Seam(
        "OBS001", "print() only in CLI entry points (cli.py, __main__.py)",
        lambda node: _call_of(node) == ("", "print"),
        _CLI,
        "a print is invisible to repro.obs and corrupts machine-read "
        "output; emit an event or return the text",
    ),
    Seam(
        "DET002", "clocks, unseeded random, listings, uuid, secrets only in "
        "CLI entry points",
        _nondeterministic,
        _CLI,
        "reports must be pure functions of the workload on every run; "
        "use a seeded random.Random or a logical clock",
    ),
    Seam(
        "SEAM001", "disk._private only in repro/disk/ and tests/test_disk.py",
        _private_of("disk"),
        under("repro/disk/", "tests/test_disk.py"),
        "the device is used through its methods (image(), pages_in_use, "
        "...), so its representation can change alone",
    ),
    Seam(
        "SEAM002", "index-node cums/refs/allocs written only in tree/node.py",
        _node_array_write,
        under("repro/tree/node.py"),
        "only the node's mutators keep its prefix sums and packed-image "
        "watermark in step with the arrays",
    ),
    Seam(
        "SEAM003", "no assignment to extent.page_id/used_bytes/alloc_pages",
        lambda node: (
            isinstance(node, ast.Attribute)
            and _written(node)
            and node.attr in ("page_id", "used_bytes", "alloc_pages")
            and _name_of(node.value).endswith("extent")
        ),
        under(),
        "a leaf extent is an immutable value minted from the node's "
        "columns; mint a new one",
    ),
    Seam(
        "SEAM004", "no struct.pack() with an f-string format",
        lambda node: (
            isinstance(node, ast.Call)
            and _call_of(node) == ("struct", "pack")
            and bool(node.args)
            and isinstance(node.args[0], ast.JoinedStr)
        ),
        under(),
        "a format built per call is how the per-pair varargs pack comes "
        "back into index serialization; use a precompiled Struct",
    ),
    Seam(
        "SEAM005", "pool._private only in repro/buffer/ and "
        "tests/test_buffer_pool.py",
        _private_of("pool"),
        under("repro/buffer/", "tests/test_buffer_pool.py"),
        "callers see the pool through public calls (resident_image, "
        "frames(), ...), never its frame table",
    ),
    Seam(
        "SEAM006", "manager._private only in the manager packages",
        _private_of("manager"),
        under("repro/core/manager.py", "repro/tree/", "repro/esm/",
              "repro/eos/", "repro/starburst/", "repro/blockbased/",
              "tests/test_blockbased_manager.py", "tests/test_san.py"),
        "a manager's state is rebuilt from disk through reload() and "
        "image_extents(), so a new representation is added in one package",
    ),
)
RULES.update((seam.rule_id, seam) for seam in SEAMS)
