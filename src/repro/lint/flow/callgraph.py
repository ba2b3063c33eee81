"""Cross-module call graph over the analyzed tree.

The :class:`Program` indexes every parsed file (reusing the engine's
:class:`~repro.lint.engine.FileContext`, so suppression tables and layer
information come along for free) and resolves call sites with a
class-hierarchy-aware strategy:

* ``name(...)`` — the caller's module, then its ``from x import name``
  bindings;
* ``self.method(...)`` — the caller's class and its (syntactically
  resolved) base classes, falling back to every class in the program that
  defines ``method``;
* ``anything.method(...)`` — name-based (CHA-style): every known class
  defining ``method``, plus ``module.func`` when ``anything`` is an
  imported module.

Name-based fallback over-approximates — safe for the reachability
question asked here (FLOW002's mutation-in-cleanup), where a missed edge
would silence a real violation but a spurious edge at worst asks for an
explicit suppression.
"""

from __future__ import annotations

import ast
import pathlib
from typing import Iterable

from repro.lint.engine import FileContext, iter_python_files

FuncNode = ast.FunctionDef | ast.AsyncFunctionDef

#: Method names so generic (dict/list/str/set protocol) that name-based
#: fallback would wire unrelated classes together — ``frames.get(...)``
#: is a dict lookup, not a call into every class defining ``get``.
#: Excluded from CHA fallback; explicit ``self.``/import resolution for
#: these still works.
_GENERIC_METHOD_NAMES = frozenset({
    "get", "pop", "items", "keys", "values", "append", "extend", "add",
    "discard", "remove", "clear", "update", "setdefault", "copy", "join",
    "split", "strip", "format", "encode", "decode",
    "close", "sort", "index", "count",
})


def _attribute_chain(node: ast.expr) -> list[str]:
    """Dotted parts of an attribute expression (see ``repro.lint.rules``)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return []


class FunctionInfo:
    """One function or method definition in the program."""

    __slots__ = ("qualname", "module", "cls", "name", "node", "ctx")

    def __init__(self, qualname: str, module: str, cls: str | None,
                 name: str, node: FuncNode, ctx: FileContext) -> None:
        self.qualname = qualname
        self.module = module
        self.cls = cls
        self.name = name
        self.node = node
        self.ctx = ctx


class ClassInfo:
    """One class definition: its base names and methods."""

    __slots__ = ("module", "name", "bases", "methods")

    def __init__(self, module: str, name: str, bases: list[str]) -> None:
        self.module = module
        self.name = name
        self.bases = bases
        self.methods: dict[str, FunctionInfo] = {}


class Program:
    """Whole-program index: files, functions, classes, and call edges."""

    def __init__(self, contexts: Iterable[FileContext]) -> None:
        self.contexts: list[FileContext] = list(contexts)
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[tuple[str, str], ClassInfo] = {}
        self._by_method_name: dict[str, list[str]] = {}
        self._module_funcs: dict[tuple[str, str], str] = {}
        #: module -> imported name -> dotted source ("pkg.mod" for module
        #: imports, "pkg.mod.attr" for from-imports).
        self._imports: dict[str, dict[str, str]] = {}
        for ctx in self.contexts:
            self._index_file(ctx)
        self._edges: dict[str, frozenset[str]] | None = None

    @classmethod
    def from_paths(cls, paths: Iterable[pathlib.Path]) -> "Program":
        """Parse and index every ``*.py`` file under ``paths``.

        Files that fail to parse are skipped here; the per-file engine
        already reports them as SYN000.
        """
        contexts = []
        for path in iter_python_files(paths):
            try:
                contexts.append(
                    FileContext(path, path.read_text(encoding="utf-8"))
                )
            except SyntaxError:
                continue
        return cls(contexts)

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------
    @staticmethod
    def module_name(ctx: FileContext) -> str:
        """Dotted module name, derived from the ``repro`` package root."""
        parts = list(ctx.package_parts)
        if parts and parts[-1].endswith(".py"):
            parts[-1] = parts[-1][:-3]
        if parts and parts[-1] == "__init__":
            parts = parts[:-1]
        return ".".join(parts) if parts else ctx.path.stem

    def _index_file(self, ctx: FileContext) -> None:
        module = self.module_name(ctx)
        imports: dict[str, str] = {}
        self._imports[module] = imports
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imports[alias.asname or alias.name.split(".")[0]] = (
                        alias.name
                    )
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    imports[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )
        for stmt in ctx.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(module, None, stmt, ctx)
            elif isinstance(stmt, ast.ClassDef):
                bases = []
                for base in stmt.bases:
                    chain = _attribute_chain(base)
                    if chain:
                        bases.append(chain[-1])
                info = ClassInfo(module, stmt.name, bases)
                self.classes[(module, stmt.name)] = info
                for member in stmt.body:
                    if isinstance(member, (ast.FunctionDef,
                                           ast.AsyncFunctionDef)):
                        fn = self._add_function(module, stmt.name, member, ctx)
                        info.methods[member.name] = fn

    def _add_function(self, module: str, cls: str | None, node: FuncNode,
                      ctx: FileContext) -> FunctionInfo:
        qualname = (
            f"{module}.{cls}.{node.name}" if cls else f"{module}.{node.name}"
        )
        info = FunctionInfo(qualname, module, cls, node.name, node, ctx)
        self.functions[qualname] = info
        if cls is not None:
            self._by_method_name.setdefault(node.name, []).append(qualname)
        else:
            self._module_funcs[(module, node.name)] = qualname
        return info

    # ------------------------------------------------------------------
    # Class hierarchy
    # ------------------------------------------------------------------
    def _class_by_name(self, name: str) -> list[ClassInfo]:
        return [c for (_, n), c in self.classes.items() if n == name]

    def resolve_method(self, module: str, cls_name: str,
                       method: str) -> FunctionInfo | None:
        """Look up ``method`` on the class or its (syntactic) bases."""
        seen: set[tuple[str, str]] = set()
        stack = [(module, cls_name)]
        while stack:
            key = stack.pop(0)
            if key in seen:
                continue
            seen.add(key)
            info = self.classes.get(key)
            if info is None:
                # Base defined in another module: match by name anywhere.
                candidates = self._class_by_name(key[1])
                if not candidates:
                    continue
                info = candidates[0]
                seen.add((info.module, info.name))
            if method in info.methods:
                return info.methods[method]
            stack.extend((info.module, base) for base in info.bases)
        return None

    # ------------------------------------------------------------------
    # Call resolution
    # ------------------------------------------------------------------
    def resolve_call(self, caller: FunctionInfo,
                     call: ast.Call) -> list[str]:
        """Possible callee qualnames for one call site."""
        func = call.func
        if isinstance(func, ast.Name):
            local = self._module_funcs.get((caller.module, func.id))
            if local is not None:
                return [local]
            imported = self._imports.get(caller.module, {}).get(func.id)
            if imported is not None and imported in self.functions:
                return [imported]
            # Class constructor: Name(...) resolves to Class.__init__.
            for info in self._class_by_name(func.id):
                init = info.methods.get("__init__")
                if init is not None:
                    return [init.qualname]
            return []
        if not isinstance(func, ast.Attribute):
            return []
        chain = _attribute_chain(func)
        method = func.attr
        if chain and chain[0] == "self" and len(chain) == 2 and caller.cls:
            resolved = self.resolve_method(caller.module, caller.cls, method)
            if resolved is not None:
                return [resolved.qualname]
        if chain:
            # module.func(...) through an import binding.
            imported = self._imports.get(caller.module, {}).get(chain[0])
            if imported is not None and len(chain) == 2:
                target = f"{imported}.{method}"
                if target in self.functions:
                    return [target]
        # Name-based fallback: every class defining the method, except
        # for generic container-protocol names (see module docstring).
        if method in _GENERIC_METHOD_NAMES:
            return []
        return list(self._by_method_name.get(method, ()))

    # ------------------------------------------------------------------
    # Reachability
    # ------------------------------------------------------------------
    def call_edges(self) -> dict[str, frozenset[str]]:
        """Resolved callee sets for every function, cached."""
        if self._edges is None:
            edges: dict[str, frozenset[str]] = {}
            for qualname, info in self.functions.items():
                callees: set[str] = set()
                for node in ast.walk(info.node):
                    if isinstance(node, ast.Call):
                        callees.update(self.resolve_call(info, node))
                edges[qualname] = frozenset(callees)
            self._edges = edges
        return self._edges

    def reaching(self, targets: set[str]) -> set[str]:
        """All functions from which any ``targets`` member is reachable
        (including the targets themselves)."""
        reverse: dict[str, set[str]] = {}
        for caller, callees in self.call_edges().items():
            for callee in callees:
                reverse.setdefault(callee, set()).add(caller)
        seen = set(targets)
        stack = list(targets)
        while stack:
            for caller in reverse.get(stack.pop(), ()):
                if caller not in seen:
                    seen.add(caller)
                    stack.append(caller)
        return seen
