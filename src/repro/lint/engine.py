"""Linting engine: file discovery, suppression comments, rule dispatch.

The engine parses each Python file once, builds a :class:`FileContext`
(AST, source lines, suppression table, parent links), runs every
registered rule over it -- the rows of the seam table in one shared walk
-- and filters the resulting :class:`Violation` list through the
suppression table.
"""

from __future__ import annotations

import ast
import dataclasses
import pathlib
import re
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:
    from repro.lint.rules import Rule, Seam

#: ``# repro-lint: disable=LAY001`` (same line) or
#: ``# repro-lint: disable-file=LAY001`` (anywhere in the file).
_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*(?P<scope>disable|disable-file)\s*=\s*"
    r"(?P<rules>[A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*|all)"
)


@dataclasses.dataclass(frozen=True, order=True)
class Violation:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str

    def format(self) -> str:
        """Render as the conventional ``file:line:col: ID message`` line."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"

    def to_dict(self) -> dict[str, object]:
        """JSON-ready representation."""
        return dataclasses.asdict(self)


class FileContext:
    """Everything a rule needs to know about one parsed source file."""

    def __init__(self, path: pathlib.Path, source: str) -> None:
        self.path = path
        self.display_path = str(path)
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=str(path))
        self.package_parts = _package_parts(path)
        self._line_suppressions: dict[int, set[str]] = {}
        self._file_suppressions: set[str] = set()
        self._collect_suppressions()

    @property
    def layer(self) -> str | None:
        """Subpackage name under ``repro`` ("buffer", "segio", ...).

        ``None`` for modules that live directly under ``repro/`` or outside
        the package entirely.
        """
        parts = self.package_parts
        if len(parts) >= 3 and parts[0] == "repro":
            return parts[1]
        return None

    @property
    def package_path(self) -> str:
        """Path relative to the package root, e.g. ``repro/buffer/pool.py``."""
        return "/".join(self.package_parts) if self.package_parts else self.path.name

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        """True when the violation at ``line`` is silenced by a comment."""
        if rule_id in self._file_suppressions or "all" in self._file_suppressions:
            return True
        rules = self._line_suppressions.get(line, set())
        return rule_id in rules or "all" in rules

    def _collect_suppressions(self) -> None:
        for lineno, text in enumerate(self.lines, start=1):
            match = _SUPPRESS_RE.search(text)
            if match is None:
                continue
            rules = {r.strip() for r in match.group("rules").split(",")}
            if match.group("scope") == "disable-file":
                self._file_suppressions |= rules
            else:
                self._line_suppressions.setdefault(lineno, set()).update(rules)


def _package_parts(path: pathlib.Path) -> tuple[str, ...]:
    """Path components starting at the ``repro`` package, if present."""
    parts = path.parts
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            return parts[index:]
    return (path.name,)


def iter_python_files(paths: Iterable[pathlib.Path]) -> Iterator[pathlib.Path]:
    """Expand files and directories into a sorted stream of ``*.py`` files."""
    seen: set[pathlib.Path] = set()
    for path in paths:
        if path.is_dir():
            candidates: Iterable[pathlib.Path] = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            if candidate not in seen:
                seen.add(candidate)
                yield candidate


def lint_file(
    path: pathlib.Path, rules: Iterable[Rule | Seam] | None = None
) -> list[Violation]:
    """Lint one file; returns unsuppressed violations sorted by location."""
    from repro.lint.rules import Seam, active_rules, check_seams

    source = path.read_text(encoding="utf-8")
    try:
        ctx = FileContext(path, source)
    except SyntaxError as exc:
        return [
            Violation(
                path=str(path),
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                rule_id="SYN000",
                message=f"file does not parse: {exc.msg}",
            )
        ]
    rules = list(rules if rules is not None else active_rules())
    # The seam rows share one walk of the tree; each visitor walks alone.
    found = list(check_seams(ctx, [r for r in rules if isinstance(r, Seam)]))
    for rule in rules:
        if not isinstance(rule, Seam):
            found.extend(rule.check(ctx))
    return sorted(
        v for v in found if not ctx.is_suppressed(v.rule_id, v.line)
    )


def lint_paths(
    paths: Iterable[pathlib.Path],
    select: set[str] | None = None,
    ignore: set[str] | None = None,
) -> list[Violation]:
    """Lint files and directories with the registered rule set."""
    from repro.lint.rules import active_rules

    rules = [
        rule
        for rule in active_rules()
        if (select is None or rule.rule_id in select)
        and (ignore is None or rule.rule_id not in ignore)
    ]
    violations: list[Violation] = []
    for path in iter_python_files(paths):
        violations.extend(lint_file(path, rules))
    return violations
