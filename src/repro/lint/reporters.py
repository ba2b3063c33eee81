"""Render lint results as text or JSON."""

from __future__ import annotations

import json

from repro.lint.engine import Violation
from repro.lint.rules import RULES


def render_text(violations: list[Violation]) -> str:
    """Conventional ``file:line:col: ID message`` lines plus a summary."""
    if not violations:
        return "repro.lint: clean"
    lines = [v.format() for v in violations]
    by_rule: dict[str, int] = {}
    for violation in violations:
        by_rule[violation.rule_id] = by_rule.get(violation.rule_id, 0) + 1
    breakdown = ", ".join(f"{rule} x{n}" for rule, n in sorted(by_rule.items()))
    lines.append(f"repro.lint: {len(violations)} violation(s) ({breakdown})")
    return "\n".join(lines)


def render_json(violations: list[Violation]) -> str:
    """Machine-readable report (one object, stable key order)."""
    return json.dumps(
        {
            "violations": [v.to_dict() for v in violations],
            "count": len(violations),
        },
        indent=2,
        sort_keys=True,
    )


def render_rule_list() -> str:
    """One line per registered rule: id and summary."""
    return "\n".join(
        f"{rule_id}  {rule.summary}" for rule_id, rule in RULES.items()
    )
