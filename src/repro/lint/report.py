"""Reporters: render a :class:`~repro.lint.engine.LintResult`."""

from __future__ import annotations

import json
from typing import Dict

from repro.lint.engine import LintResult
from repro.lint.rules import RULES

FORMAT_VERSION = "repro-lint/1.0"


def render_text(result: LintResult, statistics: bool = False) -> str:
    """The human-facing report: one line per finding plus a summary."""
    lines = [v.format() for v in result.violations]
    lines.extend(f"error: {err}" for err in result.errors)
    if statistics and result.violations:
        lines.append("")
        for code, count in result.counts.items():
            r = RULES.get(code)
            label = f" ({r.name})" if r is not None else ""
            lines.append(f"{count:5d}  {code}{label}")
    if lines:
        lines.append("")
    lines.append(f"checked {result.files_checked} file(s): "
                 f"{len(result.violations)} violation(s)"
                 + (f", {len(result.errors)} error(s)" if result.errors else ""))
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    """Machine-readable report for CI and tooling."""
    doc: Dict[str, object] = {
        "version": FORMAT_VERSION,
        "files_checked": result.files_checked,
        "counts": result.counts,
        "violations": [v.to_json() for v in result.violations],
        "errors": list(result.errors),
        "ok": result.ok,
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def render_rule_list() -> str:
    """``--list-rules`` output: code, name, scope and the paper claim."""
    lines = []
    for code in sorted(RULES):
        r = RULES[code]
        scope = ", ".join(r.scope) if r.scope else "(all paths)"
        lines.append(f"{code}  {r.name}")
        lines.append(f"       {r.description}")
        lines.append(f"       guards: {r.paper_ref}")
        lines.append(f"       scope: {scope}")
    return "\n".join(lines)
