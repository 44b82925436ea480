"""RPL004 — the lease phase moves only through the transition table.

The client lease walks the four phases of paper Fig. 4 (valid →
renewal → suspect → flush, then expiry), with the only backward edge
being a renewal pulling the client back to full service.  Storing a
phase by plain assignment invites states the figure does not have, so
any write to a ``phase`` / ``lease_phase`` attribute must route through
``repro.lease.phases.transition`` (the table that rejects illegal
edges); the table module itself is the one place allowed to assign
freely.
"""

from __future__ import annotations

import ast
from typing import Iterator, Sequence

from typing import TYPE_CHECKING

from repro.lint.rules import Rule, Violation, rule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.lint.engine import FileContext

_PHASE_ATTRS = {"phase", "lease_phase"}
_TABLE_MODULE = "src/repro/lease/phases.py"
_TRANSITION_FN = "transition"


@rule
class PhaseDisciplineRule(Rule):
    """Allow phase-attribute writes only via ``phases.transition``."""

    code = "RPL004"
    name = "four-phase-discipline"
    description = ("lease phase attributes may only be assigned via "
                   "repro.lease.phases.transition()")
    paper_ref = "the four-phase client lease interval (Fig. 4, §3.2)"
    scope = None  # everywhere the engine looks

    def check(self, ctx: "FileContext") -> Iterator[Violation]:
        """Yield violations for phase assignments outside the table."""
        if ctx.path.endswith(_TABLE_MODULE):
            return

        for node in ast.walk(ctx.tree):
            targets: Sequence[ast.expr]
            value: ast.expr
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            elif isinstance(node, ast.AugAssign):
                targets, value = [node.target], node.value
            else:
                continue
            phase_targets = [t for t in targets
                             if isinstance(t, ast.Attribute)
                             and t.attr in _PHASE_ATTRS]
            if not phase_targets:
                continue
            if isinstance(node, ast.AugAssign):
                yield Violation(
                    self.code,
                    "augmented assignment to a lease phase attribute — "
                    "phases are not arithmetic; use phases.transition()",
                    ctx.path, node.lineno, node.col_offset)
                continue
            if self._is_transition_call(value):
                continue
            tgt = ast.unparse(phase_targets[0])
            yield Violation(
                self.code,
                f"direct assignment to `{tgt}` — the lease phase may only "
                f"change through repro.lease.phases.transition() (Fig. 4)",
                ctx.path, node.lineno, node.col_offset)

    @staticmethod
    def _is_transition_call(value: ast.expr) -> bool:
        if not isinstance(value, ast.Call):
            return False
        fn = value.func
        name = fn.id if isinstance(fn, ast.Name) else (
            fn.attr if isinstance(fn, ast.Attribute) else None)
        return name == _TRANSITION_FN
