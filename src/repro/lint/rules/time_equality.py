"""RPL005 — no ``==`` / ``!=`` on float simulation-time expressions.

Simulation times are floats built from clock-rate multiplications and
divisions; exact equality on them encodes an accident of rounding, not a
protocol fact (a lease that "expires exactly now" is one ULP away from
not having expired).  Time comparisons must be ordered (``<``/``>=``)
or tolerance-based.  The rule recognises time expressions by shape:
``sim.now`` / ``now``-suffixed reads, names and attributes ending in
``_time`` / ``_local`` / ``_at`` / ``_deadline``, time-typed identifiers
(``deadline``, ``expiry``, ``elapsed``, ...) and the clock/contract
read methods (``local_now()``, ``client_expiry_local()``, ...).
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Optional

from typing import TYPE_CHECKING

from repro.lint.rules import Rule, Violation, rule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.lint.engine import FileContext

#: Identifier (name or attribute) shapes that denote a time value.
_TIME_IDENT = re.compile(
    r"(^|_)(now|time|deadline|expiry|elapsed)$"
    r"|_(time|local|at|deadline)$"
    r"|^(t[0-9]+)$")

#: Zero-argument-ish method reads that produce a local-time float.
_TIME_CALLS = {"local_now", "local_time", "global_time", "expiry_local",
               "client_expiry_local", "server_wait_local",
               "phase_start_local", "to_global_interval",
               "to_local_interval"}


def _is_time_expr(node: ast.expr) -> bool:
    if isinstance(node, ast.Name):
        return bool(_TIME_IDENT.search(node.id))
    if isinstance(node, ast.Attribute):
        return bool(_TIME_IDENT.search(node.attr))
    if isinstance(node, ast.Call):
        fn = node.func
        name = fn.attr if isinstance(fn, ast.Attribute) else (
            fn.id if isinstance(fn, ast.Name) else None)
        return name in _TIME_CALLS
    if isinstance(node, ast.BinOp):
        return _is_time_expr(node.left) or _is_time_expr(node.right)
    if isinstance(node, ast.UnaryOp):
        return _is_time_expr(node.operand)
    return False


@rule
class TimeEqualityRule(Rule):
    """Forbid ``==``/``!=`` between float simulation-time expressions."""

    code = "RPL005"
    name = "float-time-equality"
    description = "no ==/!= between float simulation-time expressions"
    paper_ref = ("lease expiry is an ordered comparison on local clocks "
                 "(Fig. 3); exact float equality is never protocol-meaningful")
    scope = ["src/repro"]

    def check(self, ctx: "FileContext") -> Iterator[Violation]:
        """Yield a violation per exact-equality comparison on times."""
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for i, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                left, right = operands[i], operands[i + 1]
                if self._exempt(left) or self._exempt(right):
                    continue
                if _is_time_expr(left) or _is_time_expr(right):
                    sym = "==" if isinstance(op, ast.Eq) else "!="
                    yield Violation(
                        self.code,
                        f"`{sym}` on a simulation-time expression "
                        f"(`{ast.unparse(left)} {sym} {ast.unparse(right)}`) "
                        f"— compare times with ordering or a tolerance",
                        ctx.path, node.lineno, node.col_offset)

    @staticmethod
    def _exempt(node: ast.expr) -> bool:
        """Operand shapes that make the comparison non-float: ``None``
        sentinels and integer literals used as 'unset' markers."""
        if isinstance(node, ast.Constant):
            return node.value is None or isinstance(node.value, (bool, int, str))
        return False
