"""RPL007 — no mutable default arguments.

A ``def f(xs=[])`` default is one shared object across every call; in a
simulator whose runs must be independent and bit-reproducible, state
leaking between scenario invocations through a default list/dict/set is
a determinism bug as much as a style bug (it is how "works alone, fails
in the suite" happens).  Use ``None`` and materialise inside the body,
or a ``dataclasses.field(default_factory=...)``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from typing import TYPE_CHECKING

from repro.lint.rules import Rule, Violation, rule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.lint.engine import FileContext

_MUTABLE_CALLS = {"list", "dict", "set", "bytearray", "defaultdict",
                  "OrderedDict", "Counter", "deque"}


def _is_mutable_literal(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        fn = node.func
        name = fn.id if isinstance(fn, ast.Name) else (
            fn.attr if isinstance(fn, ast.Attribute) else None)
        return name in _MUTABLE_CALLS
    return False


@rule
class MutableDefaultRule(Rule):
    """Forbid mutable default argument values."""

    code = "RPL007"
    name = "mutable-default-argument"
    description = "no list/dict/set (or constructor) default argument values"
    paper_ref = ("shared defaults leak state across scenario runs and break "
                 "run-to-run reproducibility")
    scope = None

    def check(self, ctx: "FileContext") -> Iterator[Violation]:
        """Yield a violation per mutable default argument."""
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults)
            defaults += [d for d in node.args.kw_defaults if d is not None]
            for default in defaults:
                if _is_mutable_literal(default):
                    yield Violation(
                        self.code,
                        f"mutable default argument "
                        f"`{ast.unparse(default)}` in {node.name}() — use "
                        f"None (or field(default_factory=...)) instead",
                        ctx.path, default.lineno, default.col_offset)
