"""RPL011: every namespace mutation runs inside the cache barrier.

The server keeps the in-network metadata cache tier coherent by
invalidating every cache node before it applies a namespace mutation
(DESIGN.md §15).  :meth:`repro.server.barrier.CacheBarrier.mutate` is
the one place that happens: it claims a barrier, invalidates, runs the
mutation body it was handed and releases the claim on every exit.  A
mutation applied anywhere else silently serves stale metadata from the
cache tier — exactly the staleness Theorem 3.1 rules out.

So the check is a syntactic choke point: every call to a namespace
mutator (``create_file``, ``unlink``, ``ensure_size``, ``set_attrs``)
must sit lexically inside a lambda passed to ``.mutate(...)``, or inside
a nested ``def`` whose name the function defining it passes to
``.mutate(...)``; and such a ``def`` is never also called directly.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator, Optional, Set, Tuple

from repro.lint.rules import Rule, Violation, rule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.lint.engine import FileContext

_MUTATORS = frozenset(("create_file", "unlink", "ensure_size", "set_attrs"))
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _callee(node: ast.Call) -> Optional[str]:
    """The called name of ``f(...)`` / ``x.f(...)``."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else None


def _handed_to_barrier(node: ast.AST) -> Iterator[ast.expr]:
    """Every argument of every ``.mutate(...)`` call under ``node``."""
    for call in ast.walk(node):
        if (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                and call.func.attr == "mutate"):
            yield from call.args
            yield from (kw.value for kw in call.keywords)


def _barrier_bodies(tree: ast.Module) -> Tuple[Set[ast.AST], Set[ast.AST]]:
    """The lambdas and nested defs handed to ``.mutate(...)``, and every
    call of such a def by name in the function that defines it (a body
    run directly bypasses the barrier it was written for)."""
    bodies: Set[ast.AST] = {a for a in _handed_to_barrier(tree)
                            if isinstance(a, ast.Lambda)}
    direct: Set[ast.AST] = set()
    for fn in ast.walk(tree):
        if isinstance(fn, _DEFS):
            passed = {a.id for a in _handed_to_barrier(fn)
                      if isinstance(a, ast.Name)}
            defs = [d for d in ast.walk(fn) if isinstance(d, _DEFS)
                    and d is not fn and d.name in passed]
            bodies.update(defs)
            names = {d.name for d in defs}
            direct.update(c for c in ast.walk(fn) if isinstance(c, ast.Call)
                          and isinstance(c.func, ast.Name)
                          and c.func.id in names)
    return bodies, direct


def _unguarded(node: ast.AST, bodies: Set[ast.AST],
               direct: Set[ast.AST]) -> Iterator[ast.Call]:
    """Mutator calls and direct body calls under ``node`` that no barrier
    body encloses."""
    for child in ast.iter_child_nodes(node):
        if child in bodies:
            continue
        if isinstance(child, ast.Call) and (_callee(child) in _MUTATORS
                                            or child in direct):
            yield child
        yield from _unguarded(child, bodies, direct)


@rule
class BarrierRule(Rule):
    """Flag namespace mutations applied outside ``CacheBarrier.mutate``."""

    code = "RPL011"
    name = "invalidate-before-apply"
    description = ("namespace mutations run only inside a body handed to "
                   "CacheBarrier.mutate(...)")
    paper_ref = ("SS4: metadata caches stay coherent only if every "
                 "mutation invalidates before it applies")
    scope = ["src/repro/server", "src/repro/netcache"]

    def check(self, ctx: "FileContext") -> Iterator[Violation]:
        """Yield a violation per mutator call outside every barrier body
        and per barrier body called directly."""
        bodies, direct = _barrier_bodies(ctx.tree)
        for call in _unguarded(ctx.tree, bodies, direct):
            if call in direct:
                what = f"barrier body '{_callee(call)}()' called directly"
            else:
                what = f"namespace mutation '{_callee(call)}(...)'"
            yield Violation(
                code=self.code,
                message=(f"{what} outside the cache barrier; apply it in a "
                         f"body handed to CacheBarrier.mutate(...)"),
                path=ctx.path, line=call.lineno, col=call.col_offset)
