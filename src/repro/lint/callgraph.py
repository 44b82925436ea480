"""Call graph over the project index, with handler-dispatch semantics.

Two pieces of protocol knowledge live here rather than in rules:

* **Deferral positions.**  In the simulator's dispatch loop a handler
  runs *inline*; returning a generator hands it to the endpoint, which
  runs it up to its first wait in the same delivery and parks the rest
  as one simulated process (``sim.process(...)`` defers likewise).  The
  inline prefix cannot block: where it would wait, it yields.  A call
  site is therefore *deferred* when its result is directly returned,
  directly yielded-from, or passed directly to a ``*.process(...)``
  call — arguments of a deferred call still evaluate inline.

* **Handler registrations.**  ``endpoint.register(kind, fn)`` and the
  server's ``self._register(kind, fn)`` wire a function into the
  dispatch table; :func:`handler_registrations` finds them and resolves
  the handler expression where syntactically possible.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Union

from repro.lint.project import (FunctionInfo, ModuleInfo, ProjectIndex)

#: Method names that register a message handler.
REGISTER_METHODS = frozenset({"register", "_register"})


@dataclass
class CallSite:
    """One call expression inside an indexed function."""

    call: ast.Call
    caller: FunctionInfo
    #: Resolved in-project callee (None when unknown/external).
    callee: Optional[FunctionInfo]
    #: Alias-resolved dotted name of the call target, when it is a
    #: plain attribute chain (``time.sleep``) — resolvable or not.
    dotted: Optional[str]
    #: True when the call result is handed on, not run by the caller.
    deferred: bool


@dataclass
class Registration:
    """One handler registration site."""

    path: str
    line: int
    #: ``MsgKind`` attribute name or string literal; None when dynamic.
    kind: Optional[str]
    #: Resolved handler function; None when the expression is opaque.
    handler: Optional[FunctionInfo]
    #: Inline ``lambda`` handler body, when used instead of a function.
    handler_lambda: Optional[ast.Lambda]
    #: The registering function (for context in messages).
    registrar: Optional[FunctionInfo]


def _is_deferred(call: ast.Call, module: ModuleInfo) -> bool:
    parents = module.ctx._parent_map()
    parent = parents.get(call)
    if isinstance(parent, ast.Return) and parent.value is call:
        return True
    if isinstance(parent, ast.YieldFrom) and parent.value is call:
        return True
    if isinstance(parent, ast.Call) and call in parent.args:
        if isinstance(parent.func, ast.Attribute) and \
                parent.func.attr == "process":
            return True
    return False


def call_sites(index: ProjectIndex, fn: FunctionInfo) -> List[CallSite]:
    """Every call expression in ``fn``'s own body (not nested defs)."""
    module = index.by_path[fn.path]
    sites: List[CallSite] = []
    for node in _walk_own(fn.node):
        if not isinstance(node, ast.Call):
            continue
        callee = index.resolve_call(module, node, fn)
        dotted = index.resolve_dotted(module, node.func)
        sites.append(CallSite(call=node, caller=fn, callee=callee,
                              dotted=dotted,
                              deferred=_is_deferred(node, module)))
    return sites


def _walk_own(fn_node: ast.AST) -> Iterator[ast.AST]:
    """Walk a function's body without descending into nested defs."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(fn_node))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _kind_of(expr: ast.expr) -> Optional[str]:
    if (isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name)
            and expr.value.id == "MsgKind"):
        return expr.attr
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return expr.value
    return None


def handler_registrations(index: ProjectIndex,
                          scope: Optional[Sequence[str]] = None
                          ) -> List[Registration]:
    """Every ``register(kind, handler)`` site in scope."""
    regs: List[Registration] = []
    for module in index.iter_modules(scope):
        for qualname in sorted(module.functions):
            fn = module.functions[qualname]
            for node in _walk_own(fn.node):
                if not isinstance(node, ast.Call):
                    continue
                if not (isinstance(node.func, ast.Attribute)
                        and node.func.attr in REGISTER_METHODS):
                    continue
                if len(node.args) < 2:
                    continue
                handler_expr = node.args[1]
                handler: Optional[FunctionInfo] = None
                handler_lambda: Optional[ast.Lambda] = None
                if isinstance(handler_expr, ast.Lambda):
                    handler_lambda = handler_expr
                else:
                    handler = _resolve_ref(index, module, handler_expr, fn)
                regs.append(Registration(
                    path=module.path, line=node.lineno,
                    kind=_kind_of(node.args[0]),
                    handler=handler, handler_lambda=handler_lambda,
                    registrar=fn))
    return regs


def _resolve_ref(index: ProjectIndex, module: ModuleInfo,
                 expr: ast.expr, scope_fn: FunctionInfo
                 ) -> Optional[FunctionInfo]:
    """Resolve a *function reference* (not a call): ``self._h_x``,
    ``name``, ``mod.f``."""
    fake = ast.Call(func=expr, args=[], keywords=[])
    return index.resolve_call(module, fake, scope_fn)


@dataclass
class ReachStep:
    """One hop of an inline-reachability path."""

    site: CallSite

    @property
    def label(self) -> str:
        callee = self.site.callee
        return callee.ref if callee is not None else (self.site.dotted or "?")


HandlerLike = Union[FunctionInfo, ast.Lambda]


def inline_reach(index: ProjectIndex, root: FunctionInfo,
                 max_depth: int = 12) -> Iterator[List[CallSite]]:
    """DFS over *inline* call edges from ``root``: every call path that
    executes synchronously inside the dispatch loop.  Yields the path
    (list of call sites) to each visited site; deferred generator calls
    are not descended into (they run in their own process)."""
    seen = {root.ref}

    def dfs(fn: FunctionInfo, path: List[CallSite], depth: int
            ) -> Iterator[List[CallSite]]:
        if depth > max_depth:
            return
        for site in call_sites(index, fn):
            new_path = path + [site]
            yield new_path
            callee = site.callee
            if callee is None:
                continue
            if callee.is_generator:
                continue  # deferred or flagged by the rule, never walked
            if callee.ref in seen:
                continue
            seen.add(callee.ref)
            yield from dfs(callee, new_path, depth + 1)

    yield from dfs(root, [], 0)
