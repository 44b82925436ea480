"""RPL008: values derived from message payloads must not reach timer or
deadline arithmetic (the laundering successor to RPL003).

Theorem 3.1's safety argument needs every client- and server-side
deadline computed from *local* clock readings and contract constants
(SS3).  RPL003 checks the allowlist of clock calls syntactically; this
rule closes the laundering gap T-Lease's clock-attack model describes —
a remote timestamp copied through an assignment (or a helper call) into
a timeout.

The check is one syntactic pass per outermost function, nested defs and
lambdas included (a ``waiter()`` closure sees its parent's names).  A
name is tainted when any binding of it — assignment, augmented or
annotated assignment, walrus, ``for``/comprehension target, ``with ...
as`` — comes from an expression that reads a remote value (``<x>.payload``
or an envelope slot, :data:`_SOURCES`) or an already-tainted name;
taint is iterated to a fixed point and never killed by a later clean
rebinding.  Any timer-constructor call (``local_timeout``, ``timeout``,
``after``, ``at``, ``renew``, ...) whose argument mentions a remote
value or a tainted name is reported once.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator, List, Set, Tuple, Union

from repro.lint.rules import Rule, Violation, rule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.lint.engine import FileContext

#: Call names (last attribute segment) that arm timers or compute
#: lease deadlines; any tainted argument is a violation.
_SINKS = frozenset({
    "local_timeout",   # endpoint-local timer
    "timeout",         # raw simulator timer
    "after", "at",     # TimerPool arming
    "renew",           # lease renewal instants
    "server_wait_local", "client_expiry_local", "phase_start_local",
})

#: Message attributes the remote sender sets: the payload and the
#: envelope slots (an ACK's ``stamp``, a request's ``lapse_attested``).
_SOURCES = frozenset({"payload", "stamp", "lapse_attested"})

_PROTOCOL_SCOPE = [
    "src/repro/client",
    "src/repro/server",
    "src/repro/lease",
    "src/repro/locks",
    "src/repro/net",
    "src/repro/netcache",
    "src/repro/cluster",
    "src/repro/storage",
]

_Def = Union[ast.FunctionDef, ast.AsyncFunctionDef]


@rule
class RemoteTaintRule(Rule):
    """Flag remote payload values flowing into local deadline math."""

    code = "RPL008"
    name = "remote-clock-taint"
    description = ("payload-derived values must not flow into timer or "
                   "lease-deadline arguments (local-clock discipline)")
    paper_ref = ("SS3: expiration decided by local clocks and contract "
                 "constants only; remote timestamps are untrusted")
    scope = _PROTOCOL_SCOPE

    def check(self, ctx: "FileContext") -> Iterator[Violation]:
        """Taint each outermost function's names, then judge its sinks."""
        for fn in _outermost_defs(ctx.tree):
            nodes = list(ast.walk(fn))
            tainted = _tainted_names(nodes)
            for call in nodes:
                if not isinstance(call, ast.Call):
                    continue
                func = call.func
                name = (func.attr if isinstance(func, ast.Attribute)
                        else getattr(func, "id", None))
                if name not in _SINKS:
                    continue
                args = [*call.args, *(kw.value for kw in call.keywords)]
                if any(_mentions(arg, tainted) for arg in args):
                    yield Violation(
                        code=self.code,
                        message=(f"argument of timer/deadline call "
                                 f"'{name}(...)' is derived from a message "
                                 f"payload; deadlines must use local clocks "
                                 f"and contract constants only"),
                        path=ctx.path, line=call.lineno, col=call.col_offset)


def _outermost_defs(node: ast.AST) -> Iterator[_Def]:
    """Every function not nested in another one (methods included)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield child
        else:
            yield from _outermost_defs(child)


def _mentions(expr: ast.AST, tainted: Set[str]) -> bool:
    """Whether ``expr`` reads a remote value or a tainted name anywhere."""
    return any((isinstance(n, ast.Attribute) and n.attr in _SOURCES)
               or (isinstance(n, ast.Name) and n.id in tainted)
               for n in ast.walk(expr))


def _bindings(nodes: List[ast.AST]) -> Iterator[Tuple[ast.AST, ast.AST]]:
    """``(target, value)`` for every name-binding form among ``nodes``."""
    for node in nodes:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                yield target, node.value
        elif isinstance(node, (ast.AugAssign, ast.NamedExpr)):
            yield node.target, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            yield node.target, node.value
        elif isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
            yield node.target, node.iter
        elif isinstance(node, ast.withitem) and node.optional_vars is not None:
            yield node.optional_vars, node.context_expr


def _tainted_names(nodes: List[ast.AST]) -> Set[str]:
    """Names bound, directly or transitively, from a remote read."""
    edges: List[Tuple[Set[str], Set[str]]] = []
    tainted: Set[str] = set()
    for target, value in _bindings(nodes):
        bound = {n.id for n in ast.walk(target)
                 if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        if not bound:
            continue
        if _mentions(value, set()):
            tainted |= bound
        else:
            reads = {n.id for n in ast.walk(value) if isinstance(n, ast.Name)}
            edges.append((reads, bound))
    grew = True
    while grew:
        grew = False
        for reads, bound in edges:
            if reads & tainted and not bound <= tainted:
                tainted |= bound
                grew = True
    return tainted
