"""RPL012: acquire/release pairing for leases, locks and barriers on
all CFG paths.

The protocol leans on several bracket disciplines: the client's
in-flight operation counter (``_enter``/``_exit``), file pins during
flush (``_pin_file``/``_unpin_file``), demand-revocation marks
(``_revoking.add``/``.discard``), the server's barrier bookkeeping
(``_claim_barrier``/``_cache_pending.discard``) and byte-range locks
(``_batch_acquire``/``_batch_release``).  Leaking any of them wedges
a counter or a lock forever — the client never quiesces, the server
waits on a pending barrier that cannot drain.

For every *acquire* site the rule runs a path-sensitive may-analysis to
the function exit: if any path (including exception unwinds) leaves the
function with the bracket still open, the acquire is flagged.  Three
pieces of path sensitivity keep the idiomatic code clean:

* acquire and release are *atomic*: an exception raised by the acquire
  call itself means nothing was acquired, one raised by the release
  call still counts as released (failure handling belongs to the lease
  machinery, not the bracket);
* literal flag tracking: ``done = False ... done = True`` lets the
  ``finally: if done: release()`` idiom prune the infeasible arm;
* token truthiness: when the acquire's result is bound to a variable
  (``tok = acquire()``), the false edge of ``if tok:`` is infeasible
  while held — acquisition tokens are non-zero by convention.

Pairs are configured as ``{acquire, release, paths?}`` tables; a spec is
a dotted attribute suffix (``_cache_pending.discard``).
"""

from __future__ import annotations

import ast
from typing import (TYPE_CHECKING, Any, Dict, FrozenSet, Iterator, List,
                    Mapping, Optional, Sequence, Set, Tuple)

from repro.lint.cfg import CFG, Block, build_cfg, may_raise, shallow_calls
from repro.lint.config import in_scope
from repro.lint.dataflow import ForwardAnalysis
from repro.lint.rules import Rule, Violation, rule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.lint.engine import FileContext

_DEFAULT_PAIRS: Tuple[Mapping[str, Any], ...] = (
    {"acquire": "_enter", "release": "_exit",
     "paths": ["src/repro/client"]},
    {"acquire": "_pin_file", "release": "_unpin_file",
     "paths": ["src/repro/client"]},
    {"acquire": "_revoking.add", "release": "_revoking.discard",
     "paths": ["src/repro/client"]},
    {"acquire": "_claim_barrier", "release": "_cache_pending.discard",
     "paths": ["src/repro/server"]},
    {"acquire": "_batch_acquire", "release": "_batch_release",
     "paths": ["src/repro/client"]},
)

#: Analysis state: (held?, token vars, known literal flags).
#: ``consts`` maps a local to its last literally-assigned truthiness.
_State = Tuple[bool, FrozenSet[str], FrozenSet[Tuple[str, bool]]]


def _attr_suffix(call: ast.Call) -> Optional[List[str]]:
    parts: List[str] = []
    node: ast.expr = call.func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    elif parts == []:
        return None
    parts.reverse()
    return parts


class _CallSpec:
    """One side of a pair: a dotted attribute suffix."""

    def __init__(self, spec: str) -> None:
        self.raw = spec
        self.suffix: List[str] = spec.split(".")

    def matches(self, call: ast.Call) -> bool:
        chain = _attr_suffix(call)
        if chain is None or len(chain) < len(self.suffix):
            return False
        return chain[-len(self.suffix):] == self.suffix


class _Pair:
    def __init__(self, table: Mapping[str, Any]) -> None:
        self.acquire = _CallSpec(str(table["acquire"]))
        self.release = _CallSpec(str(table["release"]))
        self.paths: Optional[Sequence[str]] = None
        if table.get("paths") is not None:
            self.paths = [str(p) for p in table["paths"]]

    def applies(self, path: str) -> bool:
        return self.paths is None or in_scope(path, self.paths)


class _PairAnalysis(ForwardAnalysis[_State]):
    """Held-ness from one specific acquire statement to the exit."""

    def __init__(self, pair: _Pair, acquire_stmt: ast.stmt,
                 vocabulary: Sequence[_CallSpec] = ()) -> None:
        self.pair = pair
        self.acquire_stmt = acquire_stmt
        #: Every configured acquire/release primitive.  Bracket
        #: primitives are bookkeeping and assumed non-raising, so a
        #: block whose only may-raise statements are bracket calls gets
        #: no exception edge (otherwise ``finally: unpin(); exit()``
        #: would leak through "unpin raised before exit ran").
        self.vocabulary = list(vocabulary) or [pair.acquire, pair.release]
        #: Variable the acquire result is bound to, when it is.
        self.token_var: Optional[str] = None
        if (isinstance(acquire_stmt, ast.Assign)
                and len(acquire_stmt.targets) == 1
                and isinstance(acquire_stmt.targets[0], ast.Name)):
            self.token_var = acquire_stmt.targets[0].id

    def initial_state(self) -> _State:
        return (False, frozenset(), frozenset())

    # -- helpers ------------------------------------------------------------
    def _releases(self, stmt: ast.stmt) -> bool:
        return any(self.pair.release.matches(c) for c in shallow_calls(stmt))

    def transfer_stmt(self, state: _State, stmt: ast.stmt) -> _State:
        held, tokens, consts = state
        if self._releases(stmt):
            held = False
        if stmt is self.acquire_stmt:
            held = True
            if self.token_var is not None:
                tokens = tokens | {self.token_var}
        # Literal flag tracking: x = True / x = False / x = 0 / x = 1.
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                and isinstance(stmt.targets[0], ast.Name):
            var = stmt.targets[0].id
            consts = frozenset(c for c in consts if c[0] != var)
            if stmt is not self.acquire_stmt:
                tokens = tokens - {var}
            value = stmt.value
            if isinstance(value, ast.Constant) and isinstance(
                    value.value, (bool, int)):
                consts = consts | {(var, bool(value.value))}
        return (held, tokens, consts)

    def transfer_test(self, state: _State, test: Optional[ast.expr],
                      branch: bool) -> Optional[_State]:
        held, tokens, consts = state
        expr = test
        polarity = branch
        while isinstance(expr, ast.UnaryOp) and isinstance(expr.op, ast.Not):
            expr = expr.operand
            polarity = not polarity
        if isinstance(expr, ast.Name):
            known = {name: val for name, val in consts}
            if expr.id in known and known[expr.id] != polarity:
                return None  # branch contradicts the known literal
            if held and expr.id in tokens and not polarity:
                return None  # a held token is truthy by convention
        return state

    def _can_really_raise(self, stmt: ast.stmt) -> bool:
        """Whether the statement can raise for a non-bracket reason."""
        if not may_raise(stmt):
            return False
        for node in ast.walk(stmt):
            if isinstance(node, (ast.Yield, ast.YieldFrom, ast.Await,
                                 ast.Raise, ast.Assert)):
                return True
        calls = list(shallow_calls(stmt))
        if not calls:
            return True
        return any(not any(spec.matches(c) for spec in self.vocabulary)
                   for c in calls)

    def exception_state(self, entry_state: _State,
                        block: Block) -> Optional[_State]:
        if not any(self._can_really_raise(s) for s in block.stmts):
            return None  # only bracket bookkeeping here: assumed no-raise
        held, tokens, consts = entry_state
        for stmt in block.stmts:
            if stmt is self.acquire_stmt:
                # Acquire is atomic: if it raised, nothing was acquired,
                # and anything after it in this block never ran.
                return (held, tokens, consts)
            if self._releases(stmt):
                held = False  # release is atomic even when it raises
        return (held, tokens, consts)

    def join(self, a: _State, b: _State) -> _State:
        return (a[0] or b[0], a[1] | b[1], a[2] & b[2])


@rule
class PairingRule(Rule):
    """Flag acquire sites whose release is missing on some path."""

    code = "RPL012"
    name = "acquire-release-pairing"
    description = ("every acquire (locks, pins, barriers, op brackets) must "
                   "be released on all paths, including exception unwinds")
    paper_ref = ("SS2.3/SS4: leaked locks and pending barriers wedge "
                 "recovery; brackets must close on every path")
    default_scope = ["src/repro"]

    def check(self, ctx: "FileContext") -> Iterator[Violation]:
        """Analyse every acquire site of every applicable pair."""
        opts = ctx.options(self.code)
        tables = opts.get("pairs", _DEFAULT_PAIRS)
        pairs = [_Pair(t) for t in tables]
        pairs = [p for p in pairs if p.applies(ctx.path)]
        if not pairs:
            return
        for fn in _functions(ctx.tree):
            yield from self._check_function(ctx, fn, pairs)

    def _check_function(self, ctx: "FileContext", fn: ast.AST,
                        pairs: List[_Pair]) -> Iterator[Violation]:
        cfg: Optional[CFG] = None
        vocabulary = [spec for p in pairs for spec in (p.acquire, p.release)]
        for pair in pairs:
            if not _mentions(fn, pair.acquire):
                continue
            if cfg is None:
                cfg = build_cfg(fn)
            for stmt in _acquire_stmts(cfg, pair):
                analysis = _PairAnalysis(pair, stmt, vocabulary)
                exit_state = analysis.run(cfg).get(cfg.exit)
                if exit_state is not None and exit_state[0]:
                    yield Violation(
                        code=self.code,
                        message=(f"'{pair.acquire.raw}' here is not matched "
                                 f"by '{pair.release.raw}' on every path to "
                                 f"the function exit (exception paths "
                                 f"count)"),
                        path=ctx.path, line=stmt.lineno, col=stmt.col_offset)


def _mentions(fn: ast.AST, spec: _CallSpec) -> bool:
    for node in ast.walk(fn):
        if isinstance(node, ast.Call) and spec.matches(node):
            return True
    return False


def _acquire_stmts(cfg: CFG, pair: _Pair) -> List[ast.stmt]:
    """Block statements of this function's CFG with an acquire call.

    Statements of nested defs live in their own CFGs and are checked
    when the nested function is visited."""
    sites: List[ast.stmt] = []
    seen: Set[int] = set()
    for block in cfg.reachable():
        for stmt in block.stmts:
            if id(stmt) in seen:
                continue
            if any(pair.acquire.matches(c) for c in shallow_calls(stmt)):
                seen.add(id(stmt))
                sites.append(stmt)
    return sites


def _functions(tree: ast.Module) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
