"""RPL009: no server handler may transitively reach a blocking wait.

The passive-server discipline (SS2.1) lets the dispatch loop run every
registered handler *inline*: a handler that blocks would stall every
other client of that endpoint.  The dispatch contract is that a handler
defers long-running work by *returning a generator* (or spawning one
with ``sim.process(...)``), never by executing one synchronously.

RPL002 checks handler bodies syntactically; this rule walks the call
graph instead.  Starting from every handler registration it follows the
*inline* call edges (helper calls that execute synchronously) and flags:

* a call to an in-project generator function outside a deferral
  position (its result directly returned, yielded-from, or handed to
  ``*.process(...)``) — running a generator protocol step inline is a
  blocking wait;
* a call to a configured blocking primitive (``time.sleep`` by
  default), however many helpers deep.

Handlers that are themselves generators are skipped: the dispatch loop
runs one to its first ``yield`` inside the delivery, and that prefix
cannot block — where it would wait it yields, which parks the rest as a
deferred transaction, and one that never yields is answered as directly
as a tuple.  What the rule forbids is a handler *finishing* a generator
itself (``next(gen)``, a drive loop) to stay synchronous.  Unresolvable
callees (dynamic dispatch) are treated as unknown, exactly like RPL002
treats them.
"""

from __future__ import annotations

import ast
from typing import (TYPE_CHECKING, FrozenSet, Iterator, List, Optional, Set,
                    Tuple)

from repro.lint.callgraph import (CallSite, Registration,
                                  handler_registrations, inline_reach)
from repro.lint.project import FunctionInfo, ProjectIndex
from repro.lint.rules import ProjectRule, Violation, rule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.lint.config import LintConfig

#: Where handler registrations count as server-side (the passive side).
_SERVER_SCOPE = [
    "src/repro/server",
    "src/repro/netcache",
    "src/repro/cluster",
    "src/repro/lease",
]

_DEFAULT_BLOCKING = ("time.sleep",)


@rule
class PassiveReachRule(ProjectRule):
    """Flag handlers that transitively reach a blocking wait."""

    code = "RPL009"
    name = "passive-server-reach"
    description = ("server handlers must not transitively reach a blocking "
                   "wait through the call graph; long work defers via a "
                   "returned generator")
    paper_ref = ("SS2.1: the server is passive; lease checks happen inline "
                 "in message dispatch and must never wait")
    default_scope = _SERVER_SCOPE

    def check_project(self, index: ProjectIndex,
                      config: "LintConfig") -> Iterator[Violation]:
        """Walk inline call edges from every handler registration."""
        opts = config.options_for(self.code)
        scope = self.scope(opts)
        blocking = frozenset(opts.get("blocking-calls", _DEFAULT_BLOCKING))
        reported: Set[Tuple[str, int, str]] = set()
        for reg in handler_registrations(index, scope):
            if reg.handler_lambda is not None and reg.registrar is not None:
                yield from self._check_lambda(index, reg, blocking, reported)
                continue
            handler = reg.handler
            if handler is None or handler.is_generator:
                continue
            for path in inline_reach(index, handler):
                site = path[-1]
                v = self._site_violation(site, handler, path, blocking)
                if v is None:
                    continue
                key = (v.path, v.line, v.code + v.message)
                if key not in reported:
                    reported.add(key)
                    yield v

    def _site_violation(self, site: CallSite, handler: FunctionInfo,
                        path: List[CallSite],
                        blocking: FrozenSet[str]) -> Optional[Violation]:
        via = " -> ".join([handler.qualname]
                          + [p.caller.qualname for p in path[1:]])
        if site.dotted is not None and site.dotted in blocking:
            return Violation(
                code=self.code,
                message=(f"handler '{handler.qualname}' reaches blocking "
                         f"call '{site.dotted}' (via {via}); the passive "
                         f"server must never wait in dispatch"),
                path=site.caller.path, line=site.call.lineno,
                col=site.call.col_offset)
        callee = site.callee
        if (callee is not None and callee.is_generator
                and not site.deferred):
            return Violation(
                code=self.code,
                message=(f"handler '{handler.qualname}' synchronously calls "
                         f"generator '{callee.qualname}' (via {via}); defer "
                         f"it by returning it or via sim.process(...)"),
                path=site.caller.path, line=site.call.lineno,
                col=site.call.col_offset)
        return None

    def _check_lambda(self, index: ProjectIndex, reg: Registration,
                      blocking: FrozenSet[str],
                      reported: Set[Tuple[str, int, str]]
                      ) -> Iterator[Violation]:
        registrar = reg.registrar
        lam = reg.handler_lambda
        if registrar is None or lam is None:
            return
        module = index.by_path[registrar.path]
        for node in ast.walk(lam.body):
            if not isinstance(node, ast.Call):
                continue
            callee = index.resolve_call(module, node, registrar)
            dotted = index.resolve_dotted(module, node.func)
            label = f"<lambda>@{reg.path}:{reg.line}"
            if dotted is not None and dotted in blocking:
                v = Violation(
                    code=self.code,
                    message=(f"handler {label} reaches blocking call "
                             f"'{dotted}'; the passive server must never "
                             f"wait in dispatch"),
                    path=reg.path, line=node.lineno, col=node.col_offset)
            elif callee is not None and callee.is_generator:
                v = Violation(
                    code=self.code,
                    message=(f"handler {label} synchronously calls generator "
                             f"'{callee.qualname}'; defer it by returning it "
                             f"or via sim.process(...)"),
                    path=reg.path, line=node.lineno, col=node.col_offset)
            else:
                continue
            key = (v.path, v.line, v.code + v.message)
            if key not in reported:
                reported.add(key)
                yield v
