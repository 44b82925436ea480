"""RPL010: message-schema drift between construction sites and handlers.

The protocol has no IDL; the schema of each ``MsgKind`` is whatever the
senders put in the payload dict and the handlers read back out.  Those
two sets drift silently: a sender keeps shipping a field no handler
looks at (dead write — wasted bytes and a misleading contract), or a
handler indexes a field no construction site ever sets (a latent
``KeyError`` on the first real delivery).

The rule joins both sides per kind across the whole project:

* **construction sites** — ``endpoint.request(dst, MsgKind.K, {...})``,
  ``self._rpc(MsgKind.K, {...})`` and ``Message(src, dst, MsgKind.K,
  {...})`` with a literal dict payload contribute their key set; a
  non-literal payload marks the kind *opaque* (the write set is
  unknowable, so never-set-read findings are suppressed);
* **handler reads** — for every resolved registration of the kind, the
  handler subtree (including nested ``run()`` closures and helpers the
  message object is forwarded to) is scanned for ``payload["f"]`` (hard
  read), ``payload.get("f")`` / ``"f" in payload`` (optional read), and
  any other payload use (wholesale — all fields count as read).

Findings: a *dead write* (field set at a literal site, kind fully
resolved, no handler reads it in any form) is reported at the
construction site; a *never-set read* (hard, unprobed read of a field no
literal site sets, kind not opaque) is reported at the read.  Envelope
fields the dispatch layer stamps (``__epoch__`` etc.) are ignored.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Dict, FrozenSet, Iterator, List, Optional,
                    Sequence, Set, Tuple)

from repro.lint.callgraph import (Registration, _walk_own,
                                  handler_registrations)
from repro.lint.project import FunctionInfo, ModuleInfo, ProjectIndex
from repro.lint.rules import ProjectRule, Violation, rule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.lint.config import LintConfig

#: Dispatch-layer envelope fields, stamped/read outside any one kind's
#: schema; never part of the drift analysis.
_IGNORE = frozenset({
    "__epoch__", "__mseq__", "__lease_nack__", "__pending__",
})

#: How deep to chase the message object through helper calls.
_FORWARD_DEPTH = 3


@dataclass
class _KindFacts:
    """Everything learned about one ``MsgKind``."""

    #: (path, line, fields) per literal-payload construction site.
    sites: List[Tuple[str, int, FrozenSet[str]]] = field(default_factory=list)
    opaque_site: bool = False
    #: All fields read in any form by any handler.
    reads: Set[str] = field(default_factory=set)
    #: (field, path, line) for hard, unprobed subscript reads.
    hard_reads: List[Tuple[str, str, int]] = field(default_factory=list)
    #: Fields probed with ``"f" in payload`` by some handler.
    probed: Set[str] = field(default_factory=set)
    wholesale: bool = False
    registrations: int = 0
    unresolved_handler: bool = False


def _kind_of(expr: ast.expr) -> Optional[str]:
    if (isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name)
            and expr.value.id == "MsgKind"):
        return expr.attr
    return None


def _literal_fields(payload: ast.expr) -> Optional[FrozenSet[str]]:
    """Key set of a literal dict payload; None when not fully literal."""
    if not isinstance(payload, ast.Dict):
        return None
    fields: Set[str] = set()
    for key in payload.keys:
        if key is None:  # **spread
            return None
        if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
            return None
        fields.add(key.value)
    return frozenset(fields)


def _construction_site(call: ast.Call) -> Optional[Tuple[str, ast.expr]]:
    """``(kind, payload_expr)`` when the call constructs a message."""
    func = call.func
    kind_arg: Optional[ast.expr] = None
    payload_arg: Optional[ast.expr] = None
    if isinstance(func, ast.Attribute) and func.attr == "request":
        if len(call.args) >= 2:
            kind_arg = call.args[1]
            payload_arg = call.args[2] if len(call.args) >= 3 else None
    elif isinstance(func, ast.Attribute) and func.attr == "_rpc":
        if len(call.args) >= 1:
            kind_arg = call.args[0]
            payload_arg = call.args[1] if len(call.args) >= 2 else None
    elif isinstance(func, ast.Name) and func.id == "Message":
        if len(call.args) >= 3:
            kind_arg = call.args[2]
            payload_arg = call.args[3] if len(call.args) >= 4 else None
    else:
        return None
    for kw in call.keywords:
        if kw.arg == "payload":
            payload_arg = kw.value
    kind = _kind_of(kind_arg) if kind_arg is not None else None
    if kind is None:
        return None
    if payload_arg is None:
        payload_arg = ast.Dict(keys=[], values=[])
    return kind, payload_arg


class _ReadScanner:
    """Collects payload-field reads reachable from one handler."""

    def __init__(self, index: ProjectIndex, facts: _KindFacts) -> None:
        self.index = index
        self.facts = facts
        self.visited: Set[str] = set()
        self.current_path = ""

    def scan(self, fn: FunctionInfo, depth: int = 0) -> None:
        if fn.ref in self.visited or depth > _FORWARD_DEPTH:
            return
        self.visited.add(fn.ref)
        module = self.index.by_path[fn.path]
        self._scan_node(fn.node, module, fn)

    def scan_lambda(self, lam: ast.Lambda, module: ModuleInfo,
                    scope: Optional[FunctionInfo]) -> None:
        self._scan_node(lam, module, scope, depth=_FORWARD_DEPTH)

    def _scan_node(self, root: ast.AST, module: ModuleInfo,
                   scope: Optional[FunctionInfo], depth: int = 0) -> None:
        self.current_path = module.path
        parents: Dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(root):
            for child in ast.iter_child_nodes(parent):
                parents[child] = parent
        msg_names = _message_params(root)
        for node in ast.walk(root):
            if isinstance(node, ast.Attribute) and node.attr == "payload":
                self._classify(node, parents.get(node), parents)
            elif isinstance(node, ast.Call):
                self._maybe_forward(node, module, scope, msg_names, depth)

    def _classify(self, payload: ast.Attribute, parent: Optional[ast.AST],
                  parents: Dict[ast.AST, ast.AST]) -> None:
        facts = self.facts
        if isinstance(parent, ast.Subscript) and parent.value is payload:
            key = parent.slice
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                grand = parents.get(parent)
                storing = isinstance(parent.ctx, (ast.Store, ast.Del))
                facts.reads.add(key.value)
                if not storing and not isinstance(grand, ast.Delete):
                    facts.hard_reads.append(
                        (key.value, self.current_path, payload.lineno))
                return
            facts.wholesale = True
            return
        if (isinstance(parent, ast.Attribute) and parent.attr == "get"
                and parent.value is payload):
            call = parents.get(parent)
            if (isinstance(call, ast.Call) and call.func is parent
                    and call.args
                    and isinstance(call.args[0], ast.Constant)
                    and isinstance(call.args[0].value, str)):
                facts.reads.add(call.args[0].value)
                return
            facts.wholesale = True
            return
        if isinstance(parent, ast.Compare) and payload in parent.comparators:
            if (len(parent.ops) == 1
                    and isinstance(parent.ops[0], (ast.In, ast.NotIn))
                    and isinstance(parent.left, ast.Constant)
                    and isinstance(parent.left.value, str)):
                facts.reads.add(parent.left.value)
                facts.probed.add(parent.left.value)
                return
        # Any other use (dict(payload), iteration, len, ==) is wholesale.
        facts.wholesale = True

    def _maybe_forward(self, call: ast.Call, module: ModuleInfo,
                       scope: Optional[FunctionInfo],
                       msg_names: FrozenSet[str], depth: int) -> None:
        forwards = any(isinstance(a, ast.Name) and a.id in msg_names
                       for a in call.args)
        if not forwards:
            return
        callee = self.index.resolve_call(module, call, scope)
        if callee is not None:
            saved = self.current_path
            self.scan(callee, depth + 1)
            self.current_path = saved


def _message_params(root: ast.AST) -> FrozenSet[str]:
    """Parameter names plausibly bound to the message object."""
    if isinstance(root, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        args = root.args
        names = [a.arg for a in args.args if a.arg not in ("self", "cls")]
        if names:
            return frozenset({names[0], "msg", "message"})
    return frozenset({"msg", "message"})


@rule
class SchemaDriftRule(ProjectRule):
    """Flag payload fields that drift between senders and handlers."""

    code = "RPL010"
    name = "message-schema-drift"
    description = ("payload fields set at construction sites and fields read "
                   "in handlers must agree per MsgKind (no dead writes, no "
                   "reads of never-set fields)")
    paper_ref = ("SS2.2: clients and servers share the message protocol; an "
                 "unset field read in dispatch is a latent protocol fault")
    scope = ["src/repro"]

    def check_project(self, index: ProjectIndex,
                      config: "LintConfig") -> Iterator[Violation]:
        """Cross-check construction sites against handler reads."""
        facts = self._gather(index, self.scope)
        for kind in sorted(facts):
            yield from self._report_kind(kind, facts[kind])

    # -- gathering ----------------------------------------------------------
    def _gather(self, index: ProjectIndex,
                scope: Optional[Sequence[str]]) -> Dict[str, _KindFacts]:
        facts: Dict[str, _KindFacts] = {}

        def of(kind: str) -> _KindFacts:
            if kind not in facts:
                facts[kind] = _KindFacts()
            return facts[kind]

        for module in index.iter_modules(scope):
            for qualname in sorted(module.functions):
                fn = module.functions[qualname]
                for node in _walk_own(fn.node):
                    if not isinstance(node, ast.Call):
                        continue
                    site = _construction_site(node)
                    if site is None:
                        continue
                    kind, payload = site
                    fields = _literal_fields(payload)
                    if fields is None:
                        of(kind).opaque_site = True
                    else:
                        of(kind).sites.append(
                            (module.path, node.lineno, fields))

        for reg in _registrations_with_loops(index, scope):
            kind, handler, handler_lambda, registrar = reg
            if kind is None:
                continue
            kf = of(kind)
            kf.registrations += 1
            if handler is not None:
                scanner = _ReadScanner(index, kf)
                scanner.scan(handler)
            elif handler_lambda is not None and registrar is not None:
                scanner = _ReadScanner(index, kf)
                scanner.scan_lambda(handler_lambda,
                                    index.by_path[registrar.path], registrar)
            else:
                kf.unresolved_handler = True
        return facts

    # -- reporting ----------------------------------------------------------
    def _report_kind(self, kind: str,
                     kf: _KindFacts) -> Iterator[Violation]:
        # Dead writes: complete handler knowledge required.
        if (kf.registrations > 0 and not kf.unresolved_handler
                and not kf.wholesale):
            reported: Set[str] = set()
            for path, line, fields in kf.sites:
                for f in sorted(fields):
                    if f in _IGNORE or f in kf.reads or f in reported:
                        continue
                    reported.add(f)
                    yield Violation(
                        code=self.code,
                        message=(f"dead write: field '{f}' of "
                                 f"MsgKind.{kind} is set here but no "
                                 f"handler of that kind ever reads it"),
                        path=path, line=line, col=0)
        # Never-set reads: complete sender knowledge required.
        if kf.sites and not kf.opaque_site:
            set_anywhere: Set[str] = set()
            for _, _, fields in kf.sites:
                set_anywhere.update(fields)
            seen: Set[Tuple[str, str, int]] = set()
            for f, path, line in kf.hard_reads:
                if (f in _IGNORE or f in set_anywhere or f in kf.probed
                        or (f, path, line) in seen):
                    continue
                seen.add((f, path, line))
                yield Violation(
                    code=self.code,
                    message=(f"never-set read: handler indexes payload field "
                             f"'{f}' of MsgKind.{kind}, but no construction "
                             f"site ever sets it"),
                    path=path, line=line, col=0)


_RegTuple = Tuple[Optional[str], Optional[FunctionInfo], Optional[ast.Lambda],
                  Optional[FunctionInfo]]


def _registrations_with_loops(index: ProjectIndex,
                              scope: Optional[Sequence[str]]
                              ) -> Iterator[_RegTuple]:
    """Registrations, expanding the ``for kind in (MsgKind.A, ...):``
    loop idiom into one registration per kind."""
    for reg in handler_registrations(index, scope):
        if reg.kind is not None:
            yield reg.kind, reg.handler, reg.handler_lambda, reg.registrar
            continue
        kinds = _loop_kinds(index, reg)
        if kinds:
            for kind in kinds:
                yield kind, reg.handler, reg.handler_lambda, reg.registrar
        else:
            yield None, reg.handler, reg.handler_lambda, reg.registrar


def _loop_kinds(index: ProjectIndex, reg: Registration) -> List[str]:
    """``for k in (MsgKind.A, MsgKind.B): register(k, fn)`` -> [A, B]."""
    registrar = reg.registrar
    line = reg.line
    if registrar is None:
        return []
    kinds: List[str] = []
    for node in ast.walk(registrar.node):
        if not isinstance(node, ast.For):
            continue
        if not (node.lineno <= line <= _max_line(node)):
            continue
        if not isinstance(node.target, ast.Name):
            continue
        if isinstance(node.iter, (ast.Tuple, ast.List)):
            got = [_kind_of(e) for e in node.iter.elts]
            if all(k is not None for k in got):
                kinds = [k for k in got if k is not None]
    return kinds


def _max_line(node: ast.AST) -> int:
    end = getattr(node, "end_lineno", None)
    if isinstance(end, int):
        return end
    return getattr(node, "lineno", 0)
