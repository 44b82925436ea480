"""Cross-module symbol table and import resolver.

The :class:`ProjectIndex` is built once per lint run from every file the
engine parsed.  It derives a dotted module name for each file, indexes
every function/method (with nesting), records import aliases, and
answers the one question the project-wide rules keep asking: *which function
does this call expression name?*  Resolution is purely syntactic — the
code under analysis is never imported — so it is deliberately modest:

* ``name(...)`` resolves through nested defs, module-level defs and
  ``from mod import name`` aliases;
* ``self.m(...)`` / ``cls.m(...)`` resolve to methods of the enclosing
  class (no inheritance walk);
* ``mod.f(...)`` and ``Class.m(...)`` resolve through import aliases to
  other indexed modules;
* everything else (attributes of locals, dynamic dispatch) returns
  ``None`` and rules treat the callee as unknown.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Union

from repro.lint.config import in_scope

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.lint.engine import FileContext

#: AST node types that define a function we index.
FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Source roots stripped from paths when deriving module names.
_SOURCE_ROOTS = ("src",)


def module_name_for(path: str) -> str:
    """Dotted module name for a root-relative posix path.

    ``src/repro/net/control.py`` -> ``repro.net.control``;
    ``src/repro/lint/__init__.py`` -> ``repro.lint``.  Paths outside a
    source root (tests, fixtures) still get a stable dotted name derived
    from the path so lookups never collide with real modules.
    """
    parts = path.split("/")
    if parts and parts[0] in _SOURCE_ROOTS:
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(p for p in parts if p)


def contains_yield(node: ast.AST) -> bool:
    """Whether the function body yields (ignoring nested defs/lambdas)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(child, (ast.Yield, ast.YieldFrom)):
            return True
        if contains_yield(child):
            return True
    return False


@dataclass
class FunctionInfo:
    """One indexed function, method or nested def."""

    module: str
    qualname: str
    name: str
    path: str
    node: FunctionNode
    class_name: Optional[str] = None
    is_generator: bool = False
    nested: Dict[str, "FunctionInfo"] = field(default_factory=dict)

    @property
    def lineno(self) -> int:
        return self.node.lineno

    @property
    def ref(self) -> str:
        """Human-facing ``module:qualname`` label for messages."""
        return f"{self.module}.{self.qualname}"


@dataclass
class ModuleInfo:
    """Symbol table for one parsed file."""

    name: str
    path: str
    ctx: "FileContext"
    #: Every function at any nesting depth, keyed by dotted qualname.
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: Top-level functions by bare name.
    top_functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: Methods per top-level class: ``{class: {method: info}}``.
    classes: Dict[str, Dict[str, FunctionInfo]] = field(default_factory=dict)

    @property
    def aliases(self) -> Dict[str, str]:
        """Import aliases of the file (``{local_name: dotted_target}``)."""
        return self.ctx.module_aliases()


def _index_function(module: ModuleInfo, node: FunctionNode,
                    prefix: str, class_name: Optional[str]) -> FunctionInfo:
    qualname = f"{prefix}.{node.name}" if prefix else node.name
    info = FunctionInfo(module=module.name, qualname=qualname, name=node.name,
                        path=module.path, node=node, class_name=class_name,
                        is_generator=contains_yield(node))
    module.functions[qualname] = info
    for child in node.body:
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nested = _index_function(module, child, qualname, class_name)
            info.nested[child.name] = nested
    return info


def build_module(ctx: "FileContext") -> ModuleInfo:
    """Index one parsed file into a :class:`ModuleInfo`."""
    module = ModuleInfo(name=module_name_for(ctx.path), path=ctx.path, ctx=ctx)
    for node in ctx.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info = _index_function(module, node, "", None)
            module.top_functions[node.name] = info
        elif isinstance(node, ast.ClassDef):
            methods: Dict[str, FunctionInfo] = {}
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    methods[item.name] = _index_function(
                        module, item, node.name, node.name)
            module.classes[node.name] = methods
    return module


class ProjectIndex:
    """All indexed modules of one lint run, plus resolution helpers."""

    def __init__(self, contexts: Sequence["FileContext"]) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.by_path: Dict[str, ModuleInfo] = {}
        for ctx in contexts:
            module = build_module(ctx)
            self.modules[module.name] = module
            self.by_path[module.path] = module

    def iter_modules(self, scope: Optional[Sequence[str]] = None
                     ) -> Iterator[ModuleInfo]:
        """Modules whose path falls inside ``scope`` (None = all)."""
        for path in sorted(self.by_path):
            if in_scope(path, scope):
                yield self.by_path[path]

    # -- resolution ---------------------------------------------------------
    def _function_at(self, dotted: str) -> Optional[FunctionInfo]:
        """Resolve ``pkg.mod.f`` or ``pkg.mod.Class.m`` to an indexed
        function, trying module-name prefixes longest-first."""
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            module = self.modules.get(".".join(parts[:cut]))
            if module is None:
                continue
            rest = parts[cut:]
            if len(rest) == 1:
                return module.top_functions.get(rest[0])
            if len(rest) == 2:
                return module.classes.get(rest[0], {}).get(rest[1])
            return None
        return None

    def resolve_name(self, module: ModuleInfo, name: str,
                     caller: Optional[FunctionInfo] = None
                     ) -> Optional[FunctionInfo]:
        """A bare ``name`` in ``caller``'s body: nested def, enclosing
        sibling defs, module-level def, or a ``from``-import."""
        scope = caller
        while scope is not None:
            if name in scope.nested:
                return scope.nested[name]
            parent_qual = scope.qualname.rsplit(".", 1)[0] \
                if "." in scope.qualname else ""
            scope = module.functions.get(parent_qual) if parent_qual else None
        fn = module.top_functions.get(name)
        if fn is not None:
            return fn
        dotted = module.aliases.get(name)
        if dotted is not None:
            return self._function_at(dotted)
        return None

    def resolve_call(self, module: ModuleInfo, call: ast.Call,
                     caller: Optional[FunctionInfo] = None
                     ) -> Optional[FunctionInfo]:
        """The :class:`FunctionInfo` a call expression names, or None."""
        func = call.func
        if isinstance(func, ast.Name):
            return self.resolve_name(module, func.id, caller)
        if isinstance(func, ast.Attribute):
            base = func.value
            if isinstance(base, ast.Name):
                if base.id in ("self", "cls"):
                    cls = caller.class_name if caller is not None else None
                    if cls is not None:
                        return module.classes.get(cls, {}).get(func.attr)
                    return None
                # Class.m in the same module.
                if base.id in module.classes:
                    return module.classes[base.id].get(func.attr)
                # alias.m where alias names a module or a class elsewhere.
                dotted = module.aliases.get(base.id)
                if dotted is not None:
                    return self._function_at(f"{dotted}.{func.attr}")
                return None
        return None

    def resolve_dotted(self, module: ModuleInfo, expr: ast.expr
                       ) -> Optional[str]:
        """Fully-qualified dotted name of a plain attribute chain, after
        alias substitution (``t.sleep`` -> ``time.sleep`` under
        ``import time as t``); None when the chain is not plain names."""
        parts: List[str] = []
        node = expr
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(node.id)
        parts.reverse()
        head = module.aliases.get(parts[0], parts[0])
        return ".".join([head] + parts[1:])
