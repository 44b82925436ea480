"""Rule framework: the registry, the base class and the violation record.

A rule is a class with a unique ``code`` (``RPLxxx``), a default path
``scope`` and a ``check(ctx)`` generator yielding :class:`Violation`
records.  Registering is one decorator::

    @rule
    class MyRule(Rule):
        code = "RPL042"
        ...

Importing this package loads every built-in rule module so the registry
is complete as soon as the engine (or the CLI) asks for it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Any, Dict, Iterator, List, Optional,
                    Sequence, Type)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.lint.config import LintConfig
    from repro.lint.engine import FileContext
    from repro.lint.project import ProjectIndex


@dataclass(frozen=True)
class Violation:
    """One finding: a rule code anchored to a source location."""

    code: str
    message: str
    path: str
    line: int
    col: int = 0

    def format(self) -> str:
        """The canonical one-line text rendering."""
        return f"{self.path}:{self.line}:{self.col + 1}: {self.code} {self.message}"

    def to_json(self) -> Dict[str, Any]:
        """The JSON-document shape used by the JSON reporter."""
        return {"code": self.code, "message": self.message,
                "path": self.path, "line": self.line, "column": self.col + 1}


class Rule:
    """Base class for all lint rules."""

    #: Unique rule code, e.g. ``"RPL001"``.
    code: str = ""
    #: Short kebab-case name shown by ``--list-rules``.
    name: str = ""
    #: One-line description of what the rule enforces.
    description: str = ""
    #: The paper claim the rule guards (shown by ``--list-rules``).
    paper_ref: str = ""
    #: Default path prefixes the rule applies to (``None`` = everywhere).
    default_scope: Optional[Sequence[str]] = None
    #: Project-wide rules run once over the whole parsed file set
    #: (via :meth:`check_project`) instead of per file.
    project_wide: bool = False

    def scope(self, options: Dict[str, Any]) -> Optional[Sequence[str]]:
        """Effective path scope after applying config overrides."""
        paths = options.get("paths")
        if paths is not None:
            return [str(p) for p in paths]
        return self.default_scope

    def check(self, ctx: "FileContext") -> Iterator[Violation]:
        """Yield violations for one parsed file."""
        raise NotImplementedError
        yield  # pragma: no cover

    def check_project(self, index: "ProjectIndex",
                      config: "LintConfig") -> Iterator[Violation]:
        """Yield violations for the whole indexed file set (only called
        when :attr:`project_wide` is true)."""
        raise NotImplementedError
        yield  # pragma: no cover

    # -- shared AST helpers -------------------------------------------------
    @staticmethod
    def attribute_chain(node: ast.AST) -> Optional[List[str]]:
        """``a.b.c`` as ``["a", "b", "c"]``; None when the chain passes
        through anything other than plain names/attributes (a call,
        subscript, ...)."""
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            parts.append(node.id)
            parts.reverse()
            return parts
        return None

    @staticmethod
    def enclosing_function(ctx: "FileContext", node: ast.AST) -> Optional[str]:
        """Name of the innermost function/method containing ``node``."""
        fn = ctx.enclosing_function(node)
        return fn.name if fn is not None else None


class ProjectRule(Rule):
    """Base class for rules that analyze the whole project at once."""

    project_wide = True

    def check(self, ctx: "FileContext") -> Iterator[Violation]:
        """Project rules have no per-file phase."""
        return iter(())


#: The global registry, keyed by rule code.
RULES: Dict[str, Rule] = {}


def rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator registering a rule instance under its code."""
    if not cls.code:
        raise ValueError(f"rule {cls.__name__} has no code")
    if cls.code in RULES:
        raise ValueError(f"duplicate rule code {cls.code}")
    RULES[cls.code] = cls()
    return cls


def _load_builtin_rules() -> None:
    # Imported for their registration side effect.
    from repro.lint.rules import (barrier, determinism, handlers,  # noqa: F401
                                  local_clock, mutable_defaults, pairing,
                                  passive_reach, passive_server, phases,
                                  remote_taint, reply_path, schema_drift,
                                  time_equality)


_load_builtin_rules()
