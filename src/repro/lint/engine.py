"""The lint engine: file discovery, parsing, suppression, rule dispatch.

The engine owns everything rule-independent: walking the target paths,
parsing each file once, building the parent/enclosing-function maps the
rules share, honouring ``# repro-lint: ignore[...]`` suppressions and
the global exclude list, and assembling the :class:`LintResult`.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Dict, FrozenSet, Iterable, List, Optional, Sequence,
                    Union)

from repro.lint.config import LintConfig, in_scope
from repro.lint.rules import RULES, Rule, Violation

#: ``# repro-lint: ignore`` / ``# repro-lint: ignore[RPL001, RPL005]``
_IGNORE_RE = re.compile(
    r"#\s*repro-lint:\s*ignore(?:-file)?\s*(?:\[([A-Za-z0-9_,\s]+)\])?")
_IGNORE_FILE_RE = re.compile(
    r"#\s*repro-lint:\s*ignore-file\s*(?:\[([A-Za-z0-9_,\s]+)\])?")

#: Marker meaning "every rule" in a suppression entry.
ALL_CODES = "*"


def _codes_of(match: "re.Match[str]") -> FrozenSet[str]:
    raw = match.group(1)
    if raw is None:
        return frozenset([ALL_CODES])
    return frozenset(c.strip().upper() for c in raw.split(",") if c.strip())


@dataclass
class Suppressions:
    """Parsed suppression comments for one file."""

    by_line: Dict[int, FrozenSet[str]] = field(default_factory=dict)
    whole_file: FrozenSet[str] = field(default_factory=frozenset)

    @classmethod
    def scan(cls, lines: Sequence[str]) -> "Suppressions":
        by_line: Dict[int, FrozenSet[str]] = {}
        whole: FrozenSet[str] = frozenset()
        for lineno, text in enumerate(lines, start=1):
            if "repro-lint" not in text:
                continue
            fm = _IGNORE_FILE_RE.search(text)
            if fm is not None:
                whole = whole | _codes_of(fm)
                continue
            m = _IGNORE_RE.search(text)
            if m is not None:
                by_line[lineno] = by_line.get(lineno, frozenset()) | _codes_of(m)
        return cls(by_line=by_line, whole_file=whole)

    def suppressed(self, violation: Violation) -> bool:
        """Whether the violation is silenced by an inline comment."""
        if ALL_CODES in self.whole_file or violation.code in self.whole_file:
            return True
        codes = self.by_line.get(violation.line)
        return codes is not None and (ALL_CODES in codes or violation.code in codes)


class FileContext:
    """Everything a rule needs to inspect one parsed file."""

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        #: Root-relative posix path (fixture snippets keep their given name).
        self.path = path
        self.lines = source.splitlines()
        self.tree = tree
        self._parents: Optional[Dict[ast.AST, ast.AST]] = None
        self._aliases: Optional[Dict[str, str]] = None

    # -- structure helpers -------------------------------------------------
    def _parent_map(self) -> Dict[ast.AST, ast.AST]:
        if self._parents is None:
            parents: Dict[ast.AST, ast.AST] = {}
            for parent in ast.walk(self.tree):
                for child in ast.iter_child_nodes(parent):
                    parents[child] = parent
            self._parents = parents
        return self._parents

    def enclosing_function(
            self, node: ast.AST,
    ) -> Optional[Union[ast.FunctionDef, ast.AsyncFunctionDef]]:
        """Innermost FunctionDef/AsyncFunctionDef containing ``node``."""
        parents = self._parent_map()
        cur = parents.get(node)
        while cur is not None:
            if isinstance(cur, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return cur
            cur = parents.get(cur)
        return None

    def module_aliases(self) -> Dict[str, str]:
        """Names bound to modules in this file: ``{local_name: module}``.

        Covers ``import time``, ``import time as t`` and
        ``from time import perf_counter`` (mapping ``perf_counter`` to
        ``time.perf_counter``) at any nesting depth.
        """
        if self._aliases is None:
            aliases: Dict[str, str] = {}
            for node in ast.walk(self.tree):
                if isinstance(node, ast.Import):
                    for a in node.names:
                        aliases[a.asname or a.name.split(".")[0]] = a.name
                elif isinstance(node, ast.ImportFrom) and node.module:
                    for a in node.names:
                        aliases[a.asname or a.name] = f"{node.module}.{a.name}"
            self._aliases = aliases
        return self._aliases


@dataclass
class LintResult:
    """Outcome of one lint run."""

    violations: List[Violation] = field(default_factory=list)
    files_checked: int = 0
    errors: List[str] = field(default_factory=list)

    @property
    def counts(self) -> Dict[str, int]:
        """Violation tally per rule code."""
        tally: Dict[str, int] = {}
        for v in self.violations:
            tally[v.code] = tally.get(v.code, 0) + 1
        return dict(sorted(tally.items()))

    @property
    def ok(self) -> bool:
        """True when the run found nothing and hit no errors."""
        return not self.violations and not self.errors


def _selected_rules(select: Optional[Sequence[str]]) -> List[Rule]:
    if select is None:
        return [RULES[c] for c in sorted(RULES)]
    wanted = [c.upper() for c in select]
    unknown = [c for c in wanted if c not in RULES]
    if unknown:
        raise KeyError(f"unknown rule code(s): {', '.join(unknown)}")
    return [RULES[c] for c in sorted(set(wanted))]


def _discover(paths: Iterable[Path]) -> List[Path]:
    files: List[Path] = []
    for p in paths:
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        elif p.suffix == ".py":
            files.append(p)
    seen = set()
    unique = []
    for f in files:
        r = f.resolve()
        if r not in seen:
            seen.add(r)
            unique.append(f)
    return unique


def _check_file(ctx: FileContext, rules: Sequence[Rule],
                result: LintResult) -> None:
    suppressions = Suppressions.scan(ctx.lines)
    for r in rules:
        if not in_scope(ctx.path, r.scope):
            continue
        for violation in r.check(ctx):
            if not suppressions.suppressed(violation):
                result.violations.append(violation)


def lint_paths(paths: Sequence[Path], config: Optional[LintConfig] = None,
               select: Optional[Sequence[str]] = None) -> LintResult:
    """Lint every ``.py`` file under the given paths."""
    cfg = config or LintConfig()
    rules = _selected_rules(select)
    result = LintResult()
    for path in _discover(paths):
        rel = cfg.rel_path(path)
        if cfg.is_excluded(rel):
            continue
        try:
            source = path.read_bytes().decode()
            tree = ast.parse(source, filename=str(path))
        except (OSError, SyntaxError, ValueError) as exc:
            result.errors.append(f"{rel}: {exc}")
            continue
        result.files_checked += 1
        _check_file(FileContext(rel, source, tree), rules, result)
    result.violations.sort(key=lambda v: (v.path, v.line, v.col, v.code))
    return result


def lint_source(source: str, path: str = "<snippet>",
                select: Optional[Sequence[str]] = None) -> LintResult:
    """Lint one in-memory snippet (the test-fixture entry point).

    ``path`` participates in rule scoping exactly as an on-disk path
    would, so fixtures can opt in to path-scoped rules by choosing a
    matching pretend location.
    """
    rules = _selected_rules(select)
    result = LintResult()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        result.errors.append(f"{path}: {exc}")
        return result
    result.files_checked = 1
    _check_file(FileContext(path, source, tree), rules, result)
    result.violations.sort(key=lambda v: (v.path, v.line, v.col, v.code))
    return result
