"""Configuration for the linter (``[tool.repro-lint]`` in pyproject.toml).

Every rule fixes its own path scope and has no options, so the linter
works with no configuration at all.  The one key is the global exclude
list::

    [tool.repro-lint]
    exclude = ["tests/lint/fixtures"]

Its entries are interpreted relative to the directory holding the
config file (the project root) and match by prefix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

try:  # Python 3.11+
    import tomllib as _toml
except ImportError:  # pragma: no cover - fallback for 3.9/3.10 images
    try:
        import tomli as _toml  # type: ignore[import-not-found, no-redef]
    except ImportError:
        _toml = None  # type: ignore[assignment]


@dataclass
class LintConfig:
    """Resolved linter configuration."""

    #: Project root every configured path is relative to.
    root: Path = field(default_factory=Path.cwd)
    #: Path prefixes (relative to ``root``) excluded from all rules.
    exclude: List[str] = field(default_factory=list)

    def rel_path(self, path: Path) -> str:
        """``path`` relative to the project root, as a posix string.

        Paths outside the root are returned as given (posix-normalised)
        so prefix matching still behaves predictably.
        """
        try:
            return path.resolve().relative_to(self.root.resolve()).as_posix()
        except ValueError:
            return path.as_posix()

    def is_excluded(self, rel: str) -> bool:
        """Whether a root-relative path falls under a global exclude."""
        return _matches_any(rel, self.exclude)


def _matches_any(rel: str, prefixes: Sequence[str]) -> bool:
    """Prefix match on path components (``src/repro`` matches
    ``src/repro/sim/clock.py`` but not ``src/repro-extras/x.py``)."""
    for prefix in prefixes:
        p = prefix.rstrip("/")
        if rel == p or rel.startswith(p + "/"):
            return True
    return False


def in_scope(rel: str, scope: Optional[Sequence[str]]) -> bool:
    """Whether a root-relative path is inside a rule's path scope.

    ``None`` means unscoped (applies everywhere the engine looks).
    """
    if scope is None:
        return True
    return _matches_any(rel, scope)


def load_config(explicit: Optional[Path] = None,
                start: Optional[Path] = None) -> LintConfig:
    """Load ``[tool.repro-lint]`` from a pyproject file.

    ``explicit`` names the file directly; otherwise the search walks up
    from ``start`` (default: the current directory) to the filesystem
    root looking for a ``pyproject.toml``.  A missing file or a missing
    table yields the built-in defaults.
    """
    path = explicit
    if path is None:
        here = (start or Path.cwd()).resolve()
        for candidate in [here, *here.parents]:
            probe = candidate / "pyproject.toml"
            if probe.is_file():
                path = probe
                break
    if path is None or not path.is_file():
        return LintConfig(root=(start or Path.cwd()).resolve())

    table: Dict[str, Any] = {}
    if _toml is not None:
        with open(path, "rb") as fh:
            doc = _toml.load(fh)
        table = doc.get("tool", {}).get("repro-lint", {}) or {}

    return LintConfig(root=path.parent.resolve(),
                      exclude=[str(p) for p in table.get("exclude", [])])
