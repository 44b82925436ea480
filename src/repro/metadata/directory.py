"""A flat hierarchical namespace mapping paths to file ids."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple


class NamespaceError(Exception):
    """Lookup/create/unlink failure in the namespace."""


def _normalize(path: str) -> str:
    if not path or not path.startswith("/"):
        raise NamespaceError(f"paths must be absolute, got {path!r}")
    parts = [p for p in path.split("/") if p]
    return "/" + "/".join(parts)


def _placements(norm: str) -> Iterator[Tuple[str, str]]:
    """``(directory base, child)`` for every directory a path lists under.

    A base is ``"/"`` or a prefix of ``norm`` ending at a separator; the
    child is that prefix plus the next component: ``"/a/b"`` lists as
    ``"/a"`` under ``"/"`` and as ``"/a/b"`` under ``"/a/"``.
    """
    cut = 0
    while cut != -1:
        nxt = norm.find("/", cut + 1)
        yield norm[:cut + 1], norm if nxt == -1 else norm[:nxt]
        cut = nxt


class Directory:
    """Path → file-id namespace with implicit directories.

    Storage Tank's namespace lives on the server's private store; clients
    never parse directories themselves, they send lookups over the
    control network.  Implicit directories keep the model small while
    still letting workloads use realistic hierarchical paths.
    """

    def __init__(self) -> None:
        self._entries: Dict[str, int] = {}
        # Directory base -> {child path: bound paths listing through it};
        # a child is dropped when its count reaches zero, so an implicit
        # directory vanishes with its last entry.
        self._children: Dict[str, Dict[str, int]] = {}

    def create(self, path: str, file_id: int) -> None:
        """Bind a path to a file id."""
        norm = _normalize(path)
        if norm in self._entries:
            raise NamespaceError(f"path exists: {norm}")
        self._entries[norm] = file_id
        for base, child in _placements(norm):
            under = self._children.setdefault(base, {})
            under[child] = under.get(child, 0) + 1

    def lookup(self, path: str) -> int:
        """Resolve a path or raise :class:`NamespaceError`."""
        norm = _normalize(path)
        fid = self._entries.get(norm)
        if fid is None:
            raise NamespaceError(f"no such file: {norm}")
        return fid

    def exists(self, path: str) -> bool:
        """Whether the path is bound."""
        return _normalize(path) in self._entries

    def unlink(self, path: str) -> int:
        """Remove a binding, returning the file id it had."""
        norm = _normalize(path)
        try:
            fid = self._entries.pop(norm)
        except KeyError:
            raise NamespaceError(f"no such file: {norm}") from None
        for base, child in _placements(norm):
            under = self._children[base]
            under[child] -= 1
            if not under[child]:
                del under[child]
        return fid

    def listdir(self, prefix: str = "/") -> List[str]:
        """Paths directly under a directory prefix."""
        norm = _normalize(prefix)
        base = norm if norm == "/" else norm + "/"
        return sorted(self._children.get(base, ()))

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._entries))
