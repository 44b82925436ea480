"""Structured event tracing.

Simulation components emit :class:`TraceRecord`-s (message sends, lease
phase transitions, fences, lock steals...).  The trace is the ground
truth consumed by the offline consistency audit and by the experiment
harness, so records are plain data and cheap to filter.

Cost model (the recorder sits on every message/IO hot path):

- ``counting=False, enabled=False`` makes the recorder a true no-op;
  the precomputed ``_noop`` flag lets hot callsites skip even the
  keyword-argument packing of :meth:`TraceRecorder.emit`;
- a stored record is four list appends (time, kind, node, the kwargs
  dict) and no per-record object.  A dict holding only atoms is not
  tracked by the cyclic GC, so a long recording adds four containers to
  the collector's walk instead of one object per record;
- :class:`TraceRecord` views, and the kind index behind
  :meth:`~TraceRecorder.select`, are built on the first read and
  extended from where the last read stopped; every read returns the
  same objects.  A recorder with subscribers builds each record's view
  as it is emitted.

Counters always update while ``counting`` is on, even when storage is
disabled — oracle and experiment code relies on exact counts.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable, DefaultDict, Dict, Iterator, List, Optional


class TraceRecord:
    """One traced occurrence (read-only: every reader shares it).

    ``kind`` is a dotted category such as ``"msg.send"``, ``"lease.phase"``,
    ``"lock.steal"``, ``"disk.write"``; ``node`` the emitting component;
    ``detail`` free-form keyed data.
    """

    __slots__ = ("time", "kind", "node", "detail")

    def __init__(self, time: float, kind: str, node: str,
                 detail: Optional[Dict[str, Any]] = None) -> None:
        self.time = time
        self.kind = kind
        self.node = node
        self.detail = {} if detail is None else detail

    def get(self, key: str, default: Any = None) -> Any:
        """Convenience accessor into ``detail``."""
        return self.detail.get(key, default)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceRecord):
            return NotImplemented
        return (self.time, self.kind, self.node, self.detail) == (
            other.time, other.kind, other.node, other.detail)

    def __repr__(self) -> str:
        return (f"TraceRecord(time={self.time!r}, kind={self.kind!r}, "
                f"node={self.node!r}, detail={self.detail!r})")


class TraceRecorder:
    """Append-only trace with cheap filtered views and counters."""

    def __init__(self, enabled: bool = True, counting: bool = True) -> None:
        self.enabled = enabled
        self.counting = counting
        # One column per field; emit() appends and builds nothing else.
        self._times: List[float] = []
        self._kinds: List[str] = []
        self._nodes: List[str] = []
        self._details: List[Dict[str, Any]] = []
        # Views of the first len(_views) records; the kind index for
        # select() covers the first _indexed of them.
        self._views: List[TraceRecord] = []
        self._by_kind: DefaultDict[str, List[TraceRecord]] = defaultdict(list)
        self._indexed = 0
        self._counts: Dict[str, int] = {}
        self._subscribers: List[Callable[[TraceRecord], None]] = []
        # True when emit() can return without doing any work at all;
        # hot callsites read this to skip kwargs packing entirely.
        self._noop = not enabled and not counting

    def emit(self, time: float, kind: str, node: str, **detail: Any) -> None:
        """Record one occurrence (counters update even when storage is off)."""
        if self._noop:
            return
        if self.counting:
            counts = self._counts
            counts[kind] = counts.get(kind, 0) + 1
        if not self.enabled:
            return
        self._times.append(time)
        self._kinds.append(kind)
        self._nodes.append(node)
        self._details.append(detail)
        if self._subscribers:
            rec = self._synced()[-1]
            for sub in self._subscribers:
                sub(rec)

    def subscribe(self, fn: Callable[[TraceRecord], None]) -> None:
        """Invoke ``fn`` on every stored record as it is emitted."""
        self._subscribers.append(fn)

    def _synced(self) -> List[TraceRecord]:
        """The view list, extended to the last stored record."""
        views = self._views
        start = len(views)
        if start < len(self._times):
            views.extend(map(TraceRecord, self._times[start:],
                             self._kinds[start:], self._nodes[start:],
                             self._details[start:]))
        return views

    def _kind_index(self) -> Dict[str, List[TraceRecord]]:
        """The kind index, extended to the last stored record."""
        views = self._synced()
        by_kind = self._by_kind
        for rec in views[self._indexed:]:
            by_kind[rec.kind].append(rec)
        self._indexed = len(views)
        return by_kind

    # -- queries --------------------------------------------------------
    def __len__(self) -> int:
        return len(self._times)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._synced())

    @property
    def records(self) -> List[TraceRecord]:
        """All stored records in emission order."""
        return list(self._synced())

    def count(self, kind: str) -> int:
        """Exact count of a kind (counted even when storage is off)."""
        return self._counts.get(kind, 0)

    def count_prefix(self, prefix: str) -> int:
        """Sum of counts over all kinds with the given dotted prefix."""
        return sum(c for k, c in self._counts.items() if k.startswith(prefix))

    def select(self, kind: Optional[str] = None, node: Optional[str] = None,
               prefix: Optional[str] = None) -> List[TraceRecord]:
        """Stored records matching the given filters."""
        pool = (self._kind_index().get(kind, []) if kind is not None
                else self._synced())
        out = []
        for r in pool:
            if prefix is not None and not r.kind.startswith(prefix):
                continue
            if node is not None and r.node != node:
                continue
            out.append(r)
        return out

    def kinds(self) -> Dict[str, int]:
        """Mapping of every seen kind to its count."""
        return dict(self._counts)

    def clear(self) -> None:
        """Drop stored records, their views and index, and counters."""
        self._times.clear()
        self._kinds.clear()
        self._nodes.clear()
        self._details.clear()
        self._views.clear()
        self._by_kind.clear()
        self._indexed = 0
        self._counts.clear()
