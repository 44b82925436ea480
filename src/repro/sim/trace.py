"""Structured event tracing.

Simulation components emit :class:`TraceRecord`-s (message sends, lease
phase transitions, fences, lock steals...).  The trace is the ground
truth consumed by the offline consistency audit and by the experiment
harness, so records are plain data and cheap to filter.

Cost model (the recorder sits on every message/IO hot path):

- ``counting=False, enabled=False`` makes the recorder a true no-op;
  the precomputed ``_noop`` flag lets hot callsites skip even the
  keyword-argument packing of :meth:`TraceRecorder.emit`;
- stored records are indexed by kind so :meth:`select` with a ``kind``
  filter does not scan the whole trace.

Counters always update while ``counting`` is on, even when storage is
disabled — oracle and experiment code relies on exact counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One traced occurrence.

    ``kind`` is a dotted category such as ``"msg.send"``, ``"lease.phase"``,
    ``"lock.steal"``, ``"disk.write"``; ``node`` the emitting component;
    ``detail`` free-form keyed data.
    """

    time: float
    kind: str
    node: str
    detail: Dict[str, Any] = field(default_factory=dict)

    def get(self, key: str, default: Any = None) -> Any:
        """Convenience accessor into ``detail``."""
        return self.detail.get(key, default)


class TraceRecorder:
    """Append-only trace with cheap filtered views and counters."""

    def __init__(self, enabled: bool = True, counting: bool = True) -> None:
        self.enabled = enabled
        self.counting = counting
        self._records: List[TraceRecord] = []
        self._counts: Dict[str, int] = {}
        self._subscribers: List[Callable[[TraceRecord], None]] = []
        # Kind index for select().
        self._by_kind: Dict[str, List[TraceRecord]] = {}
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
        rec = TraceRecord(time=time, kind=kind, node=node, detail=detail)
        self._records.append(rec)
        bucket = self._by_kind.get(kind)
        if bucket is None:
            self._by_kind[kind] = [rec]
        else:
            bucket.append(rec)
        for sub in self._subscribers:
            sub(rec)

    def subscribe(self, fn: Callable[[TraceRecord], None]) -> None:
        """Invoke ``fn`` on every stored record as it is emitted."""
        self._subscribers.append(fn)

    # -- queries --------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    @property
    def records(self) -> List[TraceRecord]:
        """All stored records in emission order."""
        return list(self._records)

    def count(self, kind: str) -> int:
        """Exact count of a kind (counted even when storage is off)."""
        return self._counts.get(kind, 0)

    def count_prefix(self, prefix: str) -> int:
        """Sum of counts over all kinds with the given dotted prefix."""
        return sum(c for k, c in self._counts.items() if k.startswith(prefix))

    def select(self, kind: Optional[str] = None, node: Optional[str] = None,
               prefix: Optional[str] = None) -> List[TraceRecord]:
        """Stored records matching the given filters."""
        pool = (self._by_kind.get(kind, []) if kind is not None
                else self._records)
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
        """Drop stored records and counters."""
        self._records.clear()
        self._counts.clear()
        self._by_kind.clear()
