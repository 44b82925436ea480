"""Span-based tracing: named intervals of simulated time.

A :class:`Span` is a named interval of *simulated* time attributed to a
node — a lease phase, a message round-trip, a lock-steal resolution, a
recovery window.  Spans nest through an explicit ``parent`` argument;
there is no implicit context-manager nesting because span lifetimes
routinely straddle generator ``yield`` points in simulator processes,
where a ``with`` block's dynamic extent would lie about the interval.

Spans are recorded here only, apart from the run's ``TraceRecorder``:
exporters read :attr:`SpanTracer.completed`, and no trace record is
emitted for a span.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional


class Span:
    """One named interval of simulated time on one node."""

    __slots__ = ("span_id", "parent_id", "kind", "node", "start", "end_time",
                 "attrs", "_tracer")

    def __init__(self, tracer: "SpanTracer", span_id: int,
                 parent_id: Optional[int], kind: str, node: str,
                 start: float, attrs: Dict[str, Any]) -> None:
        self._tracer = tracer
        self.span_id = span_id
        self.parent_id = parent_id
        self.kind = kind
        self.node = node
        self.start = start
        self.end_time: Optional[float] = None
        self.attrs = attrs

    @property
    def open(self) -> bool:
        """True until :meth:`end` is called."""
        return self.end_time is None

    @property
    def duration(self) -> Optional[float]:
        """Simulated seconds from begin to end (None while open)."""
        if self.end_time is None:
            return None
        return self.end_time - self.start

    def end(self, t: float, **attrs: Any) -> "Span":
        """Close the span at simulated time ``t`` (idempotent)."""
        if self.end_time is None:
            self.attrs.update(attrs)
            self._tracer._close(self, t)
        return self

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form for export."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "kind": self.kind,
            "node": self.node,
            "start": self.start,
            "end": self.end_time,
            "duration": self.duration,
            "attrs": dict(self.attrs),
        }


class SpanTracer:
    """Factory and archive for :class:`Span` intervals.

    Takes explicit time arguments rather than a clock so callers pass
    the same local/global simulated times they already thread through
    the protocol code.  Completed spans are retained (bounded by
    ``max_spans``) for export.
    """

    def __init__(self, max_spans: int = 100_000) -> None:
        self.max_spans = max_spans
        self._ids = itertools.count(1)
        self._open: Dict[int, Span] = {}
        self.completed: List[Span] = []
        self.dropped = 0

    def begin(self, t: float, kind: str, node: str,
              parent: Optional[Span] = None, **attrs: Any) -> Span:
        """Open a span at simulated time ``t``."""
        span = Span(self, next(self._ids),
                    parent.span_id if parent is not None else None,
                    kind, node, t, dict(attrs))
        self._open[span.span_id] = span
        return span

    def _close(self, span: Span, t: float) -> None:
        span.end_time = t
        self._open.pop(span.span_id, None)
        if len(self.completed) < self.max_spans:
            self.completed.append(span)
        else:
            self.dropped += 1

    def open_spans(self) -> List[Span]:
        """Spans begun but not yet ended."""
        return list(self._open.values())

    def select(self, kind_prefix: str) -> List[Span]:
        """Completed spans whose kind matches a dotted prefix."""
        return [s for s in self.completed
                if s.kind == kind_prefix or s.kind.startswith(kind_prefix + ".")]

    def children_of(self, span: Span) -> List[Span]:
        """Completed spans whose parent is ``span``."""
        return [s for s in self.completed if s.parent_id == span.span_id]

    def total_duration(self, kind_prefix: str) -> float:
        """Sum of durations over completed spans matching a prefix."""
        return sum(s.duration or 0.0 for s in self.select(kind_prefix))

    def to_dicts(self) -> List[Dict[str, Any]]:
        """All completed spans as plain data, in completion order."""
        return [s.to_dict() for s in self.completed]
