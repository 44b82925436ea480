"""Unified observability layer: metrics registry, spans, exporters.

``repro.obs`` is the single substrate through which every protocol
reports the paper's E7/E9 overhead counters (server lease state bytes,
lease CPU ops, lease messages) and through which experiments export
machine-readable run documents (``BENCH_obs.json``).

The pieces:

- :mod:`repro.obs.registry` — Prometheus-flavoured counters, gauges and
  histograms with labels and a cardinality guard.
- :mod:`repro.obs.spans` — span tracing over simulated time, layered on
  ``sim.trace.TraceRecorder``.
- :mod:`repro.obs.export` — versioned JSON/CSV export schema.
- :mod:`repro.obs.runlog` — run collection: samples per-protocol
  overhead series while experiments execute.
- :mod:`repro.obs.artifact` — versioned failure artifacts written by
  the schedule fuzzer (:mod:`repro.simtest`) for seed replay.

An :class:`Observability` bundle (one per built system) ties a registry
to a span tracer.  Spans follow the run collector: ``build_system``
switches them on exactly when one is active.  This package never
imports ``repro.core``.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.obs.registry import (CardinalityError, MetricError,
                                MetricsRegistry, DEFAULT_BUCKETS,
                                DEFAULT_MAX_LABEL_SETS)
from repro.obs.spans import Span, SpanTracer

__all__ = [
    "Observability", "MetricsRegistry", "SpanTracer", "Span",
    "CardinalityError", "MetricError", "DEFAULT_BUCKETS",
    "DEFAULT_MAX_LABEL_SETS",
]


class Observability:
    """One system's metrics registry plus (optional) span tracer.

    ``spans_enabled`` gates all span creation: when off (the tier-1
    default) :meth:`begin_span` returns ``None`` and instrumented code
    falls through without touching the tracer, so the simulation's
    event sequence is untouched.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 tracer: Optional[SpanTracer] = None,
                 spans_enabled: bool = False) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else SpanTracer()
        self.spans_enabled = spans_enabled

    def begin_span(self, t: float, kind: str, node: str,
                   parent: Optional[Span] = None, **attrs: Any,
                   ) -> Optional[Span]:
        """Open a span if span collection is on; otherwise ``None``.

        Callers hold the returned handle and ``.end(t)`` it, guarding
        with ``if span is not None`` — the cheap no-op path keeps hot
        protocol code free of tracer work in normal runs.
        """
        if not self.spans_enabled:
            return None
        return self.tracer.begin(t, kind, node, parent=parent, **attrs)
