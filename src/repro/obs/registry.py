"""Metrics registry: counters, gauges and histograms with labels.

One :class:`MetricsRegistry` per built system is the single collection
point for every quantitative claim the experiments make — most
importantly the E7/E9 overhead trio (``lease.server.state_bytes``,
``lease.server.cpu_ops``, ``lease.server.msgs_sent``) and
``lease.client.msgs_sent``.  Protocol code increments registry
instruments instead of bespoke attributes.  Those four families have
four readers, all through :meth:`MetricsRegistry.value`: E7, E9, the
run collector (:mod:`repro.obs.runlog`) and the ``passive-server``
oracle; the exporters copy :meth:`MetricsRegistry.snapshot` whole.

Design notes:

- *families + children*: ``registry.counter("lock.steals", labels=("node",))``
  returns a :class:`Metric` family; ``family.labels(node="server")`` a
  per-label-set child holding the value.  Families are idempotent —
  re-declaring with the same kind returns the existing family.
- *cardinality guard*: a family refuses to materialize more than
  ``max_label_sets`` distinct label sets (:class:`CardinalityError`),
  so a typo'd high-cardinality label (message ids, block numbers)
  fails loudly instead of silently eating memory.
- *callback gauges*: ``gauge.labels(...).set_function(fn)`` samples the
  source of truth at read time — how pre-existing substrate counters
  (network delivery counts, SAN byte counts) are mirrored into the
  registry without double bookkeeping.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: Default histogram bucket upper bounds (simulated seconds).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 15.0, 60.0)

#: Default limit on distinct label sets per metric family.
DEFAULT_MAX_LABEL_SETS = 1024


class CardinalityError(RuntimeError):
    """A metric family exceeded its distinct-label-set budget."""


class MetricError(ValueError):
    """Invalid metric declaration or use (kind clash, bad labels...)."""


class _Child:
    """Base class for one (family, label set) instrument."""

    __slots__ = ("labels",)

    def __init__(self, labels: Dict[str, str]) -> None:
        self.labels = labels


class CounterChild(_Child):
    """A monotonically increasing count."""

    __slots__ = ("_value",)

    def __init__(self, labels: Dict[str, str]) -> None:
        super().__init__(labels)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add a non-negative amount."""
        if amount < 0:
            raise MetricError("counters only go up; use a gauge")
        self._value += amount

    @property
    def value(self) -> float:
        """Current count."""
        return self._value


class GaugeChild(_Child):
    """A value that can go up and down, or track a callback."""

    __slots__ = ("_value", "_fn")

    def __init__(self, labels: Dict[str, str]) -> None:
        super().__init__(labels)
        self._value = 0.0
        self._fn: Optional[Callable[[], float]] = None

    def set(self, value: float) -> None:
        """Set the gauge to an absolute value."""
        self._fn = None
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Adjust the gauge by a (possibly negative) delta."""
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Decrease the gauge."""
        self._value -= amount

    def set_function(self, fn: Callable[[], float]) -> None:
        """Sample ``fn()`` at read time instead of storing a value."""
        self._fn = fn

    @property
    def value(self) -> float:
        """Current value (invokes the callback if one is installed)."""
        if self._fn is not None:
            return float(self._fn())
        return self._value


class HistogramChild(_Child):
    """Bucketed distribution of observed values."""

    __slots__ = ("buckets", "bucket_counts", "count", "sum")

    def __init__(self, labels: Dict[str, str],
                 buckets: Tuple[float, ...]) -> None:
        super().__init__(labels)
        self.buckets = buckets
        self.bucket_counts = [0] * (len(buckets) + 1)  # +inf overflow bucket
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.count += 1
        self.sum += value
        # First bound with value <= bound, i.e. bisect_left; index
        # len(buckets) lands in the +inf overflow slot.
        self.bucket_counts[bisect_left(self.buckets, value)] += 1

    @property
    def value(self) -> float:
        """Sum of observations (the series value exported for histograms)."""
        return self.sum

    def quantile(self, q: float) -> float:
        """Approximate quantile from bucket upper bounds."""
        if self.count == 0:
            return 0.0
        target = q * self.count
        seen = 0
        for i, n in enumerate(self.bucket_counts):
            seen += n
            if seen >= target:
                return self.buckets[i] if i < len(self.buckets) else float("inf")
        return float("inf")


_CHILD_TYPES = {"counter": CounterChild, "gauge": GaugeChild,
                "histogram": HistogramChild}


class Metric:
    """One named metric family: a kind, label names and children."""

    __slots__ = ("name", "kind", "help", "label_names", "max_label_sets",
                 "buckets", "_children", "_nolabel_child")

    def __init__(self, name: str, kind: str, help: str,
                 label_names: Tuple[str, ...], max_label_sets: int,
                 buckets: Tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names = label_names
        self.max_label_sets = max_label_sets
        self.buckets = buckets
        self._children: Dict[Tuple[str, ...], _Child] = {}
        # Cached child for the common label-less family: labels() on a
        # hot path then costs one attribute read, no dict or tuple work.
        self._nolabel_child: Optional[_Child] = None

    def labels(self, **labels: str) -> Any:
        """The child instrument for one label set (created on demand)."""
        names = self.label_names
        if not labels and not names:
            child = self._nolabel_child
            if child is None:
                child = self._nolabel_child = self._materialize(())
            return child
        # Direct key build doubles as validation: a missing name raises
        # KeyError, extras are caught by the length check — no per-call
        # sorting of the label names.
        try:
            key = tuple(str(labels[k]) for k in names)
        except KeyError:
            raise MetricError(
                f"{self.name}: expected labels {names}, "
                f"got {tuple(sorted(labels))}") from None
        if len(labels) != len(names):
            raise MetricError(
                f"{self.name}: expected labels {names}, "
                f"got {tuple(sorted(labels))}")
        child = self._children.get(key)
        if child is None:
            child = self._materialize(key)
        return child

    def _materialize(self, key: Tuple[str, ...]) -> _Child:
        if len(self._children) >= self.max_label_sets:
            raise CardinalityError(
                f"{self.name}: more than {self.max_label_sets} label sets "
                f"(label names {self.label_names}); pick lower-cardinality "
                f"labels or raise the registry's max_label_sets")
        lbl = dict(zip(self.label_names, key))
        child: _Child
        if self.kind == "histogram":
            child = HistogramChild(lbl, self.buckets)
        else:
            child = _CHILD_TYPES[self.kind](lbl)
        self._children[key] = child
        return child

    @property
    def children(self) -> List[_Child]:
        """All materialized children, in creation order."""
        return list(self._children.values())

    def total(self) -> float:
        """Sum of every child's value (counters/gauges: values;
        histograms: sums)."""
        return sum(c.value for c in self._children.values())


class MetricsRegistry:
    """Collection point for every metric family of one system."""

    def __init__(self, max_label_sets: int = DEFAULT_MAX_LABEL_SETS,
                 default_buckets: Tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self.max_label_sets = max_label_sets
        self.default_buckets = tuple(default_buckets)
        self._families: Dict[str, Metric] = {}

    # -- declaration ----------------------------------------------------
    def _declare(self, name: str, kind: str, help: str,
                 labels: Iterable[str], buckets: Optional[Tuple[float, ...]],
                 ) -> Metric:
        label_names = tuple(labels)
        fam = self._families.get(name)
        if fam is not None:
            if fam.kind != kind:
                raise MetricError(f"{name} already declared as {fam.kind}")
            if fam.label_names != label_names:
                raise MetricError(
                    f"{name} already declared with labels {fam.label_names}")
            return fam
        fam = Metric(name, kind, help, label_names, self.max_label_sets,
                     buckets=tuple(buckets) if buckets else self.default_buckets)
        self._families[name] = fam
        return fam

    def counter(self, name: str, help: str = "",
                labels: Iterable[str] = ()) -> Metric:
        """Declare (idempotently) a counter family."""
        return self._declare(name, "counter", help, labels, None)

    def gauge(self, name: str, help: str = "",
              labels: Iterable[str] = ()) -> Metric:
        """Declare (idempotently) a gauge family."""
        return self._declare(name, "gauge", help, labels, None)

    def histogram(self, name: str, help: str = "",
                  labels: Iterable[str] = (),
                  buckets: Optional[Tuple[float, ...]] = None) -> Metric:
        """Declare (idempotently) a histogram family."""
        return self._declare(name, "histogram", help, labels, buckets)

    # -- reading ---------------------------------------------------------
    def get(self, name: str) -> Optional[Metric]:
        """Look up a family by name (None if never declared)."""
        return self._families.get(name)

    def value(self, name: str, **labels: str) -> float:
        """Convenience: one child's current value (0.0 if absent)."""
        fam = self._families.get(name)
        if fam is None:
            return 0.0
        key = tuple(str(labels[k]) for k in fam.label_names if k in labels)
        if len(key) != len(fam.label_names):
            return fam.total()
        child = fam._children.get(key)
        return child.value if child is not None else 0.0

    def snapshot(self) -> Dict[str, Any]:
        """Full registry state as plain data (stable export shape)."""
        out: Dict[str, Any] = {}
        for fam in self._families.values():
            series = []
            for child in fam.children:
                entry: Dict[str, Any] = {"labels": dict(child.labels)}
                if isinstance(child, HistogramChild):
                    entry["count"] = child.count
                    entry["sum"] = child.sum
                    entry["buckets"] = {str(b): n for b, n in
                                        zip(fam.buckets, child.bucket_counts)}
                    entry["buckets"]["+inf"] = child.bucket_counts[-1]
                else:
                    entry["value"] = child.value
                series.append(entry)
            out[fam.name] = {"kind": fam.kind, "help": fam.help,
                             "series": series}
        return out
