"""Decorator-based experiment registry.

Experiments and ablations self-register with :func:`experiment` instead
of being wired into hand-maintained dispatch dicts::

    @experiment("e7", summary="server/client overhead counters")
    def experiment_e7_overhead(seed: int = 0, ...) -> Table: ...

``python -m repro.harness --list`` enumerates the registry;
``python -m repro.harness all`` runs every entry not marked ``heavy``
(the E-scale sweep opts out of ``all`` because a 100k-client build is
minutes, not seconds).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, Optional, Tuple


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment: its id, callable and metadata."""

    name: str
    fn: Callable[..., Any]
    summary: str
    heavy: bool = False


_REGISTRY: Dict[str, ExperimentSpec] = {}


def experiment(name: str, *, summary: Optional[str] = None,
               heavy: bool = False) -> Callable[[Callable[..., Any]],
                                                Callable[..., Any]]:
    """Class-of-2000s plugin decorator: register ``fn`` under ``name``.

    ``summary`` defaults to the first line of the function's docstring;
    ``heavy=True`` keeps the experiment out of ``run: all`` (it must be
    requested by name).  Duplicate names raise :class:`ValueError` at
    import time, where the collision is easiest to see.
    """

    def deco(fn: Callable[..., Any]) -> Callable[..., Any]:
        text = summary
        if text is None:
            doc = fn.__doc__ or ""
            text = doc.strip().splitlines()[0] if doc.strip() else fn.__name__
        register(ExperimentSpec(name=name, fn=fn, summary=text, heavy=heavy))
        return fn

    return deco


def register(spec: ExperimentSpec) -> None:
    """Add ``spec`` to the registry; reject duplicate names."""
    if spec.name in _REGISTRY:
        raise ValueError(
            f"experiment {spec.name!r} is already registered "
            f"({_REGISTRY[spec.name].fn.__qualname__})")
    _REGISTRY[spec.name] = spec


def lookup(name: str) -> ExperimentSpec:
    """Return the spec registered under ``name`` (KeyError with choices)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown experiment {name!r}; "
                       f"registered: {', '.join(names())}") from None


def names() -> Tuple[str, ...]:
    """All registered experiment ids, in registration order."""
    return tuple(_REGISTRY)


def iter_specs() -> Iterator[ExperimentSpec]:
    """Iterate the registered specs in registration order."""
    return iter(_REGISTRY.values())


def view() -> Dict[str, Callable[..., Any]]:
    """A name -> callable dispatch dict over every registered experiment."""
    return {spec.name: spec.fn for spec in _REGISTRY.values()}


def runnable_by_default() -> Tuple[str, ...]:
    """The ids ``run: all`` expands to — every non-heavy experiment."""
    return tuple(s.name for s in _REGISTRY.values() if not s.heavy)
