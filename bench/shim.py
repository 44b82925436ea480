"""Config shim: call the program's constructors with the fields they still have.

The ROADMAP deletes feature flags (``intents``, ``lazy_clients``,
``demand_chain``).  The benchmark is frozen once accepted, so it may not
break when a field it sets disappears: every config dataclass and every
flag-taking entry point is called through :meth:`ConfigShim.build`, which
passes only the keyword arguments the target still accepts and records
the rest, so a run says which of its intended settings no longer exist.
"""

from __future__ import annotations

import dataclasses
import inspect
from typing import Any, Callable, List


class ConfigShim:
    """Filters keyword arguments against the target's current signature."""

    def __init__(self) -> None:
        #: ``"Target.field"`` for every argument that was asked for and
        #: silently could not be passed.
        self.dropped: List[str] = []

    def build(self, target: Callable[..., Any], *args: Any, **fields: Any) -> Any:
        """``target(*args, **fields)`` minus the fields ``target`` lacks."""
        if dataclasses.is_dataclass(target):
            known = {f.name for f in dataclasses.fields(target) if f.init}
        else:
            params = inspect.signature(target).parameters
            if any(p.kind is p.VAR_KEYWORD for p in params.values()):
                known = set(fields)
            else:
                known = set(params)
        kept = {}
        for name, value in fields.items():
            if name in known:
                kept[name] = value
            else:
                label = f"{getattr(target, '__name__', target)}.{name}"
                if label not in self.dropped:
                    self.dropped.append(label)
        return target(*args, **kept)
