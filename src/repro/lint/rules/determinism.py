"""RPL001 — simulation code must be deterministic.

Experiment results are only comparable (and the protocol arguments only
checkable) when every run with one seed is bit-identical.  Wall-clock
reads and ambient ``random`` draws break that: sim code must measure
time on ``sim.clock``/``sim.now`` and draw randomness from the named
``sim.rng`` streams.  A wall-clock wait (``time.sleep``) is flagged too:
a simulated node waits by yielding a sim timeout, and a handler that
blocks the process stalls every delivery behind it (the passive server
of §3 answers inside the delivery).  The harness may time itself
against the wall, but only through the single allowlisted helper
(``harness.common.wall_timer``), which keeps the sim-time/wall-time
policy auditable in one place.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Dict, Iterator

from repro.lint.rules import Rule, Violation, rule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.lint.engine import FileContext

#: Functions whose call means "read (or wait on) the wall clock".
_WALL_CLOCK = {
    "time": {"time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
             "perf_counter_ns", "process_time", "process_time_ns",
             "localtime", "gmtime", "ctime", "strftime", "sleep"},
    "datetime": {"now", "utcnow", "today"},
    "datetime.datetime": {"now", "utcnow", "today"},
    "datetime.date": {"today"},
}

#: Module-level ``random`` functions (ambient global RNG state).
_AMBIENT_RANDOM = {"random", "randint", "randrange", "uniform", "choice",
                   "choices", "shuffle", "sample", "seed", "gauss",
                   "normalvariate", "betavariate", "expovariate", "getrandbits"}

#: The one function allowed to touch the wall clock: (file, function).
_WALL_TIMER = ("src/repro/harness/common.py", "wall_timer")


@rule
class DeterminismRule(Rule):
    """Flag wall-clock reads and ambient ``random`` calls in sim code."""

    code = "RPL001"
    name = "determinism"
    description = ("no wall-clock reads or waits and no ambient randomness "
                   "in sim code; use sim.clock / sim.rng (harness wall-clock "
                   "goes through the allowlisted wall_timer helper)")
    paper_ref = "reproducible runs underpin every experimental claim (§5-§6)"
    scope = ["src/repro"]

    def check(self, ctx: "FileContext") -> Iterator[Violation]:
        """Yield a violation per wall-clock / ambient-random call site."""
        timer_file, timer_fn = _WALL_TIMER
        in_timer_file = ctx.path.endswith(timer_file)
        aliases: Dict[str, str] = ctx.module_aliases()

        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = self._resolve(node.func, aliases)
            if target is None:
                continue
            module, _, fn = target.rpartition(".")
            hit = (fn in _WALL_CLOCK.get(module, ())
                   or (module == "random" and fn in _AMBIENT_RANDOM))
            if not hit:
                continue
            if (in_timer_file
                    and self.enclosing_function(ctx, node) == timer_fn):
                continue
            if module == "random":
                message = (f"ambient random call `{target}()` in sim code — "
                           f"use sim.rng")
            elif fn == "sleep":
                message = (f"wall-clock wait `{target}()` in sim code — "
                           f"wait on sim time (yield a sim timeout)")
            else:
                message = (f"wall clock call `{target}()` in sim code — use "
                           f"sim.clock (or the allowlisted wall_timer helper)")
            yield Violation(self.code, message, ctx.path, node.lineno,
                            node.col_offset)

    @staticmethod
    def _resolve(func: ast.AST, aliases: Dict[str, str]) -> "str | None":
        """Dotted name of the called function, de-aliased via imports."""
        if isinstance(func, ast.Name):
            # Bare call: only meaningful if the name was imported from a
            # clock/random module (``from time import perf_counter``).
            origin = aliases.get(func.id)
            return origin
        parts = Rule.attribute_chain(func)
        if parts is None or len(parts) < 2:
            return None
        root = aliases.get(parts[0])
        if root is None:
            return None
        return ".".join([root] + parts[1:])
