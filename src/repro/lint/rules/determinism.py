"""RPL001 — simulation code must be deterministic.

Experiment results are only comparable (and the protocol arguments only
checkable) when every run with one seed is bit-identical.  Wall-clock
reads and ambient ``random`` draws break that: sim code must measure
time on ``sim.clock``/``sim.now`` and draw randomness from the named
``sim.rng`` streams.  The harness may time itself against the wall, but
only through the single allowlisted helper
(``harness.common.wall_timer``), which keeps the sim-time/wall-time
policy auditable in one place.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set

from typing import TYPE_CHECKING

from repro.lint.rules import Rule, Violation, rule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.lint.engine import FileContext

#: Functions whose call means "read the wall clock".
_WALL_CLOCK = {
    "time": {"time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
             "perf_counter_ns", "process_time", "process_time_ns",
             "localtime", "gmtime", "ctime", "strftime"},
    "datetime": {"now", "utcnow", "today"},
    "datetime.datetime": {"now", "utcnow", "today"},
    "datetime.date": {"today"},
}

#: Module-level ``random`` functions (ambient global RNG state).
_AMBIENT_RANDOM = {"random", "randint", "randrange", "uniform", "choice",
                   "choices", "shuffle", "sample", "seed", "gauss",
                   "normalvariate", "betavariate", "expovariate", "getrandbits"}


@rule
class DeterminismRule(Rule):
    """Flag wall-clock reads and ambient ``random`` calls in sim code."""

    code = "RPL001"
    name = "determinism"
    description = ("no wall-clock reads or ambient randomness in sim code; "
                   "use sim.clock / sim.rng (harness wall-clock goes through "
                   "the allowlisted wall_timer helper)")
    paper_ref = "reproducible runs underpin every experimental claim (§5-§6)"
    scope = ["src/repro"]

    def check(self, ctx: "FileContext") -> Iterator[Violation]:
        """Yield a violation per wall-clock / ambient-random call site."""
        opts = ctx.config.options_for(self.code)
        allow: List[str] = list(opts.get(
            "allow-functions", ["src/repro/harness/common.py::wall_timer"]))
        allowed_fns: Set[str] = set()
        for entry in allow:
            file_part, _, fn_part = str(entry).partition("::")
            if not fn_part or ctx.path == file_part or ctx.path.endswith(file_part):
                allowed_fns.add(fn_part or "*")
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
            enclosing = self.enclosing_function(ctx, node)
            if enclosing is not None and enclosing in allowed_fns:
                continue
            kind = ("ambient random" if module == "random" else "wall clock")
            yield Violation(
                self.code,
                f"{kind} call `{target}()` in sim code — use sim.clock / "
                f"sim.rng (or the allowlisted wall_timer helper)",
                ctx.path, node.lineno, node.col_offset)

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
