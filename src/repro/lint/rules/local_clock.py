"""RPL003 — every node reads only its own clock (Theorem 3.1).

The safety proof orders events across machines using only *rate*
synchronization: each node measures intervals on its own clock and no
node ever interprets another node's clock reading.  Cross-node clock
reads (``other_node.clock.now()``, ``self.peer.endpoint.local_now()``,
``system.client("c1").clock.local_time(t)``) would smuggle absolute-time
comparisons back in and void the ordered-events argument.

Mechanically, inside the protocol modules this rule flags:

* any ``<recv>.clock`` attribute access whose receiver is not ``self`` —
  protocol code may touch only its own node's clock;
* any ``local_now()`` / ``local_timeout()`` / ``global_interval()`` call
  whose receiver chain addresses another node: the chain passes through
  a subscript or call (``nodes[i]``, ``system.client("c")``) or through
  an attribute named like a foreign node (``peer``, ``other``, ...).
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional

from typing import TYPE_CHECKING

from repro.lint.rules import Rule, Violation, rule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.lint.engine import FileContext

_CLOCK_READS = {"local_now", "local_timeout", "global_interval"}
_FOREIGN = {"peer", "peers", "other", "others", "remote", "neighbor",
            "neighbors"}

_PROTOCOL_SCOPE = [
    "src/repro/client", "src/repro/server", "src/repro/lease",
    "src/repro/locks", "src/repro/net", "src/repro/protocols",
    "src/repro/cluster", "src/repro/storage",
]


@rule
class LocalClockRule(Rule):
    """Forbid cross-node clock reads in protocol code (Thm 3.1)."""

    code = "RPL003"
    name = "local-clock-only"
    description = ("protocol code must not read another node's clock "
                   "(cross-node clock reach-through)")
    paper_ref = "rate-synchronization-only ordering argument (Thm 3.1)"
    scope = _PROTOCOL_SCOPE

    def check(self, ctx: "FileContext") -> Iterator[Violation]:
        """Yield a violation per cross-node clock read."""
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Attribute) and node.attr == "clock":
                recv = node.value
                if not (isinstance(recv, ast.Name) and recv.id == "self"):
                    yield Violation(
                        self.code,
                        f"clock reach-through `{ast.unparse(node)}` — a node "
                        f"may read only its own clock (Thm 3.1); go through "
                        f"this node's endpoint.local_now()",
                        ctx.path, node.lineno, node.col_offset)
                continue

            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _CLOCK_READS):
                problem = self._foreign_receiver(node.func.value)
                if problem is not None:
                    yield Violation(
                        self.code,
                        f"cross-node clock read "
                        f"`{ast.unparse(node.func)}(...)` ({problem}) — "
                        f"every node measures time on its own clock only "
                        f"(Thm 3.1)",
                        ctx.path, node.lineno, node.col_offset)

    @staticmethod
    def _foreign_receiver(recv: ast.AST) -> Optional[str]:
        """Why the receiver addresses another node, or None if it is local.

        A receiver is local when it is a plain name / attribute chain
        that never names a foreign-node attribute.  Subscripts and calls
        in the chain address some *other* node picked at runtime.
        """
        names: List[str] = []
        cur = recv
        while True:
            if isinstance(cur, ast.Attribute):
                names.append(cur.attr)
                cur = cur.value
            elif isinstance(cur, ast.Name):
                names.append(cur.id)
                break
            elif isinstance(cur, (ast.Subscript, ast.Call)):
                return "receiver selects a node at runtime"
            else:
                return None  # literals etc.: nothing to judge
        hits = [n for n in names if n in _FOREIGN]
        if hits:
            return f"receiver chain names foreign node {hits[0]!r}"
        return None
