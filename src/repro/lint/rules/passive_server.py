"""RPL002 — the server is passive about leases (paper §3).

The headline property of the paper's server protocol: during normal
operation the server keeps **no** lease state, runs **no** lease timers
and sends **no** lease messages.  Only a *delivery error* may create a
suspect entry with its single τ(1+ε) timer.  Mechanically, inside the
server-side modules this rule flags:

* spawning a simulator process whose generator or ``name=`` label looks
  lease-related (``lease``/``keepalive``/``heartbeat``/``renew``/
  ``timer``) from any function *outside* the delivery-error path
  (default: ``mark_suspect`` / ``on_delivery_failure`` / ``_timer``);
* initiating lease traffic (``MsgKind.KEEPALIVE`` / ``LEASE_RENEW`` /
  ``HEARTBEAT``) through any send/request call — lease messages are
  client-initiated, the server only ACKs or NACKs them.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Optional

from typing import TYPE_CHECKING

from repro.lint.rules import Rule, Violation, rule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.lint.engine import FileContext

_LEASE_LABEL = re.compile(r"lease|keepalive|heartbeat|renew|timer", re.IGNORECASE)
_LEASE_KINDS = {"KEEPALIVE", "LEASE_RENEW", "HEARTBEAT"}
_SEND_METHODS = {"request", "send", "transmit"}
_ALLOWED = ("mark_suspect", "on_delivery_failure", "_timer")


@rule
class PassiveServerRule(Rule):
    """Keep the server lease-passive: no timers, no lease sends (§3)."""

    code = "RPL002"
    name = "passive-server"
    description = ("server modules may not run lease timers or initiate "
                   "lease messages outside the delivery-error path")
    paper_ref = "passive server, zero lease state in normal operation (§3)"
    scope = ["src/repro/server", "src/repro/lease/server_lease.py"]

    def check(self, ctx: "FileContext") -> Iterator[Violation]:
        """Yield violations for lease timers/messages off the error path."""
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue

            if func.attr == "process":
                label = self._process_label(node)
                if label is not None and _LEASE_LABEL.search(label):
                    enclosing = self.enclosing_function(ctx, node)
                    if enclosing not in _ALLOWED:
                        yield Violation(
                            self.code,
                            f"lease-related timer process ({label!r}) spawned "
                            f"outside the delivery-error path "
                            f"({', '.join(sorted(_ALLOWED))}) — the server "
                            f"keeps no per-client lease timers (§3)",
                            ctx.path, node.lineno, node.col_offset)

            if func.attr in _SEND_METHODS:
                kind = self._lease_kind_argument(node)
                if kind is not None:
                    yield Violation(
                        self.code,
                        f"server initiates lease message MsgKind.{kind} — "
                        f"lease traffic is client-initiated; the server only "
                        f"ACKs/NACKs (§3.2-§3.3)",
                        ctx.path, node.lineno, node.col_offset)

    @staticmethod
    def _process_label(call: ast.Call) -> Optional[str]:
        """Text describing the spawned process: generator callee name
        plus the ``name=`` keyword (literal and f-string parts)."""
        parts = []
        if call.args:
            gen = call.args[0]
            if isinstance(gen, ast.Call):
                callee = gen.func
                if isinstance(callee, ast.Attribute):
                    parts.append(callee.attr)
                elif isinstance(callee, ast.Name):
                    parts.append(callee.id)
        for kw in call.keywords:
            if kw.arg != "name":
                continue
            if isinstance(kw.value, ast.Constant) and isinstance(kw.value.value, str):
                parts.append(kw.value.value)
            elif isinstance(kw.value, ast.JoinedStr):
                for piece in kw.value.values:
                    if isinstance(piece, ast.Constant) and isinstance(piece.value, str):
                        parts.append(piece.value)
        return " ".join(parts) if parts else None

    @staticmethod
    def _lease_kind_argument(call: ast.Call) -> Optional[str]:
        """The ``MsgKind.X`` lease kind passed to a send call, if any."""
        candidates = list(call.args) + [kw.value for kw in call.keywords]
        for arg in candidates:
            if (isinstance(arg, ast.Attribute)
                    and isinstance(arg.value, ast.Name)
                    and arg.value.id == "MsgKind"
                    and arg.attr in _LEASE_KINDS):
                return arg.attr
        return None
