"""RPL013 — one reply path (paper §3.1, §6).

A reply is the one event both safety mechanisms hang on: the lease
renews on every ACK of a client-initiated message (§3.1) and the
server's epoch rides the same ACKs (§6).  Three recovery holes in a row
were a reply class that skipped one of several hand-written dispatch or
stamping sites.  The transport now has one of each, and this rule keeps
it that way:

* ``.on_reply(...)`` is called only inside ``_deliver_reply`` — no
  second loop showing replies to observers;
* ``reply_stamp`` is *read* only inside ``_stamped`` (assigning the
  hook is how a node installs it, and stays free);
* ``Ack(...)`` / ``Nack(...)`` are constructed only in the transport
  module, so no node hand-rolls a reply that bypasses the stamp;
* ``send_datagram(Ack(...))`` appears only inside ``_reply``.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator, Optional

from repro.lint.rules import Rule, Violation, rule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.lint.engine import FileContext

_TRANSPORT_MODULE = "net/control.py"
_DELIVER_FN = "_deliver_reply"
_STAMP_FN = "_stamped"
_REPLY_FN = "_reply"
_REPLY_CLASSES = {"Ack", "Nack"}


def _callee(node: ast.AST) -> Optional[str]:
    """The called name of ``f(...)`` / ``x.f(...)``; None otherwise."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else None


@rule
class SingleReplyPathRule(Rule):
    """Keep reply delivery and reply stamping at one site each."""

    code = "RPL013"
    name = "single-reply-path"
    description = ("replies reach observers only through _deliver_reply, "
                   "are stamped only through _stamped, and are built only "
                   "by the transport")
    paper_ref = ("lease renewal and the restart epoch both ride the ACK "
                 "(§3.1, §6): a reply class that skips a dispatch or "
                 "stamping site is a recovery hole")
    default_scope = ["src/repro"]

    def check(self, ctx: "FileContext") -> Iterator[Violation]:
        """Yield a violation per second delivery, stamp or reply site."""
        for node in ast.walk(ctx.tree):
            message = self._finding(ctx, node)
            if message is not None:
                yield Violation(self.code, message, ctx.path,
                                node.lineno, node.col_offset)

    def _finding(self, ctx: "FileContext", node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Attribute):
            if (node.attr == "reply_stamp" and isinstance(node.ctx, ast.Load)
                    and self.enclosing_function(ctx, node) != _STAMP_FN):
                return (f"`reply_stamp` read outside `{_STAMP_FN}` — every "
                        f"ACK is stamped once, at the one helper, before it "
                        f"enters the at-most-once cache")
            return None
        if not isinstance(node, ast.Call):
            return None
        name = _callee(node)
        if name == "on_reply" and isinstance(node.func, ast.Attribute):
            if self.enclosing_function(ctx, node) != _DELIVER_FN:
                return (f"`.on_reply(...)` called outside `{_DELIVER_FN}` — "
                        f"a second dispatch site is how a reply class "
                        f"comes to skip an observer")
        elif name in _REPLY_CLASSES:
            if not ctx.path.endswith(_TRANSPORT_MODULE):
                return (f"`{name}(...)` constructed outside "
                        f"{_TRANSPORT_MODULE} — replies are built (and "
                        f"stamped) by the transport only")
        elif name == "send_datagram" and node.args:
            if (_callee(node.args[0]) in _REPLY_CLASSES
                    and self.enclosing_function(ctx, node) != _REPLY_FN):
                return (f"reply datagram sent outside `{_REPLY_FN}` — "
                        f"route it through `{_REPLY_FN}(msg, decision, "
                        f"payload)`")
        return None
