"""RPL006 — message-handler exhaustiveness against the ``MsgKind`` enum.

The control-network vocabulary lives in ``repro.net.message.MsgKind``
and is partitioned into named functional groups (``KIND_GROUPS``).  Two
checks keep dispatch honest as the vocabulary grows:

* **partition** — when the message module itself is linted, every
  ``MsgKind`` constant must belong to exactly one group (a new kind
  cannot be added without stating which node type must handle it);
* **coverage** — a module declares the groups it implements with a
  ``repro-lint: handles`` comment listing group names in brackets; the
  rule then
  requires a ``register``/``_register`` call for every kind in those
  groups.  A declared-but-unknown group is itself a violation, so the
  contract cannot silently rot when groups are renamed.

Modules without a ``handles[...]`` declaration are not checked — the
contract is opt-in per dispatcher, not inferred.
"""

from __future__ import annotations

import ast
import re
from typing import TYPE_CHECKING, Dict, Iterator, List, Set, Tuple

from repro.lint.rules import Rule, Violation, rule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.lint.engine import FileContext

_HANDLES_RE = re.compile(r"#\s*repro-lint:\s*handles\[([A-Za-z0-9_\-,\s]*)\]")
_REGISTER_METHODS = {"register", "_register"}


@rule
class HandlerExhaustivenessRule(Rule):
    """Check handler registrations against the MsgKind group partition."""

    code = "RPL006"
    name = "handler-exhaustiveness"
    description = ("modules declaring `# repro-lint: handles[...]` must "
                   "register a handler for every kind in those groups; "
                   "every MsgKind constant must belong to exactly one group")
    paper_ref = ("an unhandled request is silently dropped datagram state — "
                 "the at-most-once/NACK discipline of §3.3 assumes total "
                 "dispatch")
    scope = None

    def check(self, ctx: "FileContext") -> Iterator[Violation]:
        """Yield partition and coverage violations for this file."""
        kinds, groups = ctx.project.message_vocabulary()
        if not kinds:
            return  # no message module resolvable: nothing to check against

        module_rel = ctx.project.message_module_rel
        if module_rel is not None and (ctx.path == module_rel
                                       or ctx.path.endswith(module_rel)):
            yield from self._check_partition(ctx, kinds, groups)

        declarations = self._declarations(ctx)
        if not declarations:
            return
        registered = self._registered_kinds(ctx)
        for lineno, declared in declarations:
            for group in declared:
                if group not in groups:
                    yield Violation(
                        self.code,
                        f"declared handler group {group!r} is not a "
                        f"KIND_GROUPS entry of the message module "
                        f"(known: {', '.join(sorted(groups))})",
                        ctx.path, lineno)
                    continue
                missing = [k for k in groups[group] if k not in registered]
                for kind in missing:
                    yield Violation(
                        self.code,
                        f"handler group {group!r} declared but "
                        f"MsgKind.{kind} ({kinds.get(kind, '?')}) is never "
                        f"registered in this module",
                        ctx.path, lineno)

    # -- pieces -----------------------------------------------------------
    @staticmethod
    def _check_partition(ctx: "FileContext", kinds: Dict[str, str],
                         groups: Dict[str, List[str]]) -> Iterator[Violation]:
        seen: Dict[str, List[str]] = {}
        for group, members in groups.items():
            for member in members:
                seen.setdefault(member, []).append(group)
                if member not in kinds:
                    yield Violation(
                        "RPL006",
                        f"KIND_GROUPS[{group!r}] names unknown constant "
                        f"MsgKind.{member}",
                        ctx.path, 1)
        for name in kinds:
            owners = seen.get(name, [])
            if len(owners) == 0:
                yield Violation(
                    "RPL006",
                    f"MsgKind.{name} belongs to no KIND_GROUPS entry — "
                    f"every kind must state its handler group",
                    ctx.path, 1)
            elif len(owners) > 1:
                yield Violation(
                    "RPL006",
                    f"MsgKind.{name} belongs to multiple groups "
                    f"({', '.join(sorted(owners))}) — the partition must "
                    f"be disjoint",
                    ctx.path, 1)

    @staticmethod
    def _declarations(ctx: "FileContext") -> List[Tuple[int, List[str]]]:
        out: List[Tuple[int, List[str]]] = []
        for lineno, text in enumerate(ctx.lines, start=1):
            m = _HANDLES_RE.search(text)
            if m is not None:
                names = [g.strip() for g in m.group(1).split(",") if g.strip()]
                out.append((lineno, names))
        return out

    @staticmethod
    def _registered_kinds(ctx: "FileContext") -> Set[str]:
        found: Set[str] = set()
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _REGISTER_METHODS
                    and node.args):
                continue
            first = node.args[0]
            if (isinstance(first, ast.Attribute)
                    and isinstance(first.value, ast.Name)
                    and first.value.id == "MsgKind"):
                found.add(first.attr)
        return found
