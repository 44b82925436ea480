"""``repro.lint`` — protocol-invariant static analysis for the repro tree.

The paper's safety argument (Theorem 3.1) rests on discipline the code
must keep as it grows: the server is *passive* and holds no lease state,
and every node reads only its *own* rate-synchronized clock.  This
package enforces those invariants mechanically with per-file AST rules:

========  ==============================================================
RPL001    determinism — no wall-clock read or wait (``time.sleep``) and
          no ambient randomness in sim code
RPL002    passive server — no lease timers or periodic lease messages
          outside the delivery-error path (paper §3)
RPL003    local clock only — no cross-node clock reads (Thm 3.1)
RPL005    no ``==``/``!=`` on float simulation-time expressions
RPL007    no mutable default arguments
RPL008    no timer or deadline derived from a message's payload or stamp
========  ==============================================================

Invariants the code can refuse to break are not rules: handler coverage,
invalidate-before-apply and the one reply path are checked when a node
is built or a mutator runs (DESIGN.md §11, "Kept by construction").  A
handler that finishes a generator inline fails at run time: the
transport runs a generator handler to its first ``yield`` itself and
raises ``TypeError`` on any other result that is not a decision.

Run it with ``python -m repro.lint <paths>``; configure it in
``pyproject.toml`` under ``[tool.repro-lint]``; silence a single finding
with ``# repro-lint: ignore[RPL001]`` on the offending line.
"""

from __future__ import annotations

from repro.lint.config import LintConfig, load_config
from repro.lint.engine import LintResult, lint_paths, lint_source
from repro.lint.rules import RULES, Rule, Violation, rule

__all__ = [
    "LintConfig",
    "LintResult",
    "RULES",
    "Rule",
    "Violation",
    "lint_paths",
    "lint_source",
    "load_config",
    "rule",
]
