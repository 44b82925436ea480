"""Multiprocessing support for ``--jobs N``: one ordered process pool.

``repro.harness <experiments> --jobs N`` and ``repro.simtest --batch K
--jobs N`` both fan whole, independent runs out through
:func:`run_ordered`.

Each experiment is an independent simulation (its own kernel, RNG
streams and registry), so experiments parallelize at whole-experiment
granularity with no shared state.  A worker runs one experiment, renders
its tables to text, and ships the strings back; the parent prints them
in the order the experiments were requested, so ``--jobs N`` output
matches ``--jobs 1`` line for line (wall-clock footers aside).

Workers live in this importable module (not ``__main__``) so tasks
pickle under both fork and spawn start methods.  Per-experiment wall
timing routes through the allowlisted
:func:`repro.harness.common.wall_timer`, the repo's single wall-clock
funnel (RPL001) — simulated time never touches the host clock.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple, TypeVar

from repro.harness.common import wall_timer

_T = TypeVar("_T")
_R = TypeVar("_R")


@dataclass(frozen=True)
class ExperimentOutcome:
    """One worker's rendered experiment result."""

    name: str
    table_texts: List[str]
    markdown_chunks: List[str]
    elapsed_s: float


def run_experiment_task(task: Tuple[str, Dict[str, Any]]) -> ExperimentOutcome:
    """Execute one experiment (worker entry point; must stay picklable)."""
    name, kwargs = task
    # Deferred import: the experiment table builds systems and is the
    # heavyweight part of the harness; spawned workers import it once.
    from repro.harness.__main__ import EXPERIMENTS, table_to_markdown

    elapsed = wall_timer()
    fn = EXPERIMENTS[name]
    accepted = {k: v for k, v in kwargs.items()
                if k == "seed" or k in inspect.signature(fn).parameters}
    result = fn(**accepted)
    tables = result if isinstance(result, list) else [result]
    return ExperimentOutcome(
        name=name,
        table_texts=[str(t) for t in tables],
        markdown_chunks=[table_to_markdown(t) for t in tables],
        elapsed_s=elapsed())


def run_ordered(fn: Callable[[_T], _R], tasks: List[_T],
                jobs: int) -> List[_R]:
    """Map ``fn`` over ``tasks`` on up to ``jobs`` worker processes,
    results in submission order regardless of completion order.  One job
    or one task runs inline; ``fn`` must be a module-level function so
    the pool can pickle it."""
    if jobs <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    import multiprocessing

    with multiprocessing.Pool(processes=min(jobs, len(tasks))) as pool:
        return list(pool.imap(fn, tasks))
