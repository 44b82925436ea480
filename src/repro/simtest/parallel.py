"""Multiprocessing support for ``repro.simtest --batch --jobs N``.

The parent draws the batch's seed list up front from the usual
``RandomStreams(batch_seed).get("simtest.batch")`` stream, so the seed
sequence — and therefore every schedule — is identical no matter how
many workers run it.  Each worker executes one whole fuzz run (generate,
run, shrink, write artifact) with its stdout captured; the parent runs
the tasks through :func:`repro.harness.parallel.run_ordered` and prints
the captured blocks in seed order: the merged output of
``--jobs N`` is byte-identical to ``--jobs 1``.

Workers live in this importable module (not ``__main__``) so the tasks
pickle under both fork and spawn start methods.  Workers never read the
wall clock; simulated time stays inside each run's kernel, and the only
wall timing around a batch is the parent's allowlisted
:func:`repro.harness.common.wall_timer`.
"""

from __future__ import annotations

import argparse
import io
from contextlib import redirect_stdout
from dataclasses import dataclass
from typing import Any, Dict, Tuple


@dataclass(frozen=True)
class BatchRunOutcome:
    """One worker's captured fuzz run."""

    index: int
    seed: int
    exit_code: int
    output: str


def run_batch_task(task: Tuple[int, int, Dict[str, Any]]) -> BatchRunOutcome:
    """Execute one batch entry (worker entry point; must stay picklable).

    ``task`` is ``(index, seed, vars(args))`` — plain data only, so the
    pool can ship it to a spawned interpreter.
    """
    index, seed, arg_map = task
    # Imported here so a spawned worker pays the import once, and to keep
    # this module import-light for the parent's argument handling.
    from repro.simtest.cli import _fuzz_once

    sub = argparse.Namespace(**arg_map)
    sub.seed = seed
    sub.batch = None
    sub.jobs = 1
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = _fuzz_once(sub)
    return BatchRunOutcome(index=index, seed=seed, exit_code=code,
                           output=buf.getvalue())
