"""Parallel batch fuzzing: ``--jobs N`` must not change results.

The parallelization contract (DESIGN.md §13): seeds are drawn up front
from the batch stream and outputs merged in submission order, so the
printed output of ``--batch K --jobs N`` is byte-identical for every N.
These tests pin that contract with a real worker pool (jobs=2), which
also exercises pickling of the worker entry points under the active
multiprocessing start method.
"""

from __future__ import annotations

import pytest

from repro.harness.parallel import run_ordered
from repro.simtest.cli import EXIT_CLEAN, EXIT_USAGE, main
from repro.simtest.parallel import run_batch_task


def _batch_output(capsys, jobs: int) -> str:
    code = main(["--batch", "3", "--batch-seed", "9", "--steps", "5",
                 "--jobs", str(jobs)])
    assert code == EXIT_CLEAN
    return capsys.readouterr().out


def test_batch_jobs2_output_identical_to_jobs1(capsys):
    assert _batch_output(capsys, 1) == _batch_output(capsys, 2)


def test_jobs_without_batch_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["--jobs", "2"])
    assert exc.value.code == EXIT_USAGE


def test_jobs_below_one_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["--batch", "2", "--jobs", "0"])
    assert exc.value.code == EXIT_USAGE


def test_run_batch_parallel_inline_path_preserves_order():
    base = {"steps": 3, "break_mode": "", "no_shrink": True,
            "shrink_runs": 10, "out": "."}
    tasks = [(i, seed, dict(base, seed=seed)) for i, seed in
             enumerate([11, 22])]
    outcomes = run_ordered(run_batch_task, tasks, jobs=1)
    assert [o.index for o in outcomes] == [0, 1]
    assert [o.seed for o in outcomes] == [11, 22]
    assert all(o.exit_code == EXIT_CLEAN for o in outcomes)
    assert all("trace_hash=" in o.output for o in outcomes)
