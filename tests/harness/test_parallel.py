"""Parallel experiment sweeps: ``--jobs N`` must not change tables.

Each experiment is a closed simulation (own kernel, RNG streams,
registry), so whole-experiment parallelism cannot perturb results; the
only per-run difference allowed is the wall-clock footer.  Pinned here
with a real two-worker pool, which also exercises pickling of the
worker entry point.
"""

from __future__ import annotations

import re

import pytest

from repro.harness.__main__ import main
from repro.harness.parallel import run_experiment_task, run_ordered

_WALL_FOOTER = re.compile(r"completed in \d+\.\d+s wall")


def _normalized(capsys, argv) -> str:
    assert main(argv) == 0
    return _WALL_FOOTER.sub("completed in Xs wall", capsys.readouterr().out)


def test_jobs2_tables_identical_to_sequential(capsys):
    argv = ["e6", "e5", "--seed", "0"]
    assert _normalized(capsys, argv) == _normalized(capsys, argv + ["--jobs", "2"])


def test_parallel_outcomes_in_submission_order():
    tasks = [("e5", {"seed": 0}), ("e6", {"seed": 0})]
    outcomes = run_ordered(run_experiment_task, tasks, jobs=2)
    assert [o.name for o in outcomes] == ["e5", "e6"]
    for outcome, task in zip(outcomes, tasks):
        solo = run_experiment_task(task)
        assert outcome.table_texts == solo.table_texts
        assert outcome.markdown_chunks == solo.markdown_chunks


def test_jobs_below_one_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["e6", "--jobs", "0"])
    assert exc.value.code == 2


def test_jobs_with_metrics_out_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["e6", "e5", "--jobs", "2",
              "--metrics-out", str(tmp_path / "m.json")])
    assert exc.value.code == 2
