"""Long fuzz sweeps — excluded from tier-1, run by CI's simtest-fuzz job.

Tier-1 pins determinism via the corpus; this sweep is the breadth pass:
many fresh seeds, bigger schedules, every break mode re-proven.  Run
with ``pytest -m slow tests/simtest``.
"""

from __future__ import annotations

import pytest

from repro.simtest.runner import run_schedule
from repro.simtest.schedule import generate_schedule

pytestmark = pytest.mark.slow


@pytest.mark.parametrize("seed", range(40))
def test_fresh_seed_sweep_is_clean(seed):
    result = run_schedule(generate_schedule(seed, 20))
    assert result.ok, (f"seed {seed}: {result.oracle_names()} — replay "
                       f"with python -m repro.simtest --seed {seed}")


def test_long_horizon_run_is_clean():
    # The acceptance-criterion run: 200 primary fault events.
    result = run_schedule(generate_schedule(0, 200))
    assert result.ok, result.oracle_names()
    assert result.ops_succeeded > 0


@pytest.mark.parametrize("break_mode,oracle", [
    ("skip_flush", "expected-failure-flush"),
    ("steal_early", "theorem-3.1"),
    ("ack_expiring", "nack-timed-out"),
])
def test_every_break_mode_is_caught_by_some_seed(break_mode, oracle):
    # Each sabotage must be caught within a small seed budget; a miss
    # here means an oracle regressed into silence.
    for seed in range(10):
        result = run_schedule(generate_schedule(seed, 20,
                                                break_mode=break_mode))
        if oracle in result.oracle_names():
            return
    pytest.fail(f"{break_mode}: {oracle} never fired across 10 seeds")


#: ``fault_fuzz``'s rotation (bench/workloads.py): flags on ``i mod 4``.
_ROTATION = ({}, {"cache_nodes": 2}, {"adversaries": 2}, {})

#: The seven fires the rotation has at seeds 0-2; each is an open
#: finding, and any change to this set must be explained.
_STANDING_FIRES = {
    (2, "capability-checked-san-io"), (314, "capability-checked-san-io"),
    (118, "byzantine-containment"), (194, "byzantine-containment"),
    (238, "byzantine-containment"), (286, "byzantine-containment"),
    (10086, "byzantine-containment"),
}


def test_the_rotation_fires_exactly_the_standing_findings():
    # The 960 schedules of fault_fuzz at seeds 0, 1 and 2 (~50 s).
    fired = set()
    for base in (0, 1, 2):
        for i in range(320):
            seed = 10_000 * base + i
            result = run_schedule(generate_schedule(seed, 20,
                                                    **_ROTATION[i % 4]))
            fired.update((seed, name) for name in result.oracle_names())
    assert fired == _STANDING_FIRES
