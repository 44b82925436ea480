"""Firing/clean pairs for the §6 containment oracles, schedule-level.

The three Byzantine oracles judge whole runs (fence windows, SAN I/O
versus lock intervals, waiter progress), so their fixtures are crafted
schedules driven through the real runner: each oracle fires when its
guarded fix is knocked out via a registered break mode and stays silent
on the fixed protocol under the identical adversarial schedule.  The
shrinker test shows a noisy adversarial repro ddmins to 1-minimality.
One synthetic-trace case pins which oracle owns an honest client's
loss on an adversarial run.
"""

from __future__ import annotations

import dataclasses

from repro.simtest.oracles import ByzantineContainmentOracle, NoSilentLossOracle
from repro.simtest.runner import run_schedule
from repro.simtest.schedule import FaultStep, Schedule
from repro.simtest.shrink import shrink_schedule

from tests.conftest import make_system


def _schedule(steps, break_mode=""):
    return Schedule(seed=3, horizon=34.0, n_clients=3, tau=8.0,
                    epsilon=0.05, steps=tuple(steps),
                    break_mode=break_mode)


_IGNORE_ATTACK = [FaultStep(2.0, "ignore_lease_expiry", {"client": "c1"}),
                  FaultStep(4.0, "isolate_client", {"client": "c1"}),
                  FaultStep(24.0, "heal_control", {})]

_REPLAY_ATTACK = [FaultStep(2.0, "replay_stale_grant", {"client": "c1"}),
                  FaultStep(2.5, "ignore_lease_expiry", {"client": "c1"}),
                  FaultStep(4.0, "isolate_client", {"client": "c1"}),
                  FaultStep(24.0, "heal_control", {})]

_FORGE_ATTACK = [FaultStep(2.0, "forge_san_write", {"client": "c1"}),
                 FaultStep(2.5, "ignore_lease_expiry", {"client": "c1"}),
                 FaultStep(4.0, "isolate_client", {"client": "c1"}),
                 FaultStep(24.0, "heal_control", {})]

_SUPPRESS_ATTACK = [FaultStep(2.0, "suppress_release", {"client": "c1"})]


# -- fenced-client-serves-no-stale-data -------------------------------------

def test_fenced_client_oracle_fires_on_blind_unfence():
    """An unfence without an observed lapse re-trusts the ignore-expiry
    adversary's distrusted incarnation; the oracle flags the unearned
    unfence."""
    result = run_schedule(_schedule(_IGNORE_ATTACK, "blind_unfence"))
    assert "fenced-client-serves-no-stale-data" in result.oracle_names()


def test_fenced_client_oracle_clean_on_attested_unfence():
    result = run_schedule(_schedule(_IGNORE_ATTACK))
    assert result.ok, result.oracle_names()


def test_fenced_client_oracle_fires_on_blind_reassert():
    """Granting a fenced client's replayed (stolen) grants readmits a
    voided capability inside the fence window."""
    result = run_schedule(_schedule(_REPLAY_ATTACK, "blind_reassert"))
    assert "fenced-client-serves-no-stale-data" in result.oracle_names()


def test_fenced_client_oracle_clean_on_validated_reassert():
    result = run_schedule(_schedule(_REPLAY_ATTACK))
    assert result.ok, result.oracle_names()


# -- capability-checked-san-io ----------------------------------------------

def test_capability_oracle_fires_on_forged_writes_behind_blind_unfence():
    """With the unfence gate knocked out, the forge adversary's SAN
    writes land with no covering lock interval — exactly what the
    capability oracle reconstructs from the lock history.  (Seed 3: at
    seed 7 only the fenced-client oracle fires since a parked
    transaction stopped costing a server-initiated RESULT.)"""
    result = run_schedule(_schedule(_FORGE_ATTACK, "blind_unfence"))
    assert "capability-checked-san-io" in result.oracle_names()


def test_capability_oracle_clean_when_fencing_contains_the_forger():
    result = run_schedule(_schedule(_FORGE_ATTACK))
    assert result.ok, result.oracle_names()


# -- byzantine-containment --------------------------------------------------

def test_containment_oracle_fires_on_unbounded_starvation():
    """Without demand escalation a suppress-release holder starves the
    honest waiters past the containment budget."""
    result = run_schedule(_schedule(_SUPPRESS_ATTACK, "no_demand_escalate"))
    assert "byzantine-containment" in result.oracle_names()


def test_containment_oracle_clean_with_demand_escalation():
    result = run_schedule(_schedule(_SUPPRESS_ATTACK))
    assert result.ok, result.oracle_names()


def test_honest_loss_under_an_adversary_is_reported_once():
    """An honest client's acked write that never reaches disk is
    no-silent-loss's finding on every run; the containment oracle judges
    only starvation, so a possessed bystander does not re-report it."""
    s = make_system()
    s.trace.emit(1.0, "fault.inject", "injector",
                 "byz_suppress_release:c1")
    s.trace.emit(5.0, "app.write.ack", "c2", 1, "t-lost", [0],
                 [("disk1", 0)])
    assert len(NoSilentLossOracle().check_final(s)) == 1
    assert ByzantineContainmentOracle().check_final(s) == []


def test_byz_oracles_silent_on_honest_fail_stop_run():
    """With no possession step the three containment oracles judge
    nothing: an honest partition run is clean end to end."""
    steps = [FaultStep(4.0, "isolate_client", {"client": "c1"}),
             FaultStep(24.0, "heal_control", {})]
    result = run_schedule(_schedule(steps))
    assert result.ok, result.oracle_names()


# -- shrinking adversarial repros -------------------------------------------

def test_adversarial_repro_shrinks_to_one_minimal():
    """A multi-step adversarial failure (attack + fail-stop noise)
    ddmins back down to just the possession step, and the minimized
    schedule still fires the same oracle."""
    noise = [FaultStep(5.0, "loss_burst", {"probability": 0.2}),
             FaultStep(9.0, "end_loss_burst", {}),
             FaultStep(12.0, "crash_client_lossy", {"client": "c3"}),
             FaultStep(15.0, "restart_client", {"client": "c3"})]
    schedule = _schedule(_SUPPRESS_ATTACK + noise, "no_demand_escalate")
    failing = run_schedule(schedule)
    assert "byzantine-containment" in failing.oracle_names()

    shrunk = shrink_schedule(schedule, failing, max_runs=100)
    assert shrunk.minimal
    assert [s.kind for s in shrunk.schedule.steps] == ["suppress_release"]
    assert "byzantine-containment" in shrunk.result.oracle_names()

    # 1-minimality, externally checked: dropping the surviving step
    # loses the failure.
    empty = dataclasses.replace(shrunk.schedule, steps=())
    assert run_schedule(empty).ok
