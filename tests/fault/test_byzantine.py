"""The Byzantine client model: every possession kind, unit-level.

Each misbehavior gets a firing test (the possessed client observably
attacks and §6 containment holds it) and a clean honest pair (the same
fault schedule without the possession shows none of the attack
signals).  Possession plumbing — idempotency, composition, validation,
protocol conformance — is covered at the bottom.
"""

from __future__ import annotations

import pytest

from repro.fault.adversary import (BYZANTINE_KINDS, STRETCH_FACTOR,
                                   ByzantineClientAgent)
from repro.fault.injector import STEP_KINDS
from repro.simtest.runner import run_schedule
from repro.simtest.schedule import FaultStep, Schedule

from tests.conftest import make_system, run_gen

possess = ByzantineClientAgent.possess


def _schedule(steps, horizon=34.0):
    return Schedule(seed=3, horizon=horizon, n_clients=3, tau=8.0,
                    epsilon=0.05, steps=tuple(steps))


def _run(steps, horizon=34.0):
    result = run_schedule(_schedule(steps, horizon), keep_system=True)
    assert result.system is not None
    return result


def _agent(system, name):
    agent = getattr(system.client(name), "_byz_agent", None)
    assert isinstance(agent, ByzantineClientAgent)
    return agent


def test_all_byzantine_kinds_are_schedulable():
    for kind in BYZANTINE_KINDS:
        assert kind in STEP_KINDS
        assert STEP_KINDS[kind].params == ("client",)
    assert len(BYZANTINE_KINDS) >= 5


# -- ignore_lease_expiry ----------------------------------------------------

def test_ignore_lease_expiry_fires_and_stays_fenced():
    """The possessed client never observes (so never attests) its lapse:
    §6 fences it across the partition and the attested-rejoin gate keeps
    it fenced after heal — and the run stays oracle-clean."""
    result = _run([FaultStep(2.0, "ignore_lease_expiry", {"client": "c1"}),
                   FaultStep(4.0, "isolate_client", {"client": "c1"}),
                   FaultStep(24.0, "heal_control", {})])
    assert result.ok, result.oracle_names()
    system = result.system
    assert "byz.possess" in system.trace.kinds()
    assert "c1" in system.server.fenced_clients


def test_honest_client_is_unfenced_after_heal():
    """Same partition, no possession: the honest client quiesces on
    lapse, attests it on rejoin and is re-trusted."""
    result = _run([FaultStep(4.0, "isolate_client", {"client": "c1"}),
                   FaultStep(24.0, "heal_control", {})])
    assert result.ok, result.oracle_names()
    system = result.system
    assert "byz.possess" not in system.trace.kinds()
    assert "c1" not in system.server.fenced_clients


# -- replay_stale_grant -----------------------------------------------------

_REPLAY_STEPS = [FaultStep(2.5, "ignore_lease_expiry", {"client": "c1"}),
                 FaultStep(4.0, "isolate_client", {"client": "c1"}),
                 FaultStep(24.0, "heal_control", {})]


def test_replay_stale_grant_is_refused():
    """Replayed pre-steal grants are refused by the validated-reassert
    path (fenced client / theft evidence), and the refusals are counted
    on both ends."""
    result = _run([FaultStep(2.0, "replay_stale_grant", {"client": "c1"})]
                  + _REPLAY_STEPS)
    assert result.ok, result.oracle_names()
    system = result.system
    agent = _agent(system, "c1")
    assert agent.replays_refused > 0
    assert system.server.rejected_reasserts > 0


def test_no_reasserts_rejected_without_replay_adversary():
    result = _run(_REPLAY_STEPS)
    assert result.ok, result.oracle_names()
    assert result.system.server.rejected_reasserts == 0


# -- stretch_clock ----------------------------------------------------------

def test_stretch_clock_slows_local_clock_and_stays_contained():
    """The slow-clock attack (T-Lease): the client's lease outlives the
    server's τ(1+ε) wait, but steals still only happen after the wait,
    so Theorem 3.1's oracle and the consistency oracles stay silent."""
    result = _run([FaultStep(2.0, "stretch_clock", {"client": "c1"}),
                   FaultStep(4.0, "isolate_client", {"client": "c1"}),
                   FaultStep(20.0, "heal_control", {})], horizon=28.0)
    assert result.ok, result.oracle_names()
    system = result.system
    stretched = system.client("c1").endpoint.clock.rate
    honest = system.client("c2").endpoint.clock.rate
    assert stretched < honest * (STRETCH_FACTOR + 0.1)


def test_clock_rates_stay_within_epsilon_without_stretch():
    result = _run([FaultStep(4.0, "isolate_client", {"client": "c1"}),
                   FaultStep(20.0, "heal_control", {})], horizon=28.0)
    assert result.ok
    for name in ("c1", "c2", "c3"):
        rate = result.system.client(name).endpoint.clock.rate
        assert abs(rate - 1.0) <= 0.05 + 1e-9


# -- forge_san_write --------------------------------------------------------

_FORGE_STEPS = [FaultStep(2.5, "ignore_lease_expiry", {"client": "c1"}),
                FaultStep(4.0, "isolate_client", {"client": "c1"}),
                FaultStep(24.0, "heal_control", {})]


def test_forge_san_write_is_fenced_at_the_disk():
    """Forged writes flow until the §6 fence lands, then the shared
    store denies them; the capability oracle confirms no forged write
    landed outside a covering lock interval after containment."""
    result = _run([FaultStep(2.0, "forge_san_write", {"client": "c1"})]
                  + _FORGE_STEPS)
    assert result.ok, result.oracle_names()
    agent = _agent(result.system, "c1")
    assert agent.forged_denied > 0
    denied = [ev for ev in result.system.disks["disk1"].history
              if ev.initiator == "c1" and ev.op == "denied_write"]
    assert denied


def test_no_denied_writes_without_forge_adversary():
    result = _run(_FORGE_STEPS)
    assert result.ok, result.oracle_names()
    agent = _agent(result.system, "c1")  # possessed by ignore only
    assert agent.forged_writes == 0 and agent.forged_denied == 0


# -- suppress_release -------------------------------------------------------

def test_suppress_release_triggers_demand_escalation():
    """A holder that ACKs every demand but never complies is escalated
    to suspect after the configured rounds, then stolen from — honest
    waiters make progress within the containment budget."""
    result = _run([FaultStep(2.0, "suppress_release", {"client": "c1"})])
    assert result.ok, result.oracle_names()
    system = result.system
    agent = _agent(system, "c1")
    assert agent.demands_suppressed > 0
    assert "server.demand_escalate" in system.trace.kinds()


def test_no_escalation_without_suppress_adversary():
    result = _run([])
    assert result.ok, result.oracle_names()
    assert "server.demand_escalate" not in result.system.trace.kinds()


# -- possession plumbing ----------------------------------------------------

def test_possess_unknown_kind_is_rejected():
    system = make_system(record_trace=True)
    with pytest.raises(ValueError, match="unknown Byzantine kind"):
        possess(system, "c1", "eat_the_disk")


def test_possess_is_idempotent_and_composes():
    system = make_system(record_trace=True)
    first = possess(system, "c1", "suppress_release")
    again = possess(system, "c1", "suppress_release")
    assert again is first
    assert first.kinds == ("suppress_release",)
    composed = possess(system, "c1", "ignore_lease_expiry")
    assert composed is first
    assert set(first.kinds) == {"suppress_release", "ignore_lease_expiry"}
    possessions = [r for r in system.trace.records if r.kind == "byz.possess"]
    assert len(possessions) == 2  # the repeat was a no-op


def test_possessed_agent_satisfies_client_agent_protocol():
    """A possessed client stays the pooled client, so its lease traffic
    is charged under its own name like any other client's."""
    system = make_system(record_trace=True)
    agent = possess(system, "c1", "suppress_release")
    assert system.client("c1") is agent.client
    run_gen(system, agent.client.create("/f"))
    system.run(until=system.sim.now + system.config.lease.tau)
    assert agent.client.keepalives_sent >= 1
    assert system.obs.registry.value(
        "lease.client.msgs_sent", node="c1") == agent.client.keepalives_sent
