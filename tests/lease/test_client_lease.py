"""Client lease state machine, driven with a stub endpoint."""

import pytest

from repro.lease import ClientLeaseManager, LeaseCallbacks, LeaseContract, LeasePhase
from repro.net import ControlNetwork, Endpoint
from repro.sim import (ClockEnsemble, LocalClock, RandomStreams, Simulator,
                       TraceRecorder)


def make(tau=10.0, epsilon=0.0, callbacks=None, probe=None):
    sim = Simulator()
    streams = RandomStreams(2)
    net = ControlNetwork(sim, streams)
    ens = ClockEnsemble(epsilon, streams)
    # offset pinned to 0 so test times read identically in local and
    # global terms (rate is 1.0 because epsilon defaults to 0).
    ep = Endpoint(sim, net, "c1", ens.create("c1", offset=0.0))
    contract = LeaseContract(tau=tau, epsilon=epsilon)
    mgr = ClientLeaseManager(sim, ep, "server", contract,
                             callbacks=callbacks,
                             probe_interval_local=probe)
    return sim, ep, mgr


def test_starts_inactive():
    sim, ep, mgr = make()
    assert not mgr.active
    assert mgr.phase() == LeasePhase.EXPIRED


def test_renew_activates():
    sim, ep, mgr = make()
    mgr.renew(t_send_local=ep.local_now())
    assert mgr.active
    assert mgr.phase() == LeasePhase.VALID


def test_phase_progression_without_renewal():
    sim, ep, mgr = make(tau=10.0)
    mgr.renew(0.0)
    sim.run(until=4.9)
    assert mgr.phase() == LeasePhase.VALID
    sim.run(until=6.0)
    assert mgr.phase() == LeasePhase.RENEWAL
    sim.run(until=8.0)
    assert mgr.phase() == LeasePhase.SUSPECT
    sim.run(until=9.5)
    assert mgr.phase() == LeasePhase.FLUSH
    sim.run(until=10.5)
    assert mgr.phase() == LeasePhase.EXPIRED
    assert not mgr.active
    assert mgr.expirations == 1


def test_phase_boundaries_by_elapsed_fraction():
    """``phase()`` maps the elapsed fraction of τ to the phase whose
    half-open interval holds it (boundaries 0.5, 0.75, 0.9)."""
    sim, ep, mgr = make(tau=10.0)
    mgr.renew(0.0)
    for frac, phase in [(0.0, LeasePhase.VALID), (0.49, LeasePhase.VALID),
                        (0.5, LeasePhase.RENEWAL), (0.75, LeasePhase.SUSPECT),
                        (0.9, LeasePhase.FLUSH), (1.0, LeasePhase.EXPIRED),
                        (5.0, LeasePhase.EXPIRED)]:
        sim.run(until=frac * 10.0)
        assert ep.local_now() == frac * 10.0
        assert mgr.phase() == phase, frac


def test_renewal_extends_lease():
    sim, ep, mgr = make(tau=10.0)
    mgr.renew(0.0)
    sim.run(until=4.0)
    mgr.renew(4.0)
    sim.run(until=8.9)  # would be expired without the renewal
    assert mgr.phase() == LeasePhase.VALID
    assert mgr.expiry_local() == pytest.approx(14.0)


def test_stale_renewal_ignored():
    sim, ep, mgr = make(tau=10.0)
    mgr.renew(5.0)
    mgr.renew(3.0)  # older message's ACK arriving late
    assert mgr.lease_start_local == 5.0


def test_callbacks_fire_in_order():
    events = []
    cbs = LeaseCallbacks(
        send_keepalive=lambda: events.append("ka"),
        on_enter_suspect=lambda: events.append("suspect"),
        on_enter_flush=lambda: events.append("flush"),
        on_expired=lambda: events.append("expired"),
    )
    sim, ep, mgr = make(tau=10.0, callbacks=cbs, probe=1000.0)
    mgr.renew(0.0)
    sim.run(until=11.0)
    # keep-alives happen in phase 2; then suspect, flush, expired exactly once
    assert "ka" in events
    filtered = [e for e in events if e != "ka"]
    assert filtered == ["suspect", "flush", "expired"]


def test_keepalives_sent_during_renewal_phase():
    count = [0]
    cbs = LeaseCallbacks(send_keepalive=lambda: count[0].__class__)  # placeholder
    kicks = []
    cbs = LeaseCallbacks(send_keepalive=lambda: kicks.append(1))
    sim, ep, mgr = make(tau=10.0, callbacks=cbs, probe=1000.0)
    mgr.renew(0.0)
    sim.run(until=7.4)  # renewal phase is [5.0, 7.5)
    assert len(kicks) >= 2


def test_nack_jumps_to_suspect():
    events = []
    cbs = LeaseCallbacks(on_enter_suspect=lambda: events.append("suspect"))
    sim, ep, mgr = make(tau=10.0, callbacks=cbs)
    mgr.renew(0.0)
    sim.run(until=1.0)
    mgr.on_nack()
    sim.run(until=1.1)
    assert mgr.phase() in (LeasePhase.SUSPECT, LeasePhase.FLUSH)
    assert events == ["suspect"]


def test_renewals_ignored_after_nack():
    sim, ep, mgr = make(tau=10.0)
    mgr.renew(0.0)
    sim.run(until=1.0)
    mgr.on_nack()
    mgr.renew(1.0)  # in-flight ACK arrives late; must not resurrect
    assert mgr.phase() >= LeasePhase.SUSPECT


def test_nack_then_expiry_then_reconnect():
    events = []
    cbs = LeaseCallbacks(on_reconnected=lambda: events.append("reconnect"))
    sim, ep, mgr = make(tau=10.0, callbacks=cbs)
    mgr.renew(0.0)
    mgr.on_nack()
    sim.run(until=11.0)
    assert not mgr.active
    mgr.renew(ep.clock.local_time(11.0))
    assert mgr.active
    assert events == ["reconnect"]


def test_probing_while_disconnected():
    probes = []
    cbs = LeaseCallbacks(send_keepalive=lambda: probes.append(1))
    sim, ep, mgr = make(tau=10.0, callbacks=cbs, probe=2.0)
    mgr.renew(0.0)
    sim.run(until=30.0)  # expires at 10, probes every 2 after
    assert len(probes) >= 8


def test_no_probe_before_first_activation():
    probes = []
    cbs = LeaseCallbacks(send_keepalive=lambda: probes.append(1))
    sim, ep, mgr = make(tau=10.0, callbacks=cbs, probe=1.0)
    sim.run(until=10.0)  # never activated
    assert probes == []


def test_phase_time_accounting_active():
    sim, ep, mgr = make(tau=10.0)
    mgr.renew(0.0)

    def renewer():
        while sim.now < 50.0:
            yield sim.timeout(2.0)
            mgr.renew(ep.clock.local_time(sim.now))
    sim.process(renewer())
    sim.run(until=50.0)
    mgr.finalize_accounting()
    total = sum(mgr.phase_time.values())
    assert mgr.phase_time[LeasePhase.VALID] / total > 0.95


def test_serves_requests_property():
    sim, ep, mgr = make(tau=10.0)
    mgr.renew(0.0)
    assert mgr.serves_requests
    sim.run(until=8.0)  # suspect phase
    assert not mgr.serves_requests


# -- the daemon wakes at boundaries, not on every ACK --------------------------

def make_traced(tau=10.0, rate=1.0, offset=0.0):
    sim = Simulator()
    trace = TraceRecorder()
    net = ControlNetwork(sim, RandomStreams(2), trace=trace)
    ep = Endpoint(sim, net, "c1", LocalClock("c1", rate=rate, offset=offset))
    mgr = ClientLeaseManager(sim, ep, "server", LeaseContract(tau=tau))
    return sim, ep, mgr, trace


def announced(trace):
    return [(r.time, LeasePhase(r.get("phase")))
            for r in trace.select("lease.phase")]


def test_a_renewal_in_valid_resumes_no_process():
    """Each ACK moves the start forward without scheduling anything, and
    RENEWAL is announced exactly when the timer the last renewal would
    have armed fires: its local wait, from its instant, at its rate."""
    sim, ep, mgr, trace = make_traced(rate=0.8, offset=5.0)
    mgr.renew(ep.local_now())
    sim.run(until=1.0)
    renewals = []

    def acks():
        for _ in range(5):
            yield sim.timeout(0.7)
            sent = ep.local_now() - 0.002
            before = sim.events_scheduled
            mgr.renew(sent)
            assert sim.events_scheduled == before
            renewals.append((sim.now, ep.local_now(), sent))
    sim.process(acks())
    sim.run(until=30.0)
    ref, ref_local, sent = renewals[-1]
    due = ref + ep.clock.to_global_interval(sent + 5.0 - ref_local + 1e-9)
    assert announced(trace)[:2] == [(0.0, LeasePhase.VALID),
                                    (due, LeasePhase.RENEWAL)]


def test_a_noted_renewal_keeps_the_rate_it_was_made_under():
    """The clock slows after a renewal (a stretched clock): the boundary
    timer that renewal would have armed keeps the old rate, and the
    daemon re-plans from there under the new one."""
    sim, ep, mgr, trace = make_traced()
    mgr.renew(0.0)
    sim.run(until=1.0)
    mgr.renew(1.0)                       # the boundary moves to 6.0
    sim.run(until=2.0)
    clock = ep.clock
    clock.offset, clock.rate = clock.local_time(2.0) - 0.5 * 2.0, 0.5
    sim.run(until=30.0)
    wake = 1.0 + (5.0 + 1e-9)            # armed under rate 1
    due = wake + clock.to_global_interval(6.0 - clock.local_time(wake) + 1e-9)
    assert announced(trace)[:2] == [(0.0, LeasePhase.VALID),
                                    (due, LeasePhase.RENEWAL)]


def test_a_renewal_that_does_not_move_the_start_wakes_the_daemon():
    sim, ep, mgr, trace = make_traced()
    mgr.renew(0.0)
    sim.run(until=1.0)
    before = sim.events_scheduled
    mgr.renew(1.0)
    assert sim.events_scheduled == before and not mgr._kick.triggered
    mgr.renew(0.5)                       # an older ACK arriving late
    assert sim.events_scheduled > before and mgr._kick.triggered


def test_a_nack_after_a_noted_renewal_goes_suspect_at_once():
    sim, ep, mgr, trace = make_traced()
    mgr.renew(0.0)
    sim.run(until=1.0)
    mgr.renew(1.0)
    mgr.on_nack()
    sim.run(until=1.5)
    assert announced(trace) == [(0.0, LeasePhase.VALID),
                                (1.0, LeasePhase.SUSPECT)]


def test_a_renewal_during_renewal_returns_to_valid_at_its_instant():
    sim, ep, mgr, trace = make_traced()
    mgr.renew(0.0)
    sim.run(until=6.0)                   # RENEWAL is [5.0, 7.5)
    mgr.renew(6.0)
    sim.run(until=6.5)
    assert announced(trace) == [(0.0, LeasePhase.VALID),
                                (5.0 + 1e-9, LeasePhase.RENEWAL),
                                (6.0, LeasePhase.VALID)]
