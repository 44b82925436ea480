"""Passive server lease authority."""

import pytest

from repro.lease import LeaseContract, ServerLeaseAuthority
from repro.net import ControlNetwork, DeliveryError, Endpoint, NackError
from repro.net.control import RetryPolicy
from repro.net.message import Message, MsgKind
from repro.sim import ClockEnsemble, RandomStreams, Simulator, TraceRecorder


def make(epsilon=0.0, tau=10.0, **auth_kwargs):
    sim = Simulator()
    streams = RandomStreams(4)
    trace = TraceRecorder()
    net = ControlNetwork(sim, streams, trace)
    ens = ClockEnsemble(epsilon, streams)
    server_ep = Endpoint(sim, net, "server", ens.create("server"), trace)
    client_ep = Endpoint(sim, net, "c1", ens.create("c1"), trace)
    client_ep.register(MsgKind.LOCK_DEMAND, lambda m: ("ack", {}))
    server_ep.register(MsgKind.KEEPALIVE, lambda m: ("ack", {}))
    stolen = []
    auth = ServerLeaseAuthority(sim, server_ep, LeaseContract(tau=tau, epsilon=epsilon),
                                on_steal=stolen.append, trace=trace, **auth_kwargs)
    return sim, net, server_ep, client_ep, auth, stolen


def test_initial_state_is_empty():
    sim, net, sep, cep, auth, stolen = make()
    assert auth.state_bytes() == 0
    assert auth.overhead_snapshot()["lease_cpu_ops"] == 0
    assert auth.overhead_snapshot()["lease_msgs_sent"] == 0
    assert not auth.is_suspect("c1")
    assert auth.resolution("c1") is None


def test_normal_traffic_keeps_authority_passive():
    """The headline property: zero lease work for ordinary messages."""
    sim, net, sep, cep, auth, stolen = make()

    def client():
        for _ in range(10):
            yield from cep.request("server", MsgKind.KEEPALIVE, {})
    sim.process(client())
    sim.run()
    assert auth.state_bytes() == 0
    assert auth.overhead_snapshot()["lease_cpu_ops"] == 0
    assert auth.overhead_snapshot()["lease_msgs_sent"] == 0
    assert stolen == []


def test_delivery_failure_starts_timer_and_steals():
    sim, net, sep, cep, auth, stolen = make(tau=10.0, epsilon=0.0)
    net.block_pair("server", "c1")

    def demand():
        try:
            yield from sep.request("c1", MsgKind.LOCK_DEMAND, {},
                                   policy=RetryPolicy(timeout=0.5, retries=1))
        except DeliveryError:
            pass
    sim.process(demand())
    sim.run(until=5.0)
    assert auth.is_suspect("c1")
    assert auth.state_bytes() > 0
    sim.run(until=30.0)
    assert stolen == ["c1"]
    assert not auth.is_suspect("c1")
    assert auth.state_bytes() == 0  # passive again after resolution


def test_steal_waits_full_tau_times_one_plus_eps():
    sim, net, sep, cep, auth, stolen = make(tau=10.0, epsilon=0.1)
    net.block_pair("server", "c1")
    entry = auth.mark_suspect("c1")
    t0 = sim.now
    sim.run(until=200.0)
    steal_trace = [r for r in sim_trace(auth) if r.kind == "lease.steal"]
    assert len(steal_trace) == 1
    waited = steal_trace[0].time - t0
    expected = sep.clock.to_global_interval(10.0 * 1.1)
    assert waited == pytest.approx(expected, rel=1e-6)


def sim_trace(auth):
    return auth.trace.records


def test_suspect_client_is_nacked():
    sim, net, sep, cep, auth, stolen = make(tau=50.0)
    auth.mark_suspect("c1")

    def client():
        with pytest.raises(NackError):
            yield from cep.request("server", MsgKind.KEEPALIVE, {})
    p = sim.process(client())
    sim.run(until=5.0)
    assert p.processed
    assert auth.overhead_snapshot()["lease_msgs_sent"] >= 1


def test_silent_mode_ignores_suspects():
    sim, net, sep, cep, auth, stolen = make(tau=50.0, nack_suspects=False)
    auth.mark_suspect("c1")

    def client():
        with pytest.raises(DeliveryError):
            yield from cep.request("server", MsgKind.KEEPALIVE, {},
                                   policy=RetryPolicy(timeout=0.3, retries=1))
    p = sim.process(client())
    sim.run(until=5.0)
    assert p.processed
    assert auth.overhead_snapshot()["lease_msgs_sent"] == 0


def test_ack_while_expiring_ablation_breaks_rule():
    sim, net, sep, cep, auth, stolen = make(tau=50.0, ack_while_expiring=True)
    auth.mark_suspect("c1")
    got = []

    def client():
        reply = yield from cep.request("server", MsgKind.KEEPALIVE, {})
        got.append(reply)
    sim.process(client())
    sim.run(until=5.0)
    assert got  # the (unsafe) ablation ACKs suspect clients


def test_mark_suspect_idempotent():
    sim, net, sep, cep, auth, stolen = make(tau=10.0)
    e1 = auth.mark_suspect("c1")
    e2 = auth.mark_suspect("c1")
    assert e1 is e2
    sim.run(until=30.0)
    assert stolen == ["c1"]  # exactly one steal


def test_resolution_event_fires_on_steal():
    sim, net, sep, cep, auth, stolen = make(tau=5.0)
    auth.mark_suspect("c1")
    res = auth.resolution("c1")
    assert res is not None
    fired = []

    def waiter():
        v = yield res
        fired.append(v)
    sim.process(waiter())
    sim.run(until=30.0)
    assert fired == ["c1"]


def test_rejoin_after_steal_is_served():
    sim, net, sep, cep, auth, stolen = make(tau=2.0)
    auth.mark_suspect("c1")
    sim.run(until=10.0)  # steal done, entry gone
    got = []

    def client():
        reply = yield from cep.request("server", MsgKind.KEEPALIVE, {})
        got.append(reply)
    sim.process(client())
    sim.run(until=15.0)
    assert got  # normal ACK again
