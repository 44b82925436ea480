"""Passive server lease authority."""

import pytest

from repro.lease import LeaseContract, ServerLeaseAuthority
from repro.net import ControlNetwork, DeliveryError, Endpoint, NackError
from repro.net.control import RetryPolicy
from repro.net.message import (LockAcquire, LockDemand, Message, MsgKind,
                               Null)
from repro.sim import ClockEnsemble, RandomStreams, Simulator, TraceRecorder


def make(epsilon=0.0, tau=10.0, authority=True):
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
    auth = (ServerLeaseAuthority(sim, server_ep,
                                 LeaseContract(tau=tau, epsilon=epsilon),
                                 on_steal=stolen.append, trace=trace)
            if authority else None)
    return sim, net, server_ep, client_ep, auth, stolen


def keepalives(sim, cep, n=10):
    """``n`` KEEPALIVE round trips from c1, run until the heap drains."""
    def client():
        for _ in range(n):
            yield from cep.request("server", MsgKind.KEEPALIVE, Null())
    sim.process(client())
    sim.run()


def test_initial_state_is_empty():
    sim, net, sep, cep, auth, stolen = make()
    assert auth.state_bytes() == 0
    assert auth.obs.registry.value("lease.server.cpu_ops") == 0
    assert auth.obs.registry.value("lease.server.msgs_sent") == 0
    assert not auth.is_suspect("c1")
    assert auth.resolution("c1") is None


def test_normal_traffic_keeps_authority_passive():
    """The headline property: zero lease work for ordinary messages."""
    sim, net, sep, cep, auth, stolen = make()
    keepalives(sim, cep)
    assert auth.state_bytes() == 0
    assert auth.obs.registry.value("lease.server.cpu_ops") == 0
    assert auth.obs.registry.value("lease.server.msgs_sent") == 0
    assert stolen == []


def test_normal_traffic_schedules_only_the_transports_events():
    """§3's passive server at run time: with the authority attached, 10
    KEEPALIVE round trips put exactly the kernel events the bare
    transport does on the heap, and the run drains well before τ — no
    lease timer, no per-client process."""
    tau = 10.0
    sim, net, sep, cep, auth, stolen = make(tau=tau)
    bare_sim, _, _, bare_cep, _, _ = make(tau=tau, authority=False)
    keepalives(sim, cep)
    keepalives(bare_sim, bare_cep)
    assert bare_sim.events_scheduled > 0
    assert sim.events_scheduled == bare_sim.events_scheduled
    assert sim.now == bare_sim.now < tau


def test_delivery_failure_starts_timer_and_steals():
    sim, net, sep, cep, auth, stolen = make(tau=10.0, epsilon=0.0)
    net.block_pair("server", "c1")

    def demand():
        try:
            yield from sep.request("c1", MsgKind.LOCK_DEMAND, LockDemand(1, 2),
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
            yield from cep.request("server", MsgKind.KEEPALIVE, Null())
    p = sim.process(client())
    sim.run(until=5.0)
    assert p.processed
    assert auth.obs.registry.value("lease.server.msgs_sent") >= 1


def test_silent_mode_ignores_suspects():
    sim, net, sep, cep, auth, stolen = make(tau=50.0)
    auth.nack_suspects = False
    auth.mark_suspect("c1")

    def client():
        with pytest.raises(DeliveryError):
            yield from cep.request("server", MsgKind.KEEPALIVE, Null(),
                                   policy=RetryPolicy(timeout=0.3, retries=1))
    p = sim.process(client())
    sim.run(until=5.0)
    assert p.processed
    assert auth.obs.registry.value("lease.server.msgs_sent") == 0


def test_ack_while_expiring_ablation_breaks_rule():
    sim, net, sep, cep, auth, stolen = make(tau=50.0)
    auth.ack_while_expiring = True
    auth.mark_suspect("c1")
    got = []

    def client():
        reply = yield from cep.request("server", MsgKind.KEEPALIVE, Null())
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
        reply = yield from cep.request("server", MsgKind.KEEPALIVE, Null())
        got.append(reply)
    sim.process(client())
    sim.run(until=15.0)
    assert got  # normal ACK again


def test_final_to_a_client_marked_suspect_while_parked_expires_before_the_steal():
    """Safety of the one-final reply.  A transaction admitted before the
    client was marked suspect answers after the mark; its final renews
    from the admitted attempt's send time t_C1, which precedes the mark
    t_s, so the lease it grants ends inside the server's τ(1+ε) wait."""
    from repro.lease import ClientLeaseManager
    from repro.net import ReplyObserver

    sim, net, sep, cep, auth, stolen = make(tau=10.0, epsilon=0.1)
    sep.set_gatekeeper(auth.gatekeeper)
    lease = ClientLeaseManager(sim, cep, "server", auth.contract)

    class Renew(ReplyObserver):
        def on_reply(self, reply, renewal_time):
            if renewal_time is not None:
                lease.renew(renewal_time)
    cep.observers.append(Renew())

    def parked(msg):
        yield sim.timeout(0.4)
        return ("ack", {})
    sep.register(MsgKind.LOCK_INTENT, parked)

    def suspect_meanwhile():
        yield sim.timeout(0.2)
        auth.mark_suspect("c1")
    sim.process(suspect_meanwhile())
    proc = sim.process(cep.request("server", MsgKind.LOCK_INTENT,
                                   LockAcquire(1, 2)))
    sim.run(until=0.5)
    [sent] = [r for r in net.trace.select(kind="msg.send", node="c1")]
    assert proc.value.reply_to == sent.detail["msg_id"]
    assert lease.lease_start_local == cep.clock.local_time(sent.time)
    mark = auth._suspects["c1"].started_local
    sim.run(until=20.0)
    [steal] = net.trace.select(kind="lease.steal")
    assert stolen == ["c1"]
    expiry = cep.clock.global_time(lease.expiry_local())
    assert sent.time < sep.clock.global_time(mark) and expiry < steal.time
