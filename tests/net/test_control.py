"""Control network + endpoint discipline: retries, dedup, ACK/NACK,
gatekeeper, pending/deferred transactions."""

import pytest

from repro.net import ControlNetwork, DeliveryError, Endpoint, NackError
from repro.net.control import RetryPolicy
from repro.net.message import MsgKind
from repro.sim import ClockEnsemble, RandomStreams, Simulator, TraceRecorder


@pytest.fixture
def net_pair():
    sim = Simulator()
    streams = RandomStreams(11)
    trace = TraceRecorder()
    net = ControlNetwork(sim, streams, trace)
    ens = ClockEnsemble(0.02, streams)
    server = Endpoint(sim, net, "server", ens.create("server"), trace)
    client = Endpoint(sim, net, "client", ens.create("client"), trace)
    return sim, net, server, client


def run_req(sim, endpoint, *args, **kwargs):
    proc = sim.process(endpoint.request(*args, **kwargs))
    proc.defuse()
    sim.run()
    if proc.exception is not None:
        raise proc.exception
    return proc.value


def test_request_roundtrip(net_pair):
    sim, net, server, client = net_pair
    server.register("fs.getattr", lambda m: ("ack", {"v": m.payload["k"] + 1}))
    reply = run_req(sim, client, "server", "fs.getattr", {"k": 1})
    assert reply.payload["v"] == 2


def test_nack_raises(net_pair):
    sim, net, server, client = net_pair
    server.register("fs.getattr", lambda m: ("nack", {"error": "no"}))
    with pytest.raises(NackError):
        run_req(sim, client, "server", "fs.getattr", {})


def test_unknown_kind_nacked(net_pair):
    sim, net, server, client = net_pair
    with pytest.raises(NackError):
        run_req(sim, client, "server", "no.such.kind", {})


def test_delivery_error_after_retries(net_pair):
    sim, net, server, client = net_pair
    net.block_pair("client", "server")
    with pytest.raises(DeliveryError):
        run_req(sim, client, "server", "fs.getattr", {},
                policy=RetryPolicy(timeout=0.5, retries=2))
    # 3 attempts were transmitted
    sends = [r for r in net.trace.select(kind="msg.send", node="client")]
    assert len(sends) == 3


def test_delivery_failure_listener_fires(net_pair, observe):
    sim, net, server, client = net_pair
    net.block_pair("client", "server")
    seen = observe(client)
    with pytest.raises(DeliveryError):
        run_req(sim, client, "server", "fs.getattr", {},
                policy=RetryPolicy(timeout=0.2, retries=0))
    assert seen.failures == ["server"]
    assert seen.replies == []


def test_ack_listener_gets_send_time(net_pair, observe):
    sim, net, server, client = net_pair
    server.register("fs.getattr", lambda m: ("ack", {}))
    seen = observe(client)
    run_req(sim, client, "server", "fs.getattr", {})
    assert len(seen.replies) == 1
    # send happened at local time of client at global ~0
    assert seen.replies[0][1] == pytest.approx(client.clock.local_time(0.0),
                                               abs=1e-6)


def test_at_most_once_under_duplicates(net_pair):
    """Lossy network: retries must not re-execute the transaction (I5)."""
    sim, net, server, client = net_pair
    executions = []
    server.register("fs.setattr",
                    lambda m: (executions.append(m.payload["i"]), ("ack", {}))[1])
    net.drop_probability = 0.45
    ok = 0
    for i in range(20):
        try:
            run_req(sim, client, "server", "fs.setattr", {"i": i},
                    policy=RetryPolicy(timeout=0.3, retries=8))
            ok += 1
        except DeliveryError:
            pass
    assert ok >= 15  # most should get through eventually
    # At-most-once: despite duplicated datagrams, no request ran twice.
    assert len(executions) == len(set(executions))
    # Every successful request definitely executed.
    assert len(executions) >= ok


def test_gatekeeper_nack(net_pair):
    sim, net, server, client = net_pair
    server.register("fs.getattr", lambda m: ("ack", {}))
    server.set_gatekeeper(lambda m: "nack")
    with pytest.raises(NackError):
        run_req(sim, client, "server", "fs.getattr", {})


def test_gatekeeper_silent_causes_delivery_error(net_pair):
    sim, net, server, client = net_pair
    server.register("fs.getattr", lambda m: ("ack", {}))
    server.set_gatekeeper(lambda m: "silent")
    with pytest.raises(DeliveryError):
        run_req(sim, client, "server", "fs.getattr", {},
                policy=RetryPolicy(timeout=0.3, retries=1))


def test_gatekeeper_none_passes(net_pair):
    sim, net, server, client = net_pair
    server.register("fs.getattr", lambda m: ("ack", {"ok": True}))
    server.set_gatekeeper(lambda m: None)
    reply = run_req(sim, client, "server", "fs.getattr", {})
    assert reply.payload["ok"]


def test_deferred_handler_pending_result(net_pair):
    sim, net, server, client = net_pair

    def handler(msg):
        def work():
            yield sim.timeout(2.0)
            return ("ack", {"slow": True})
        return work()
    server.register("fs.open", handler)
    reply = run_req(sim, client, "server", "fs.open", {})
    assert reply.payload["slow"]
    assert sim.now >= 2.0


def test_deferred_handler_nack_result(net_pair):
    sim, net, server, client = net_pair

    def handler(msg):
        def work():
            yield sim.timeout(1.0)
            return ("nack", {"error": "denied"})
        return work()
    server.register("fs.open", handler)
    with pytest.raises(NackError):
        run_req(sim, client, "server", "fs.open", {})


def test_deferred_handler_exception_becomes_nack(net_pair):
    sim, net, server, client = net_pair

    def handler(msg):
        def work():
            yield sim.timeout(0.5)
            raise RuntimeError("handler blew up")
        return work()
    server.register("fs.open", handler)
    with pytest.raises(NackError):
        run_req(sim, client, "server", "fs.open", {})


def test_receipt_ack_carries_ack_stamp(net_pair, observe):
    """A deferred transaction's receipt ACK merges the node's
    ``reply_stamp`` (servers carry ``__epoch__`` so a parked client
    still learns about restarts, §6) — including the re-ACK sent for a
    retried request."""
    sim, net, server, client = net_pair
    server.reply_stamp = lambda msg: {"__epoch__": 7}

    def handler(msg):
        def work():
            yield sim.timeout(2.0)
            return ("ack", {})
        return work()
    server.register("fs.open", handler)
    seen = observe(client)
    run_req(sim, client, "server", "fs.open", {},
            policy=RetryPolicy(timeout=0.5, retries=8))
    # First receipt ACK and every pending re-ACK answering a retry.
    stamped = [r.payload.get("__epoch__") for r, _t in seen.replies
               if r.payload.get("__pending__")]
    assert len(stamped) > 1 and all(e == 7 for e in stamped)


def test_receipt_ack_without_stamp_adds_no_keys(net_pair, observe):
    sim, net, server, client = net_pair

    def handler(msg):
        def work():
            yield sim.timeout(1.0)
            return ("ack", {})
        return work()
    server.register("fs.open", handler)
    seen = observe(client)
    run_req(sim, client, "server", "fs.open", {})
    payloads = [r.payload for r, _t in seen.replies
                if r.payload.get("__pending__")]
    assert payloads
    assert all(set(p) == {"__pending__", "__ticket__"} for p in payloads)


def test_pending_timeout_gives_delivery_error(net_pair):
    sim, net, server, client = net_pair

    def handler(msg):
        def work():
            yield sim.timeout(1000.0)
            return ("ack", {})
        return work()
    server.register("fs.open", handler)
    with pytest.raises(DeliveryError):
        run_req(sim, client, "server", "fs.open", {},
                policy=RetryPolicy(timeout=0.5, retries=1, pending_timeout=5.0))


def test_crashed_endpoint_receives_nothing(net_pair):
    sim, net, server, client = net_pair
    server.register("fs.getattr", lambda m: ("ack", {}))
    server.crash()
    with pytest.raises(DeliveryError):
        run_req(sim, client, "server", "fs.getattr", {},
                policy=RetryPolicy(timeout=0.3, retries=1))
    server.restart()
    reply = run_req(sim, client, "server", "fs.getattr", {})
    assert reply.payload == {}


def test_partition_formed_mid_flight_drops(net_pair):
    sim, net, server, client = net_pair
    server.register("fs.getattr", lambda m: ("ack", {}))

    # Cut the link at t=0 (before the datagram's delivery delay elapses).
    def cutter():
        yield sim.timeout(0.0001)
        net.block_pair("client", "server")
    sim.process(cutter())
    with pytest.raises(DeliveryError):
        run_req(sim, client, "server", "fs.getattr", {},
                policy=RetryPolicy(timeout=0.3, retries=0))


def test_directional_block_is_asymmetric(net_pair):
    sim, net, server, client = net_pair
    net.block("client", "server")
    assert not net.reachable("client", "server")
    assert net.reachable("server", "client")
    net.unblock("client", "server")
    assert net.reachable("client", "server")


def test_heal_all(net_pair):
    sim, net, server, client = net_pair
    net.block_pair("client", "server")
    net.heal_all()
    assert net.reachable("client", "server")
    assert net.reachable("server", "client")


def test_duplicate_endpoint_name_rejected(net_pair):
    sim, net, server, client = net_pair
    with pytest.raises(ValueError):
        Endpoint(sim, net, "server", server.clock)


def test_local_timeout_respects_clock_rate(net_pair):
    sim, net, server, client = net_pair
    # A 10-local-second timer on a clock with rate r takes 10/r global.
    rate = client.clock.rate

    def proc():
        yield client.local_timeout(10.0)
    p = sim.process(proc())
    sim.run()
    assert sim.now == pytest.approx(10.0 / rate)
