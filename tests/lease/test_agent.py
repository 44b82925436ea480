"""LeaseAgent against fakes: no network, no kernel, no node."""

from repro.lease.agent import LeaseAgent
from repro.net.message import (Ack, DeliveryError, Message, MsgKind, Nack,
                               Null)
from repro.sim import TraceRecorder


class FakeSim:
    """Runs a spawned process to completion on the spot."""

    now = 0.0

    def process(self, gen, name=None):
        for _ in gen:
            raise AssertionError("a fake request never waits")


class FakeEndpoint:
    def __init__(self, fail=False):
        self.name = "n1"
        self.trace = TraceRecorder(enabled=True)
        self.observers = []
        self.lapse_gen = 0
        self.sent = []
        self.fail = fail

    def request(self, dst, kind, payload):
        self.sent.append((dst, kind, payload))
        if self.fail:
            raise DeliveryError(Message("n1", dst, kind), 4)
        return Ack(dst, "n1", 1, payload={})
        yield


class FakeLease:
    def __init__(self, log):
        self.log = log

    def renew(self, t):
        self.log.append(("renew", t))

    def on_nack(self):
        self.log.append(("lease.on_nack",))


def make(**kwargs):
    log = []
    endpoint = FakeEndpoint(fail=kwargs.pop("fail", False))
    agent = LeaseAgent(
        FakeSim(), endpoint, (), None,
        on_expired=lambda srv: log.append(("expired", srv,
                                           endpoint.lapse_gen)),
        on_epoch_change=lambda srv: log.append(("epoch_change", srv)),
        on_lease_nack=lambda srv: log.append(("lease_nack", srv)), **kwargs)
    agent.leases["s"] = FakeLease(log)
    return agent, endpoint, log


def ack(epoch):
    return Ack("s", "n1", 1, payload={}, stamp=(epoch, None))


def test_agent_is_its_endpoints_observer():
    agent, endpoint, _ = make()
    assert endpoint.observers == [agent]


def test_epoch_is_learnt_before_the_lease_renews():
    agent, endpoint, log = make()
    agent.on_reply(ack(1), 5.0)
    assert log == [("renew", 5.0)]                  # first epoch: silent
    agent.on_reply(ack(2), 6.0)
    assert log[1:] == [("epoch_change", "s"), ("renew", 6.0)]
    [rec] = endpoint.trace.select(kind="client.epoch_change")
    assert rec.node == "n1" and rec.detail == {"server": "s", "epoch": 2}
    agent.on_reply(ack(2), None)                    # a deferred final
    assert len(log) == 3                            # no renewal, same epoch


def test_only_the_lease_nack_touches_the_lease():
    agent, _, log = make()
    agent.on_reply(Nack("s", "n1", 1, payload={"error": "exists"}), None)
    assert log == []
    agent.on_reply(Nack("s", "n1", 1, lease_nack=True), None)
    assert log == [("lease.on_nack",), ("lease_nack", "s")]
    # From a server it holds no lease with: still reported upward.
    agent.on_reply(Nack("t", "n1", 1, lease_nack=True), None)
    assert log[-1] == ("lease_nack", "t")


def test_a_lapse_is_attested_before_the_holder_hears_of_it():
    agent, endpoint, log = make()
    agent.expire("s")
    agent.expire()
    assert log == [("expired", "s", 1), ("expired", None, 2)]


def test_keepalive_counts_records_and_survives_a_dead_server():
    for fail in (False, True):
        agent, endpoint, _ = make(fail=fail)
        agent._spawn_keepalive("s")
        assert agent.keepalives_sent == 1
        assert endpoint.sent == [("s", MsgKind.KEEPALIVE, Null())]
        [rec] = endpoint.trace.select(kind="lease.keepalive")
        assert rec.detail == {"server": "s"}


def test_keepalive_goes_through_the_holders_request_path():
    routed = []

    def request(server, kind, payload):
        routed.append((server, kind))
        return None
        yield
    agent, endpoint, _ = make(request=request)
    agent._spawn_keepalive("s")
    assert routed == [("s", MsgKind.KEEPALIVE)] and endpoint.sent == []


def test_resume_is_recorded_once_per_quiesce():
    agent, endpoint, _ = make()
    agent.resume()
    agent.quiesce()
    agent.resume()
    agent.resume()
    kinds = [r.kind for r in endpoint.trace.records]
    assert kinds == ["client.quiesce", "client.resume"]
    assert not agent.quiesced
