"""Transport edge cases: lost finals and re-ACKs, abandoned requests,
dedup-cache eviction, and the reply classes a parked transaction has."""

import pytest

from repro.net import ControlNetwork, DeliveryError, Endpoint, NackError
from repro.net.control import RetryPolicy
from repro.net.message import Message, MsgKind
from repro.sim import ClockEnsemble, RandomStreams, Simulator, TraceRecorder


@pytest.fixture
def pair():
    sim = Simulator()
    streams = RandomStreams(21)
    trace = TraceRecorder()
    net = ControlNetwork(sim, streams, trace)
    ens = ClockEnsemble(0.0, streams)
    server = Endpoint(sim, net, "server", ens.create("server", offset=0.0), trace)
    client = Endpoint(sim, net, "client", ens.create("client", offset=0.0), trace)
    return sim, net, server, client


def run_req(sim, endpoint, *args, **kwargs):
    proc = sim.process(endpoint.request(*args, **kwargs))
    proc.defuse()
    sim.run()
    if proc.exception is not None:
        raise proc.exception
    return proc.value


def test_pending_ack_retransmission(pair):
    """Under loss, a parked transaction's retries and polls are re-ACKed
    or answered from the replay record, and the handler runs once."""
    sim, net, server, client = pair
    executions = []

    def handler(msg):
        def work():
            executions.append(msg.seq)
            yield sim.timeout(2.0)
            return ("ack", {"v": 7})
        return work()
    server.register("t.open", handler)
    net.drop_probability = 0.4
    ok = 0
    for _ in range(10):
        try:
            reply = run_req(sim, client, "server", "t.open", {},
                            policy=RetryPolicy(timeout=0.4, retries=10,
                                               pending_timeout=30.0))
            assert reply.payload["v"] == 7
            ok += 1
        except (DeliveryError, NackError):
            pass
    assert ok >= 7
    # At-most-once held for the deferred path too.
    assert len(executions) == len(set(executions))


def test_result_for_abandoned_request_is_absorbed(pair):
    """If the requester gave up before a parked transaction finished,
    the final is a reply to a forgotten msg_id and is dropped; no
    crash, no replay."""
    sim, net, server, client = pair

    def handler(msg):
        def work():
            yield sim.timeout(5.0)
            return ("ack", {"late": True})
        return work()
    server.register("t.open", handler)
    with pytest.raises(DeliveryError):
        run_req(sim, client, "server", "t.open", {},
                policy=RetryPolicy(timeout=0.4, retries=0,
                                   pending_timeout=1.0))
    # Let the late final arrive; nothing blows up and nothing of it
    # stays behind on either side.
    sim.run(until=sim.now + 10.0)
    finals = [rec for rec in net.trace.select(kind="msg.recv", node="client")
              if rec.detail["msg_kind"] == MsgKind.ACK]
    assert len(finals) == 1
    assert client._pending == {} and server._parked == {}
    assert server._executed[("client", 1)][0] == "done"
    # A fresh request is unaffected by the orphan.
    server.register("t.get", lambda m: ("ack", {"fresh": True}))
    reply = run_req(sim, client, "server", "t.get", {})
    assert reply.payload["fresh"]


def test_dedup_cache_eviction(pair):
    """The dedup table is bounded; old entries are evicted FIFO."""
    sim, net, server, client = pair
    small = Endpoint(sim, net, "small", server.clock, dedup_capacity=4)
    small.register("t.get", lambda m: ("ack", {}))
    for i in range(10):
        run_req(sim, client, "small", "t.get", {"i": i})
    assert len(small._executed) <= 4


def test_reply_to_unknown_msg_id_dropped(pair):
    sim, net, server, client = pair
    from repro.net.message import Ack
    # Craft a stray ACK for a msg_id the client never sent.
    server.send_datagram(Ack("server", "client", reply_to=999_999))
    sim.run()  # must not raise


def test_gatekeeper_applies_before_dedup(pair):
    """A suspect client's duplicate request must also be NACKed — the
    gatekeeper runs before the replay cache."""
    sim, net, server, client = pair
    calls = []
    server.register("t.get", lambda m: (calls.append(1), ("ack", {}))[1])
    reply = run_req(sim, client, "server", "t.get", {})
    assert calls == [1]
    server.set_gatekeeper(lambda m: "nack")
    with pytest.raises(NackError):
        run_req(sim, client, "server", "t.get", {})
    assert calls == [1]  # the gate blocked execution


def test_concurrent_requests_from_one_client(pair):
    sim, net, server, client = pair
    server.register("t.get", lambda m: ("ack", {"i": m.payload["i"]}))
    results = []

    def one(i):
        reply = yield from client.request("server", "t.get", {"i": i})
        results.append(reply.payload["i"])
    for i in range(20):
        sim.process(one(i))
    sim.run()
    assert sorted(results) == list(range(20))


def test_nack_listener_fires_for_deferred_nack(pair, observe):
    sim, net, server, client = pair
    seen = observe(client)

    def handler(msg):
        def work():
            yield sim.timeout(0.5)
            return ("nack", {"error": "later"})
        return work()
    server.register("t.open", handler)
    with pytest.raises(NackError):
        run_req(sim, client, "server", "t.open", {})
    assert [r.payload for r, _t in seen.nacks()] == [{"error": "later"}]


def test_result_listener_fires_on_deferred_final(pair, observe):
    """A parked transaction's final is one ACK datagram answering the
    admitted attempt: observers see it once, with the epoch stamped at
    decision time, renewing from that attempt's send time."""
    sim, net, server, client = pair
    epoch = {"v": 2}
    server.reply_stamp = lambda msg: (epoch["v"], None)
    seen = observe(client)

    def handler(msg):
        def work():
            yield sim.timeout(0.5)
            epoch["v"] = 3               # a restart signal learned meanwhile
            return ("ack", {"fd": 1})
        return work()
    server.register("t.open", handler)
    reply = run_req(sim, client, "server", "t.open", {})
    assert reply.payload == {"fd": 1} and reply.stamp == (3, None)
    [(shown, renewal)] = seen.replies
    [sent] = net.trace.select(kind="msg.send", node="client")
    assert shown is reply and reply.reply_to == sent.detail["msg_id"]
    assert renewal == sent.time          # ideal clocks: local == global


def test_result_listener_silent_on_synchronous_ack(pair, observe):
    """A synchronous ACK is delivered once, as a renewing reply — never
    a second time as a renewal-less final."""
    sim, net, server, client = pair
    seen = observe(client)
    server.register("t.get", lambda m: ("ack", {}))
    reply = run_req(sim, client, "server", "t.get", {})
    assert [r for r, _t in seen.replies] == [reply]
    assert seen.replies[0][1] is not None


def test_forget_peer_drops_replay_state(pair):
    """Lease resolution declares the old incarnation dead: its
    at-most-once replay entries must not leak results to a restarted
    sender that reuses sequence numbers."""
    sim, net, server, client = pair
    server.register("t.get", lambda m: ("ack", {}))
    run_req(sim, client, "server", "t.get", {})
    run_req(sim, client, "server", "t.get", {})
    assert any(key[0] == "client" for key in server._executed)
    server.forget_peer("client")
    assert not any(key[0] == "client" for key in server._executed)
    # Other peers' entries survive a targeted forget.
    server.forget_peer("nobody")  # no-op
    run_req(sim, client, "server", "t.get", {})
    assert any(key[0] == "client" for key in server._executed)


def test_forget_peer_leaves_no_tombstone_in_eviction_order(pair):
    """A forgotten peer's keys leave the eviction order too.  The next
    incarnation reuses its sequence numbers; a stale slot left ahead of
    the re-appended key would evict the *live* entry early and let a
    retry re-execute."""
    sim, net, server, client = pair
    small = Endpoint(sim, net, "small", server.clock, dedup_capacity=4)
    runs = []
    small.register("t.set",
                   lambda m: (runs.append(m.src), ("ack", {}))[1])

    def deliver(src, seq):
        small._on_datagram(Message(src, "small", "t.set", {}, seq))

    deliver("c", 1)
    small.forget_peer("c")
    deliver("c", 1)                      # the new incarnation: runs again
    for other in ("x", "y", "z"):
        deliver(other, 1)                # 4 live keys, exactly at capacity
    assert len(small._executed) == 4
    deliver("c", 1)                      # a retry: must replay, not run
    assert runs.count("c") == 2
    assert len(small._executed) == 4
    assert len(small._executed_order) == 4


def _deferred(sim, delay, decision):
    def handler(msg):
        def work():
            yield sim.timeout(delay)
            return decision
        return work()
    return handler


def _reexecuted(sim, server):
    """First execution parks forever; the re-execution after the server
    lost its replay cache answers directly."""
    calls = []

    def handler(msg):
        calls.append(1)
        if len(calls) == 1:
            return _deferred(sim, 1000.0, ("ack", {}))(msg)
        return ("ack", {"second": True})

    def bounce():
        yield sim.timeout(1.2)           # after the retry's re-ACK
        server.crash()
        server.restart()
    sim.process(bounce())
    return handler


#: scenario -> (handler factory, the (label, renews?) of every reply the
#: requester's observers must see, in order, each exactly once).  The
#: retry timeout is 0.5 s: a handler that waits less is answered by its
#: final alone; one that waits longer has its retry re-ACKed pending and
#: its polls re-ACKed until the final answers the admitted attempt.
REPLY_CLASSES = {
    "direct-ack": (lambda sim, srv: lambda m: ("ack", {}),
                   [("ack", True)]),
    "nack": (lambda sim, srv: lambda m: ("nack", {"error": "no"}),
             [("nack", False)]),
    "parked-final-ack": (
        lambda sim, srv: _deferred(sim, 0.2, ("ack", {})),
        [("ack", True)]),
    "pending-re-acks": (
        lambda sim, srv: _deferred(sim, 2.7, ("ack", {})),
        [("pending", True), ("pending", True), ("pending", True),
         ("ack", True)]),
    "re-execution-answers-directly": (
        _reexecuted, [("pending", True), ("ack", True)]),
    "final-nack": (
        lambda sim, srv: _deferred(sim, 0.2, ("nack", {"error": "later"})),
        [("nack", False)]),
}


@pytest.mark.parametrize("scenario", sorted(REPLY_CLASSES))
def test_every_reply_class_reaches_observers_exactly_once(pair, observe,
                                                          scenario):
    """Direct ACK, NACK, pending re-ACK, a parked transaction's final
    and a re-execution's direct answer each pass the one delivery path
    once.  An ACK renews from the send time of the attempt it answers;
    a NACK carries no renewal time."""
    sim, net, server, client = pair
    make_handler, expected = REPLY_CLASSES[scenario]
    server.register("t.open", make_handler(sim, server))
    seen = observe(client)
    try:
        run_req(sim, client, "server", "t.open", {},
                policy=RetryPolicy(timeout=0.5, retries=3))
    except NackError:
        pass

    def label(reply):
        if reply.kind == MsgKind.NACK:
            return "nack"
        return "pending" if reply.pending else "ack"
    assert [(label(r), t is not None) for r, t in seen.replies] == expected
    # The fixture's clocks are ideal, so local send time == trace time.
    sent_at = {rec.detail["msg_id"]: rec.time
               for rec in net.trace.select(kind="msg.send", node="client")}
    renewals = [t for _r, t in seen.replies if t is not None]
    assert renewals == [sent_at[r.reply_to] for r, t in seen.replies
                        if t is not None]
    assert len(set(renewals)) == len(renewals)   # one attempt each
    # A final answers the admitted (first) attempt, however many were
    # sent; only a re-execution answers the poll that reached it.
    answered = seen.replies[-1][0].reply_to
    first, last = min(sent_at), max(sent_at)
    assert answered == (last if scenario.startswith("re-exec") else first)


@pytest.mark.parametrize("deferred", [False, True],
                         ids=["synchronous", "deferred"])
def test_replayed_reply_keeps_the_stamp_of_its_execution(pair, deferred):
    """The stamp is taken before the decision enters the at-most-once
    cache, and recorded with it, so a retry that is answered from the
    cache sees the watermark the transaction executed under — never a
    fresher one (the watermark safety condition: a new watermark on an
    old value would let a cache node install data that predates an
    invalidation it has already processed)."""
    sim, net, server, client = pair
    watermark = {"v": 0}
    server.reply_stamp = lambda msg: (1, watermark["v"])
    runs = []

    def handler(msg):
        runs.append(1)
        if deferred:
            return _deferred(sim, 0.1, ("ack", {"value": "old"}))(msg)
        return ("ack", {"value": "old"})
    server.register("t.get", handler)

    net.block("server", "client")        # every reply of the first try is lost
    proc = sim.process(client.request(
        "server", "t.get", {}, policy=RetryPolicy(timeout=0.5, retries=3)))
    sim.run(until=0.25)
    assert runs == [1] and not proc.triggered
    watermark["v"] = 9                   # a mutation lands meanwhile
    net.unblock("server", "client")
    sim.run()
    assert runs == [1]                   # the retry was answered by replay
    assert proc.value.payload == {"value": "old"}
    assert proc.value.stamp == (1, 0)


# -- the responder decides by what the handler did, not by what it returned --

def _generator_handler(sim, waits, decision, calls=None):
    """A generator handler that makes ``waits`` zero-or-more waits."""
    def handler(msg):
        if calls is not None:
            calls.append(msg.msg_id)
        for _ in range(waits):
            yield sim.timeout(0.1)
        return decision
    return handler


def _wire(net):
    """(kind, src) of every delivered datagram, in order."""
    return [(rec.detail["msg_kind"], rec.detail["src"])
            for rec in net.trace.select(kind="msg.recv")]


def test_generator_that_never_waits_costs_two_datagrams(pair, observe):
    """Run to its end inside the delivery, a generator handler is
    answered like a tuple: request and one stamped ACK, which renews
    from the send time of the attempt it answers."""
    sim, net, server, client = pair
    server.reply_stamp = lambda msg: (3, None)
    server.register("t.open", _generator_handler(sim, 0, ("ack", {"v": 1})))
    seen = observe(client)
    reply = run_req(sim, client, "server", "t.open", {})
    assert _wire(net) == [("t.open", "client"), (MsgKind.ACK, "server")]
    assert reply.payload == {"v": 1} and reply.stamp == (3, None)
    [(shown, renewal)] = seen.replies
    assert shown is reply
    [sent] = net.trace.select(kind="msg.send", node="client")
    assert renewal == sent.time          # ideal clocks: local == global
    assert server._parked == {}


def test_generator_that_waits_once_costs_two_datagrams(pair, observe):
    """A handler that parks for less than the retry timeout is answered
    like one that never waited: no receipt ACK, no server-initiated
    request, one final that renews from the admitted attempt."""
    sim, net, server, client = pair
    server.reply_stamp = lambda msg: (3, None)
    server.register("t.open", _generator_handler(sim, 1, ("ack", {"v": 1})))
    seen = observe(client)
    reply = run_req(sim, client, "server", "t.open", {})
    assert _wire(net) == [("t.open", "client"), (MsgKind.ACK, "server")]
    assert reply.payload == {"v": 1} and reply.stamp == (3, None)
    [(final, renewal)] = seen.replies
    [sent] = net.trace.select(kind="msg.send", node="client")
    assert final is reply and reply.reply_to == sent.detail["msg_id"]
    assert renewal == sent.time
    assert server._parked == {}


def test_raise_before_first_wait_is_a_direct_nack_replayed_verbatim(pair):
    sim, net, server, client = pair
    calls = []

    def handler(msg):
        calls.append(1)
        raise RuntimeError("no such file")
        yield  # pragma: no cover - makes this a generator handler
    server.register("t.open", handler)
    net.block("server", "client")        # the first NACK is lost
    proc = sim.process(client.request(
        "server", "t.open", {}, policy=RetryPolicy(timeout=0.5, retries=2)))
    proc.defuse()
    sim.run(until=0.25)
    net.unblock("server", "client")
    sim.run()
    assert isinstance(proc.exception, NackError)
    assert proc.exception.nack.payload == {
        "error": repr(RuntimeError("no such file"))}
    assert calls == [1]                  # the retry was answered by replay
    assert {kind for kind, _src in _wire(net)} == {"t.open", MsgKind.NACK}


def test_duplicate_of_a_parked_transaction_is_re_acked_not_re_run(pair,
                                                                  observe):
    sim, net, server, client = pair
    calls = []
    server.register("t.open",
                    _generator_handler(sim, 20, ("ack", {}), calls))
    seen = observe(client)
    reply = run_req(sim, client, "server", "t.open", {},
                    policy=RetryPolicy(timeout=0.5, retries=3))
    receipts = [r for r, _t in seen.replies if r.pending]
    assert len(receipts) >= 2            # the poll re-sent the request
    assert calls[0] not in {r.reply_to for r in receipts}
    assert reply.reply_to == calls[0]    # the final answers the admitted one
    assert len(calls) == 1


def test_duplicate_after_an_inline_finish_is_answered_from_the_done_record(pair):
    """... with the stamp the transaction executed under, not a fresher
    one (the generator twin of the synchronous replay test above)."""
    sim, net, server, client = pair
    watermark = {"v": 0}
    server.reply_stamp = lambda msg: (1, watermark["v"])
    calls = []
    server.register("t.get", _generator_handler(
        sim, 0, ("ack", {"value": "old"}), calls))
    net.block("server", "client")
    proc = sim.process(client.request(
        "server", "t.get", {}, policy=RetryPolicy(timeout=0.5, retries=3)))
    sim.run(until=0.25)
    assert server._executed[("client", 1)][0] == "done"
    watermark["v"] = 9
    net.unblock("server", "client")
    sim.run()
    assert len(calls) == 1
    assert proc.value.payload == {"value": "old"}
    assert proc.value.stamp == (1, 0)


@pytest.mark.parametrize("generator", [False, True],
                         ids=["synchronous", "generator"])
def test_invalid_decision_raises_in_the_delivery(pair, generator):
    """A handler returning something that is no decision is a bug in
    the handler, not a NACK: it raises where the request is delivered,
    whichever way the handler was written."""
    sim, net, server, client = pair
    if generator:
        server.register("t.open", _generator_handler(sim, 0, "nonsense"))
    else:
        server.register("t.open", lambda msg: "nonsense")
    sim.process(client.request("server", "t.open", {}))
    with pytest.raises(TypeError, match="invalid decision"):
        sim.run()


def test_crash_kills_parked_transactions(pair):
    """A crashed node's parked transactions die with it: the handlers'
    ``finally`` blocks run, no final is ever sent for them, and the
    retry that reaches the restarted node re-executes and is answered."""
    sim, net, server, client = pair
    started, cleaned, finished = [], [], []

    def handler(msg):
        started.append(msg.msg_id)
        try:
            yield sim.timeout(1.0)
            finished.append(msg.msg_id)
            return ("ack", {"n": msg.payload["n"]})
        finally:
            cleaned.append(msg.msg_id)
    server.register("t.open", handler)
    answered = []
    send = server.send_datagram
    server.send_datagram = lambda m: (answered.append(m.reply_to), send(m))
    policy = RetryPolicy(timeout=0.5, retries=3)
    procs = [sim.process(client.request("server", "t.open", {"n": n},
                                        policy=policy)) for n in range(2)]
    sim.run(until=0.25)
    assert len(started) == 2 and list(server._parked) == started
    first_tickets = list(started)
    server.crash()
    sim.run(until=0.3)
    assert cleaned == first_tickets and finished == []
    assert server._parked == {} and server._executed == {}
    server.restart()
    sim.run()
    # Both requests were re-executed after the restart, each once more.
    assert len(started) == 4 and set(finished) == set(started[2:])
    assert [p.value.payload["n"] for p in procs] == [0, 1]
    assert not set(answered) & set(first_tickets)  # none for the two that died
    assert {p.value.reply_to for p in procs} == set(started[2:])


def test_final_after_a_retry_never_moves_the_lease_start_back(pair, observe):
    """A handler that outlasts the retry timeout: the retry is re-ACKed
    pending and renews from its own send time; the final answers the
    admitted msg_id and so renews from the earlier first send — which a
    lease already renewed past ignores (``renew`` never moves back)."""
    from repro.lease import ClientLeaseManager, LeaseContract
    from repro.net import ReplyObserver

    sim, net, server, client = pair
    lease = ClientLeaseManager(sim, client, "server",
                               LeaseContract(tau=10.0, epsilon=0.0))
    starts = []

    class Renew(ReplyObserver):
        def on_reply(self, reply, renewal_time):
            if renewal_time is not None:
                lease.renew(renewal_time)
            starts.append(lease.lease_start_local)
    client.observers.append(Renew())
    seen = observe(client)
    calls = []
    server.register("t.open", _generator_handler(sim, 8, ("ack", {}), calls))
    proc = sim.process(client.request(
        "server", "t.open", {}, policy=RetryPolicy(timeout=0.5, retries=3)))
    sim.run(until=2.0)                   # the lease daemon never stops
    sends = net.trace.select(kind="msg.send", node="client")
    sent = [rec.time for rec in sends]
    (re_ack, re_renewal), (final, final_renewal) = seen.replies
    assert re_ack.pending and re_ack.payload == {}
    assert re_renewal == sent[1]
    assert final is proc.value
    assert final.reply_to == calls[0] == sends[0].detail["msg_id"]
    assert final_renewal == sent[0] < re_renewal
    assert starts == [sent[1], sent[1]]  # the final did not move it back


def test_dropped_final_is_answered_from_the_done_record(pair, observe):
    """Nothing re-sends a lost final: the requester's next poll finds the
    ``"done"`` record and is answered from it, with the stamp the
    transaction was executed under, not the one current at the poll."""
    sim, net, server, client = pair
    watermark = {"v": 0}
    server.reply_stamp = lambda msg: (1, watermark["v"])
    calls = []
    server.register("t.get", _generator_handler(
        sim, 12, ("ack", {"value": "old"}), calls))   # finishes at ~1.2 s
    seen = observe(client)

    def weather():
        yield sim.timeout(1.0)
        watermark["v"] = 5
        net.block("server", "client")    # the final is lost
        yield sim.timeout(0.3)
        net.unblock("server", "client")
        watermark["v"] = 9
    sim.process(weather())
    reply = run_req(sim, client, "server", "t.get", {},
                    policy=RetryPolicy(timeout=0.5, retries=3))
    assert calls and len(calls) == 1
    assert reply.payload == {"value": "old"} and reply.stamp == (1, 5)
    polls = [rec.detail["msg_id"]
             for rec in net.trace.select(kind="msg.send", node="client")]
    assert reply.reply_to == polls[-1] != calls[0]
    assert [r.pending for r, _t in seen.replies] == [True, False]


class _RidesUntil:
    """An observer that rides out silence until ``until`` (sim time)."""

    def __init__(self, sim, until):
        self.sim, self.until, self.failures = sim, until, []

    def on_reply(self, reply, renewal_time):
        pass

    def on_delivery_failure(self, dst, msg):
        self.failures.append((self.sim.now, msg.seq))

    def rides_out(self, dst, msg):
        return self.sim.now < self.until


@pytest.mark.parametrize("riding", [False, True], ids=["fails", "rides-out"])
def test_parked_request_whose_server_crashes_rides_out_the_outage(pair,
                                                                 riding):
    """No receipt ACK tells a requester its first attempt was admitted,
    so a crash that kills the parked transaction before a retry arrives
    leaves every retry unanswered.  A requester whose observer rides the
    silence out polls on, and the restarted server re-executes; one
    without fails after its retries, telling its observers once."""
    sim, net, server, client = pair
    observer = _RidesUntil(sim, until=60.0 if riding else 0.0)
    client.observers.append(observer)
    runs = []
    server.register("t.lock", _generator_handler(
        sim, 10, ("ack", {"mode": 2}), runs))          # a 1 s wait
    proc = sim.process(client.request(
        "server", "t.lock", {}, policy=RetryPolicy(timeout=0.5)))
    proc.defuse()
    sim.run(until=0.2)
    assert len(runs) == 1 and server._parked       # admitted, parked
    server.crash()                  # before the first retry (0.5 s)
    sim.run(until=8.0)
    server.restart()
    sim.run()
    if not riding:
        assert isinstance(proc.exception, DeliveryError)
        assert [t for t, _ in observer.failures] == [pytest.approx(2.0)]
        assert len(runs) == 1
        return
    assert proc.value.payload["mode"] == 2
    assert observer.failures == [] and len(runs) == 2  # re-executed once
    assert proc.value.reply_to == runs[1] != runs[0]


def test_riding_ends_when_the_observer_stops_riding(pair):
    """Riding is asked again before every poll: once the observer stops
    (a lease expired), the next poll is a delivery failure."""
    sim, net, server, client = pair
    observer = _RidesUntil(sim, until=5.0)
    client.observers.append(observer)
    server.crash()
    proc = sim.process(client.request(
        "server", "t.open", {}, policy=RetryPolicy(timeout=0.5)))
    proc.defuse()
    sim.run()
    assert isinstance(proc.exception, DeliveryError)
    (when, _seq), = observer.failures
    assert 5.0 <= when < 5.0 + 2 * 0.5 + 1e-9
    sends = net.trace.select(kind="msg.send", node="client")
    assert 4 < len(sends) <= 4 + 4         # the retries, then 2 × timeout polls
