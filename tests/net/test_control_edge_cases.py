"""Transport edge cases: pending-ACK loss, duplicate results, abandoned
requests, dedup-cache eviction."""

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
    """Retrying a request whose pending-ACK was lost re-receives the same
    ticket, and the final result still arrives exactly once."""
    sim, net, server, client = pair
    executions = []

    def handler(msg):
        def work():
            executions.append(msg.seq)
            yield sim.timeout(2.0)
            return ("ack", {"v": 7})
        return work()
    server.register("fs.open", handler)
    net.drop_probability = 0.4
    ok = 0
    for _ in range(10):
        try:
            reply = run_req(sim, client, "server", "fs.open", {},
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
    """If the requester gave up before the deferred result arrived, the
    result is ACKed-and-dropped; no crash, no replay."""
    sim, net, server, client = pair

    def handler(msg):
        def work():
            yield sim.timeout(5.0)
            return ("ack", {"late": True})
        return work()
    server.register("fs.open", handler)
    with pytest.raises(DeliveryError):
        run_req(sim, client, "server", "fs.open", {},
                policy=RetryPolicy(timeout=0.4, retries=0,
                                   pending_timeout=1.0))
    # Let the late result arrive; nothing blows up.  The orphan parks in
    # the bounded early-results buffer (the receiver cannot distinguish
    # "reordered" from "abandoned") and never reaches application code.
    sim.run(until=sim.now + 10.0)
    assert client._pending_results == {}
    assert len(client._early_results) <= 256
    # A fresh request is unaffected by the orphan.
    server.register("fs.getattr", lambda m: ("ack", {"fresh": True}))
    reply = run_req(sim, client, "server", "fs.getattr", {})
    assert reply.payload["fresh"]


def test_dedup_cache_eviction(pair):
    """The dedup table is bounded; old entries are evicted FIFO."""
    sim, net, server, client = pair
    small = Endpoint(sim, net, "small", server.clock, dedup_capacity=4)
    small.register("fs.getattr", lambda m: ("ack", {}))
    for i in range(10):
        run_req(sim, client, "small", "fs.getattr", {"i": i})
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
    server.register("fs.getattr", lambda m: (calls.append(1), ("ack", {}))[1])
    reply = run_req(sim, client, "server", "fs.getattr", {})
    assert calls == [1]
    server.set_gatekeeper(lambda m: "nack")
    with pytest.raises(NackError):
        run_req(sim, client, "server", "fs.getattr", {})
    assert calls == [1]  # the gate blocked execution


def test_concurrent_requests_from_one_client(pair):
    sim, net, server, client = pair
    server.register("fs.getattr", lambda m: ("ack", {"i": m.payload["i"]}))
    results = []

    def one(i):
        reply = yield from client.request("server", "fs.getattr", {"i": i})
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
    server.register("fs.open", handler)
    with pytest.raises(NackError):
        run_req(sim, client, "server", "fs.open", {})
    assert [r.payload for r, _t in seen.nacks()] == [{"error": "later"}]


def test_result_listener_fires_on_deferred_final(pair, observe):
    """A deferred transaction's final result is reconstructed locally
    from the RESULT payload, not received as an ACK datagram — yet
    slow-path signals stamped into it, like the server epoch, must
    still reach the observers.  It carries no renewal time (the receipt
    ACK already renewed), which is how an observer tells the two apart."""
    sim, net, server, client = pair
    seen = observe(client)

    def handler(msg):
        def work():
            yield sim.timeout(0.5)
            return ("ack", {"__epoch__": 3, "fd": 1})
        return work()
    server.register("fs.open", handler)
    reply = run_req(sim, client, "server", "fs.open", {})
    assert reply.payload["fd"] == 1
    acks = [r.payload for r, t in seen.replies if t is not None]
    finals = [r.payload for r, t in seen.replies if t is None]
    # The receipt ACK carried no epoch; the final did.
    assert acks and all("__epoch__" not in p for p in acks)
    assert [p.get("__epoch__") for p in finals] == [3]
    assert seen.replies[-1][0] is reply


def test_result_listener_silent_on_synchronous_ack(pair, observe):
    """A synchronous ACK is delivered once, as a renewing reply — never
    a second time as a renewal-less final."""
    sim, net, server, client = pair
    seen = observe(client)
    server.register("fs.getattr", lambda m: ("ack", {}))
    reply = run_req(sim, client, "server", "fs.getattr", {})
    assert [r for r, _t in seen.replies] == [reply]
    assert seen.replies[0][1] is not None


def test_forget_peer_drops_replay_state(pair):
    """Lease resolution declares the old incarnation dead: its
    at-most-once replay entries must not leak results to a restarted
    sender that reuses sequence numbers."""
    sim, net, server, client = pair
    server.register("fs.getattr", lambda m: ("ack", {}))
    run_req(sim, client, "server", "fs.getattr", {})
    run_req(sim, client, "server", "fs.getattr", {})
    assert any(key[0] == "client" for key in server._executed)
    server.forget_peer("client")
    assert not any(key[0] == "client" for key in server._executed)
    # Other peers' entries survive a targeted forget.
    server.forget_peer("nobody")  # no-op
    run_req(sim, client, "server", "fs.getattr", {})
    assert any(key[0] == "client" for key in server._executed)


def test_forget_peer_leaves_no_tombstone_in_eviction_order(pair):
    """A forgotten peer's keys leave the eviction order too.  The next
    incarnation reuses its sequence numbers; a stale slot left ahead of
    the re-appended key would evict the *live* entry early and let a
    retry re-execute."""
    sim, net, server, client = pair
    small = Endpoint(sim, net, "small", server.clock, dedup_capacity=4)
    runs = []
    small.register("fs.setattr",
                   lambda m: (runs.append(m.src), ("ack", {}))[1])

    def deliver(src, seq):
        small._on_datagram(Message(src, "small", "fs.setattr", {}, seq))

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
        yield sim.timeout(0.5)
        server.crash()
        server.restart()
    sim.process(bounce())
    return handler


#: scenario -> (handler factory, the (label, renews?) of every reply the
#: requester's observers must see, in order, each exactly once)
REPLY_CLASSES = {
    "direct-ack": (lambda sim, srv: lambda m: ("ack", {}),
                   [("ack", True)]),
    "nack": (lambda sim, srv: lambda m: ("nack", {"error": "no"}),
             [("nack", False)]),
    "receipt-then-final-ack": (
        lambda sim, srv: _deferred(sim, 0.5, ("ack", {})),
        [("pending", True), ("ack", False)]),
    "pending-re-acks": (
        lambda sim, srv: _deferred(sim, 2.5, ("ack", {})),
        [("pending", True), ("pending", True), ("pending", True),
         ("ack", False)]),
    "re-execution-answers-directly": (
        _reexecuted, [("pending", True), ("ack", True)]),
    "final-nack": (
        lambda sim, srv: _deferred(sim, 0.5, ("nack", {"error": "later"})),
        [("pending", True), ("nack", False)]),
}


@pytest.mark.parametrize("scenario", sorted(REPLY_CLASSES))
def test_every_reply_class_reaches_observers_exactly_once(pair, observe,
                                                          scenario):
    """Direct ACK, NACK, receipt ACK, pending re-ACK, a re-execution's
    direct answer and the Ack/Nack synthesized from a RESULT each pass
    the one delivery path once.  An ACK datagram renews from the send
    time of the attempt it answers; a NACK or a deferred final carries
    no renewal time."""
    sim, net, server, client = pair
    make_handler, expected = REPLY_CLASSES[scenario]
    server.register("fs.open", make_handler(sim, server))
    seen = observe(client)
    try:
        run_req(sim, client, "server", "fs.open", {},
                policy=RetryPolicy(timeout=0.5, retries=3))
    except NackError:
        pass

    def label(reply):
        if reply.kind == MsgKind.NACK:
            return "nack"
        return "pending" if reply.payload.get("__pending__") else "ack"
    assert [(label(r), t is not None) for r, t in seen.replies] == expected
    # The fixture's clocks are ideal, so local send time == trace time.
    sent_at = {rec.detail["msg_id"]: rec.time
               for rec in net.trace.select(kind="msg.send", node="client")}
    renewals = [t for _r, t in seen.replies if t is not None]
    assert renewals == [sent_at[r.reply_to] for r, t in seen.replies
                        if t is not None]
    assert len(set(renewals)) == len(renewals)   # one attempt each


@pytest.mark.parametrize("deferred", [False, True],
                         ids=["synchronous", "deferred"])
def test_replayed_reply_keeps_the_stamp_of_its_execution(pair, deferred):
    """The stamp is merged before the decision enters the at-most-once
    cache, so a retry that is answered from the cache sees the
    watermark the transaction executed under — never a fresher one
    (the ``__mseq__`` safety condition: a new watermark on an old value
    would let a cache node install data that predates an invalidation
    it has already processed)."""
    sim, net, server, client = pair
    watermark = {"v": 0}
    server.reply_stamp = lambda msg: {"__mseq__": watermark["v"]}
    runs = []

    def handler(msg):
        runs.append(1)
        if deferred:
            return _deferred(sim, 0.1, ("ack", {"value": "old"}))(msg)
        return ("ack", {"value": "old"})
    server.register("fs.getattr", handler)

    net.block("server", "client")        # every reply of the first try is lost
    proc = sim.process(client.request(
        "server", "fs.getattr", {}, policy=RetryPolicy(timeout=0.5, retries=3)))
    sim.run(until=0.25)
    assert runs == [1] and not proc.triggered
    watermark["v"] = 9                   # a mutation lands meanwhile
    net.unblock("server", "client")
    sim.run()
    assert runs == [1]                   # the retry was answered by replay
    assert proc.value.payload == {"value": "old", "__mseq__": 0}


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
    server.reply_stamp = lambda msg: {"__epoch__": 3}
    server.register("fs.open", _generator_handler(sim, 0, ("ack", {"v": 1})))
    seen = observe(client)
    reply = run_req(sim, client, "server", "fs.open", {})
    assert _wire(net) == [("fs.open", "client"), (MsgKind.ACK, "server")]
    assert reply.payload == {"v": 1, "__epoch__": 3}
    [(shown, renewal)] = seen.replies
    assert shown is reply
    [sent] = net.trace.select(kind="msg.send", node="client")
    assert renewal == sent.time          # ideal clocks: local == global
    assert server._parked == {}


def test_generator_that_waits_once_costs_four_datagrams(pair, observe):
    sim, net, server, client = pair
    server.register("fs.open", _generator_handler(sim, 1, ("ack", {"v": 1})))
    seen = observe(client)
    reply = run_req(sim, client, "server", "fs.open", {})
    assert _wire(net) == [("fs.open", "client"), (MsgKind.ACK, "server"),
                          (MsgKind.RESULT, "server"), (MsgKind.ACK, "client")]
    assert reply.payload == {"v": 1}
    (receipt, renewed), (final, final_renewal) = seen.replies
    assert receipt.payload["__pending__"] and renewed is not None
    assert final is reply and final_renewal is None
    assert server._parked == {}


def test_raise_before_first_wait_is_a_direct_nack_replayed_verbatim(pair):
    sim, net, server, client = pair
    calls = []

    def handler(msg):
        calls.append(1)
        raise RuntimeError("no such file")
        yield  # pragma: no cover - makes this a generator handler
    server.register("fs.open", handler)
    net.block("server", "client")        # the first NACK is lost
    proc = sim.process(client.request(
        "server", "fs.open", {}, policy=RetryPolicy(timeout=0.5, retries=2)))
    proc.defuse()
    sim.run(until=0.25)
    net.unblock("server", "client")
    sim.run()
    assert isinstance(proc.exception, NackError)
    assert proc.exception.nack.payload == {
        "error": repr(RuntimeError("no such file"))}
    assert calls == [1]                  # the retry was answered by replay
    assert MsgKind.RESULT not in [kind for kind, _src in _wire(net)]


def test_duplicate_of_a_parked_transaction_is_re_acked_not_re_run(pair,
                                                                  observe):
    sim, net, server, client = pair
    calls = []
    server.register("fs.open",
                    _generator_handler(sim, 12, ("ack", {}), calls))
    seen = observe(client)
    run_req(sim, client, "server", "fs.open", {},
            policy=RetryPolicy(timeout=0.5, retries=3))
    receipts = [r for r, _t in seen.replies if r.payload.get("__pending__")]
    assert len(receipts) >= 2            # the poll re-sent the request
    assert {r.payload["__ticket__"] for r in receipts} == {calls[0]}
    assert len(calls) == 1


def test_duplicate_after_an_inline_finish_is_answered_from_the_done_record(pair):
    """... with the stamp the transaction executed under, not a fresher
    one (the generator twin of the synchronous replay test above)."""
    sim, net, server, client = pair
    watermark = {"v": 0}
    server.reply_stamp = lambda msg: {"__mseq__": watermark["v"]}
    calls = []
    server.register("fs.getattr", _generator_handler(
        sim, 0, ("ack", {"value": "old"}), calls))
    net.block("server", "client")
    proc = sim.process(client.request(
        "server", "fs.getattr", {}, policy=RetryPolicy(timeout=0.5, retries=3)))
    sim.run(until=0.25)
    assert server._executed[("client", 1)][0] == "done"
    watermark["v"] = 9
    net.unblock("server", "client")
    sim.run()
    assert len(calls) == 1
    assert proc.value.payload == {"value": "old", "__mseq__": 0}


@pytest.mark.parametrize("generator", [False, True],
                         ids=["synchronous", "generator"])
def test_invalid_decision_raises_in_the_delivery(pair, generator):
    """A handler returning something that is no decision is a bug in
    the handler, not a NACK: it raises where the request is delivered,
    whichever way the handler was written."""
    sim, net, server, client = pair
    if generator:
        server.register("fs.open", _generator_handler(sim, 0, "nonsense"))
    else:
        server.register("fs.open", lambda msg: "nonsense")
    sim.process(client.request("server", "fs.open", {}))
    with pytest.raises(TypeError, match="invalid decision"):
        sim.run()


def test_crash_kills_parked_transactions(pair):
    """A crashed node's parked transactions die with it: the handlers'
    ``finally`` blocks run, no RESULT is ever sent, and the retry that
    reaches the restarted node re-executes under a fresh ticket."""
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
    server.register("fs.open", handler)
    policy = RetryPolicy(timeout=0.5, retries=3)
    procs = [sim.process(client.request("server", "fs.open", {"n": n},
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
    results = [rec for rec in net.trace.select(kind="msg.send", node="server")
               if rec.detail["msg_kind"] == MsgKind.RESULT]
    assert len(results) == 2             # none for the two that died
    assert not set(first_tickets) & set(started[2:])
