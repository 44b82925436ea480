"""Differential test: the responder that decides by what a handler *did*
against the one it replaced, which decided by what a handler *returned*.

``ReturnTypeEndpoint`` below restores the pre-PR-23 responder, its code
kept verbatim as the reference model: every handler that returns a
generator is answered by a ``__pending__`` receipt ACK, a ``RESULT``
request and that request's ACK, through ``_run_deferred`` plus an inner
handler process plus a ``send_result`` process.  Hypothesis drives both
through the same handler shapes (a plain tuple, a generator with 0-2
waits, one raising before or after a wait) under the same loss windows,
on a fabric without jitter so that a different datagram count cannot
move anything but the datagram count.

What the requester can observe must agree: the outcome of every request
(ACK, NACK or delivery failure, and the payload), how often each handler
ran, and how many replies renewed its lease.  Two differences are the
change itself and are asserted as such: the datagrams a transaction that
never waits costs, and the receipt ACK such a transaction no longer
sends before a NACK (a direct NACK renews nothing, exactly as a
synchronous handler's never did).
"""

from typing import Any, Generator, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import (ControlNetwork, DeliveryError, Endpoint, NackError,
                       ReplyObserver)
from repro.net.control import RetryPolicy
from repro.net.message import Message, MsgKind
from repro.sim import ClockEnsemble, RandomStreams, Simulator, TraceRecorder
from repro.sim.events import Event


class ReturnTypeEndpoint(Endpoint):
    """The old responder.  Reference model only."""

    def _on_request(self, msg: Message) -> None:
        if msg.kind == MsgKind.RESULT:
            self._h_result(msg)
            return
        key = (msg.src, msg.seq)
        cached = self._executed.get(key)
        if cached is not None:
            state, decision, payload = cached
            if state == "pending":
                self._reply_pending(msg, decision)
                return
            self._reply(msg, decision or "ack", payload)
            return
        handler = self._handlers[msg.kind]
        result = handler(msg)
        if hasattr(result, "send") and hasattr(result, "throw"):
            ticket = msg.msg_id
            self._remember(key, ("pending", ticket, None))
            self._reply_pending(msg, ticket)
            self.sim.process(self._run_deferred(key, msg, ticket, result),
                             name=f"{self.name}:{msg.kind}#{msg.seq}")
        else:
            self._reply(msg, *self._finish(key, msg, self._normalize(result)))

    def _run_deferred(self, key: Tuple[str, int], msg: Message, ticket: int,
                      gen: Generator[Event, Any, Any],
                      ) -> Generator[Event, Any, None]:
        proc = self.sim.process(gen, name=f"{self.name}:handler:{msg.kind}")
        try:
            result = self._normalize((yield proc))
        except Exception as exc:
            result = ("nack", {"error": repr(exc)})
        decision, payload = self._finish(key, msg, result)

        def send_result() -> Generator[Event, Any, None]:
            try:
                yield from self.request(msg.src, MsgKind.RESULT,
                                        {"__ticket__": ticket,
                                         "__decision__": decision,
                                         "__payload__": payload})
            except (DeliveryError, NackError):
                pass
        self.sim.process(send_result(), name=f"{self.name}:result#{ticket}")


class Renewals(ReplyObserver):
    def __init__(self):
        self.renewing = 0

    def on_reply(self, reply, renewal_time):
        self.renewing += renewal_time is not None


#: (generator?, waits, where it raises: None | "before" | "after",
#:  decision it returns otherwise)
SHAPES = st.tuples(st.booleans(), st.integers(0, 2),
                   st.sampled_from([None, None, "before", "after"]),
                   st.sampled_from(["ack", "nack"]))


def _handler(sim, shape, n, runs):
    generator, waits, raises, decision = shape
    outcome = (decision, {"n": n} if decision == "ack" else {"error": "no"})

    def plain(msg):
        runs.append(n)
        return outcome

    def gen(msg):
        runs.append(n)
        if raises == "before":
            raise KeyError(n)
        for _ in range(waits):
            yield sim.timeout(0.05)
        if raises == "after":
            raise KeyError(n)
        return outcome
    return gen if generator else plain


def _drive(server_cls, shapes, to_server_until, to_client_until):
    sim = Simulator()
    streams = RandomStreams(5)
    trace = TraceRecorder()
    net = ControlNetwork(sim, streams, trace, jitter=0.0)
    ens = ClockEnsemble(0.0, streams)
    server = server_cls(sim, net, "server", ens.create("server", offset=0.0),
                        trace)
    client = Endpoint(sim, net, "client", ens.create("client", offset=0.0),
                      trace)
    server.reply_stamp = lambda msg: {"__epoch__": 1}
    renewals = Renewals()
    client.observers.append(renewals)
    runs, outcomes = [], []
    for n, shape in enumerate(shapes):
        server.register(f"op.{n}", _handler(sim, shape, n, runs))

    def heal(link, at):
        yield sim.timeout(at)
        net.unblock(*link)
    for link, until in ((("client", "server"), to_server_until),
                        (("server", "client"), to_client_until)):
        if until > 0:
            net.block(*link)
            sim.process(heal(link, until))

    def requester():
        for n in range(len(shapes)):
            try:
                reply = yield from client.request(
                    "server", f"op.{n}", {},
                    policy=RetryPolicy(timeout=0.5, retries=3))
                outcomes.append(("ack", reply.payload))
            except NackError as exc:
                outcomes.append(("nack", exc.nack.payload))
            except DeliveryError:
                outcomes.append(("delivery_error", None))
    sim.process(requester())
    sim.run()
    assert server._executed_order == type(server._executed_order)(
        server._executed)       # no record left "pending", none twice
    assert all(e[0] == "done" for e in server._executed.values())
    return outcomes, runs, renewals.renewing, net.delivered_count


WINDOW = st.sampled_from([0.0, 0.0, 0.3, 0.8, 1.2, 1.7, 2.5])


@settings(max_examples=120, deadline=None)
@given(shapes=st.lists(SHAPES, min_size=1, max_size=4),
       to_server_until=WINDOW, to_client_until=WINDOW)
def test_requester_cannot_tell_the_responders_apart(shapes, to_server_until,
                                                    to_client_until):
    new = _drive(Endpoint, shapes, to_server_until, to_client_until)
    old = _drive(ReturnTypeEndpoint, shapes, to_server_until, to_client_until)
    assert new[0] == old[0]              # every outcome, payload included
    assert new[1] == old[1]              # at-most-once, same executions
    assert new[3] <= old[3]              # never more datagrams
    # A receipt ACK renewed before the old responder's final NACK; a
    # direct NACK renews nothing.  Otherwise the renewals are the same.
    unwaited_nacks = sum(
        1 for (generator, waits, raises, decision), (kind, _p)
        in zip(shapes, new[0])
        if generator and kind == "nack"
        and (raises == "before" or waits == 0))
    assert old[2] - unwaited_nacks <= new[2] <= old[2]
    if not unwaited_nacks:
        assert new[2] == old[2]


def test_the_difference_is_the_datagram_count():
    shapes = [(True, 0, None, "ack")]
    new = _drive(Endpoint, shapes, 0.0, 0.0)
    old = _drive(ReturnTypeEndpoint, shapes, 0.0, 0.0)
    assert new[:3] == old[:3] == ([("ack", {"n": 0, "__epoch__": 1})], [0], 1)
    assert (new[3], old[3]) == (2, 4)
