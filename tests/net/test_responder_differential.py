"""Differential test: the responder that answers every transaction with
one final ACK, parked or not, against the one it replaced, which sent a
parked transaction's outcome as a server-initiated ``RESULT`` request.

``ReceiptAckEndpoint`` below restores the replaced transport on both
sides, its logic kept as the reference model: a handler that waits is
answered by a ``pending`` receipt ACK at once, and its decision later
travels as a reliable ``transport.result`` request (with its own ACK) to
a requester that matches it to the receipt by ``__ticket__``.  Hypothesis
drives both through the same handler shapes (a plain tuple, a generator
with 0-3 waits, one raising before or after a wait) under the same loss
windows, on a fabric without jitter so that a different datagram count
cannot move anything but the datagram count.

What the requester decides must agree: the outcome of every request
(ACK, NACK or delivery failure, and the payload and stamp) and how often each
handler ran — with one named exception, a parked transaction whose only
reply can arrive near the requester's deadline (see the test).  The
renewing replies differ by design and are named explicitly: under the reference every ACK *datagram* renews (direct ACK,
receipt, re-ACK) and the final synthesized from a ``RESULT`` never does;
under the new responder every ACK renews, the final included, and every
ACKed request renewed the lease on both sides.
"""

from typing import Any, Dict, Generator, Optional, Sequence, Tuple

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.net import (ControlNetwork, DeliveryError, Endpoint, NackError,
                       ReplyObserver)
from repro.net.control import RetryPolicy
from repro.net.message import Ack, Message, MsgKind, Nack
from repro.sim import ClockEnsemble, RandomStreams, Simulator, TraceRecorder
from repro.sim.events import Event, Interrupt, SimulationError

RESULT = "transport.result"


class FirstOf(Event):
    """Race: succeeds with the first child event that fires (the *winner*
    event itself is the value), fails with the first child failure.

    The transport's retry loops used to build an :class:`AnyOf` plus a
    result dict per attempt; this races the same children with no list,
    no dict and no per-child bound-method allocation.  Children are
    checked in argument order, so when several are already processed the
    earliest argument wins — the same precedence the old membership
    checks (``reply_ev in outcome``) applied.
    """

    __slots__ = ()

    def __init__(self, sim: "Simulator", events: Sequence[Event]) -> None:
        self.sim = sim
        self.callbacks = None
        self._value = None
        self._exc = None
        self._triggered = False
        self._processed = False
        self._defused = False
        self._waiter = None
        check = self._check
        for ev in events:
            if ev.sim is not sim:
                raise SimulationError("race mixes events from different simulators")
            if ev._processed:
                check(ev)
            else:
                ev._add_callback(check)

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        exc = event._exc
        if exc is not None:
            event.defuse()
            self.fail(exc)
            return
        self._triggered = True
        self._value = event
        self.sim._schedule(self, 0.0)


class ReceiptAckEndpoint(Endpoint):
    """The replaced transport, both halves.  Reference model only."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._results: Dict[int, Event] = {}
        self._early: Dict[int, Tuple[str, Dict[str, Any], Any]] = {}
        self._ticket: Optional[int] = None

    # -- responder -------------------------------------------------------
    def _on_request(self, msg: Message) -> None:
        if msg.kind == RESULT:
            self._h_result(msg)
            return
        key = (msg.src, msg.seq)
        cached = self._executed.get(key)
        if cached is not None:
            state, decision, payload, stamp = cached
            if state == "pending":
                self._receipt(msg, decision)
            else:
                self._reply(msg, decision, payload, stamp)
            return
        result = self._handlers[msg.kind](msg)
        if not hasattr(result, "send"):
            self._reply(msg, *self._finish(key, msg, self._normalize(result)))
            return
        txn = self._deferred(key, msg, result)
        try:
            waiting_on = txn.send(None)
        except StopIteration as done:
            self._reply(msg, *done.value)
            return
        self._remember(key, ("pending", msg.msg_id, None, None))
        self._receipt(msg, msg.msg_id)
        self._parked[msg.msg_id] = self.sim.process(txn, target=waiting_on)

    def _receipt(self, msg: Message, ticket: int) -> None:
        self._reply(msg, "ack", {"__ticket__": ticket}, self._stamped(msg),
                    pending=True)

    def _deferred(self, key, msg, gen) -> Generator[Event, Any, Any]:
        try:
            result = yield from gen
        except Interrupt:
            raise
        except Exception as exc:
            result = ("nack", {"error": repr(exc)})
        decision, payload, stamp = self._finish(key, msg,
                                                self._normalize(result))
        if self._parked.pop(msg.msg_id, None) is None:
            return decision, payload, stamp
        try:
            yield from self.request(msg.src, RESULT, {
                "__ticket__": msg.msg_id, "__decision__": decision,
                "__payload__": payload, "__stamp__": stamp})
        except (DeliveryError, NackError):
            pass

    # -- requester -------------------------------------------------------
    def _h_result(self, msg: Message) -> None:
        ticket = msg.payload["__ticket__"]
        outcome = (msg.payload["__decision__"],
                   dict(msg.payload["__payload__"]), msg.payload["__stamp__"])
        ev = self._results.get(ticket)
        if ev is None:
            self._early[ticket] = outcome
        elif not ev._triggered:
            ev.succeed(outcome)
        self._reply(msg, "ack", None)

    def _deliver_reply(self, msg, reply, attempt_times) -> None:
        self._ticket = reply.payload.get("__ticket__")
        super()._deliver_reply(msg, reply, attempt_times)

    def _result_event(self, ticket: int) -> Event:
        ev = Event(self.sim)
        if ticket in self._early:
            ev.succeed(self._early.pop(ticket))
        self._results[ticket] = ev
        return ev

    def _await_result(self, msg, pol, attempt_times, riding,
                      ) -> Generator[Event, Any, Message]:
        if riding:     # unanswered: the reference fails (its receipt
            for observer in self.observers:     # ACK did the rest)
                observer.on_delivery_failure(msg.dst, msg)
            raise DeliveryError(msg, pol.attempts)
        ticket = self._ticket
        result_ev = self._result_event(ticket)
        deadline = self.local_now() + pol.pending_timeout
        while True:
            remaining = deadline - self.local_now()
            if remaining <= 1e-6:
                raise DeliveryError(msg, pol.attempts)
            reply_ev = Event(self.sim)
            for mid in attempt_times:
                self._pending[mid] = reply_ev
            timeout_ev = self.local_timeout(min(pol.timeout * 2.0, remaining))
            winner = yield FirstOf(self.sim, (result_ev, reply_ev, timeout_ev))
            if winner is result_ev:
                decision, payload, stamp = result_ev._value
                final = (Nack(msg.dst, self.name, msg.msg_id, payload)
                         if decision == "nack" else
                         Ack(msg.dst, self.name, msg.msg_id, payload, stamp))
                for observer in self.observers:
                    observer.on_reply(final, None)   # the receipt renewed
                if decision == "nack":
                    raise NackError(msg, final)
                return final
            if winner is reply_ev:
                reply = reply_ev._value
                self._deliver_reply(msg, reply, attempt_times)
                if not reply.pending:
                    return reply
                if self._ticket != ticket:
                    ticket = self._ticket
                    result_ev = self._result_event(ticket)
                continue
            poll = msg.resend()
            poll.sent_local_time = self.local_now()
            attempt_times[poll.msg_id] = poll.sent_local_time
            self._pending[poll.msg_id] = reply_ev
            self.net.transmit(poll)


class Renewals(ReplyObserver):
    """Every reply, labelled, under the request it answered."""

    def __init__(self):
        self.request = -1
        self.seen = []       # (request, label, renewal_time)

    def on_reply(self, reply, renewal_time):
        if reply.kind == MsgKind.NACK:
            label = "nack"
        elif reply.pending:
            label = "pending"
        else:
            label = "ack"
        self.seen.append((self.request, label, renewal_time))


#: (generator?, waits, where it raises: None | "before" | "after",
#:  decision it returns otherwise)
SHAPES = st.tuples(st.booleans(), st.integers(0, 3),
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
            yield sim.timeout(0.3)       # three waits outlast the timeout
        if raises == "after":
            raise KeyError(n)
        return outcome
    return gen if generator else plain


def _drive(endpoint_cls, shapes, to_server_until, to_client_until):
    sim = Simulator()
    streams = RandomStreams(5)
    trace = TraceRecorder()
    net = ControlNetwork(sim, streams, trace, jitter=0.0)
    ens = ClockEnsemble(0.0, streams)
    server = endpoint_cls(sim, net, "server",
                          ens.create("server", offset=0.0), trace)
    client = endpoint_cls(sim, net, "client",
                          ens.create("client", offset=0.0), trace)
    server.reply_stamp = lambda msg: (1, None)
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
            renewals.request = n
            try:
                reply = yield from client.request(
                    "server", f"op.{n}", {},
                    policy=RetryPolicy(timeout=0.5, retries=3))
                outcomes.append(("ack", (reply.payload, reply.stamp)))
            except NackError as exc:
                outcomes.append(("nack", exc.nack.payload))
            except DeliveryError:
                outcomes.append(("delivery_error", None))
    sim.process(requester())
    sim.run()
    assert server._executed_order == type(server._executed_order)(
        server._executed)       # no record left "pending", none twice
    assert all(e[0] == "done" for e in server._executed.values())
    return outcomes, runs, renewals.seen, net.delivered_count


def _lease_start(seen, n):
    """The latest renewal request ``n`` gave the lease (None: none)."""
    times = [t for req, _label, t in seen if req == n and t is not None]
    return max(times) if times else None


WINDOW = st.sampled_from([0.0, 0.0, 0.3, 0.8, 1.2, 1.7, 2.5])


@settings(max_examples=120, deadline=None)
@given(shapes=st.lists(SHAPES, min_size=1, max_size=4),
       to_server_until=WINDOW, to_client_until=WINDOW)
@example(shapes=[(True, 2, None, "ack")], to_server_until=1.2,
         to_client_until=0.0)           # only here does the requester give up
@example(shapes=[(True, 1, None, "ack")], to_server_until=1.2,
         to_client_until=1.7)           # only the reference gives up
@example(shapes=[(True, 1, None, "ack")], to_server_until=0.0,
         to_client_until=0.3)           # the reference renews from a retry
def test_requester_cannot_tell_the_responders_apart(shapes, to_server_until,
                                                    to_client_until):
    new = _drive(Endpoint, shapes, to_server_until, to_client_until)
    old = _drive(ReceiptAckEndpoint, shapes, to_server_until, to_client_until)
    diverged = next((n for n, pair in enumerate(zip(new[0], old[0]))
                     if pair[0] != pair[1]), None)
    if diverged is not None:
        # The one place the decisions may differ: the loss windows let a
        # reply through only near the requester's deadline, so one side
        # gave up (outcome
        # unknown, as after any lost final reply) while the other was
        # answered.  Here, a handler that outlasts the retry timeout
        # leaves the last attempt unanswered in time, where the
        # reference's receipt ACK moved the requester to polling; there,
        # a lost receipt left the reference's RESULT unmatched, where
        # the final here answers the attempt itself.  The handler ran
        # once either way.  Later requests meet the loss windows at
        # other instants, so the comparison stops here.
        generator, waits, raises, _decision = shapes[diverged]
        assert new[1].count(diverged) == old[1].count(diverged) == 1
        assert generator and raises != "before"
        if new[0][diverged][0] == "delivery_error":
            assert waits * 0.3 > 0.5
        else:
            assert old[0][diverged] == ("delivery_error", None)
        assert new[0][:diverged] == old[0][:diverged]
        assert new[1][:diverged + 1] == old[1][:diverged + 1]
        return
    assert new[0] == old[0]              # every decision and payload
    assert new[1] == old[1]              # at-most-once, same executions
    assert new[3] <= old[3]              # never more datagrams
    # The renewing replies, by name.  New: every ACK renews, a final
    # included; a NACK never does.  Reference: the same, except the
    # final synthesized from a RESULT (an "ack" without renewal time).
    assert all((t is not None) == (label != "nack")
               for _n, label, t in new[2])
    assert all(t is None for _n, label, t in old[2] if label == "nack")
    assert all(t is not None for _n, label, t in old[2] if label == "pending")
    # An ACKed request renewed the lease on both sides (from which
    # attempt depends on the loss window; that a renewal is the send
    # time of an attempt of its own request is checked in
    # ``test_control_edge_cases``).
    for n, (kind, _payload) in enumerate(new[0]):
        if kind == "ack":
            assert _lease_start(new[2], n) is not None
            assert _lease_start(old[2], n) is not None


def test_the_difference_is_the_datagram_count():
    """A transaction that parks shorter than the retry timeout: the
    same answer, renewing from the same send time, for two datagrams
    where the reference spent four."""
    shapes = [(True, 1, None, "ack")]
    new = _drive(Endpoint, shapes, 0.0, 0.0)
    old = _drive(ReceiptAckEndpoint, shapes, 0.0, 0.0)
    assert new[:2] == old[:2] == ([("ack", ({"n": 0}, (1, None)))], [0])
    assert [label for _n, label, _t in new[2]] == ["ack"]
    assert [(label, t is None) for _n, label, t in old[2]] == [
        ("pending", False), ("ack", True)]
    assert new[2][0][2] == old[2][0][2] == 0.0
    assert (new[3], old[3]) == (2, 4)
