"""The control network: connection-less datagram transport plus the
request/ACK/NACK endpoint discipline of paper §3.

The network itself only knows reachability (a directional blocked-pair
set, so asymmetric partitions are expressible), delay and loss.  All
protocol behaviour — retries, at-most-once execution, ACK/NACK, the
hooks the lease protocol attaches to — lives in :class:`Endpoint`.

The cluster control plane (:mod:`repro.cluster`, the ``CLUSTER_*``
kinds) is an ordinary tenant: loss, delay and one-way partitions apply
to membership traffic exactly as to lease traffic.

Hot path: delivery is a dedicated :class:`_DeliveryEvent` (no closure),
an attempt waits on one event that its reply or its retry timer ends,
and trace emission is guarded by the recorder's no-op flag.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Any, Callable, Deque, Dict, Generator,
                    List, Optional, Sequence, Tuple, Union)

from repro.net.message import (SCHEMAS, Ack, DeliveryError, Message, MsgKind,
                               Nack, NackError, Stamp, check_handled)
from repro.net.partition import LinkTable
from repro.sim.clock import LocalClock
from repro.sim.events import Event, Interrupt, Timeout
from repro.sim.kernel import Simulator
from repro.sim.process import Process
from repro.sim.rng import RandomStreams
from repro.sim.trace import TraceRecorder

if TYPE_CHECKING:  # pragma: no cover - import only for annotations
    from repro.obs import Observability
    from repro.obs.spans import Span

# A request handler may return a decision tuple directly, or a generator
# whose return value is the decision tuple (run to its first ``yield``
# inside the delivery, a process only if it really waits).  Decisions:
# ("ack", payload), ("nack", payload), ("silent", None).
HandlerResult = Tuple[str, Optional[Dict[str, Any]]]
Handler = Callable[[Message], Any]

_ACK = MsgKind.ACK
_NACK = MsgKind.NACK


class ReplyObserver:
    """What a node sees of its endpoint's request traffic: every reply
    exactly once (the lease renews on it, §3.1, and the server's epoch
    rides it, §6) and every exhausted retry.  The defaults ignore both,
    so a node in :attr:`Endpoint.observers` overrides the half it acts on.
    """

    def on_reply(self, reply: Union[Ack, Nack],
                 renewal_time: Optional[float]) -> None:
        """``reply`` (an ACK or a NACK) answered one of our requests.

        ``renewal_time`` is the local send time of the attempt it
        answers — the instant a lease may renew from (Fig. 3) — or None
        for a NACK, which proves nothing about the present.  A parked
        transaction's final answers the attempt that was admitted, so it
        renews from that attempt's send time, however late it arrives.
        """

    def on_delivery_failure(self, dst: str, msg: Message) -> None:
        """Every attempt of request ``msg`` to ``dst`` went unanswered."""

    def rides_out(self, dst: str, msg: Message) -> bool:
        """Whether ``msg``, unanswered, should keep polling ``dst``: its
        first attempt may be parked there, or killed by a crash."""
        return False


BASE_DELAY = 0.001  # one-way datagram latency floor (s); jitter adds a tail


def _end_wait(timer: Event) -> None:
    """A retry timer's waiter: end its wait (its value) with None."""
    if not timer._value._triggered:
        timer._value.succeed(None)


@dataclass(frozen=True)
class RetryPolicy:
    """Sender-side datagram retry discipline (local-clock seconds).

    ``pending_timeout`` bounds how long a requester waits for the final
    result of a transaction the receiver acknowledged as *pending*
    (deferred lock grants can legitimately take a full lease interval).
    """

    timeout: float = 1.0
    retries: int = 3
    pending_timeout: float = 120.0

    @property
    def attempts(self) -> int:
        """Total number of transmissions."""
        return self.retries + 1


class _DeliveryEvent(Event):
    """An in-flight datagram: fires at arrival time and hands the message
    to the target endpoint.

    One allocation per datagram (no ``deliver`` closure): the arrival
    logic is the overridden ``_fire``, and scheduling consumes exactly
    one sequence number, at transmit time.
    """

    __slots__ = ("net", "msg", "target")

    def __init__(self, net: "ControlNetwork", msg: Message,
                 target: "Endpoint", delay: float) -> None:
        sim = net.sim
        self.sim = sim
        self.callbacks = None
        self._value = None
        self._exc = None
        self._triggered = True
        self._processed = False
        self._defused = False
        self._waiter = None
        self.net = net
        self.msg = msg
        self.target = target
        sim._schedule(self, delay)

    def _fire(self) -> None:
        self._processed = True
        net = self.net
        msg = self.msg
        target = self.target
        # A partition may have formed while the datagram was in flight;
        # model cut links by re-checking at delivery time.
        blocked = net._blocked
        if (blocked and (msg.src, msg.dst) in blocked) or not target.alive:
            net.dropped_count += 1
            trace = net.trace
            if not trace._noop:
                trace.emit(net.sim._now, "msg.dropped", msg.src,
                           msg.dst, msg.kind)
            return
        net.delivered_count += 1
        net.bytes_delivered += msg.size_bytes()
        trace = net.trace
        if not trace._noop:
            # Attribute the receive to the endpoint that actually takes
            # delivery: an in-network cache interposing on msg.dst must
            # not leave trace events claiming the origin server saw the
            # request (the nack-timed-out oracle audits exactly that).
            trace.emit(net.sim._now, "msg.recv", target.name,
                       msg.kind, msg.src, msg.msg_id, msg.seq)
        target._on_datagram(msg)


class ControlNetwork(LinkTable):
    """Datagram fabric between named nodes.

    Reachability is directional (:class:`~repro.net.partition.LinkTable`):
    ``block(a, b)`` stops a→b datagrams only, which is how asymmetric
    partitions (paper §2) are modelled.
    """

    def __init__(self, sim: Simulator, streams: RandomStreams,
                 trace: Optional[TraceRecorder] = None,
                 jitter: float = 0.0005,
                 drop_probability: float = 0.0) -> None:
        super().__init__()
        self.sim = sim
        self.trace = trace if trace is not None else TraceRecorder(
            enabled=False, counting=False)
        self.jitter = jitter
        self.drop_probability = drop_probability
        self._rng = streams.get("net.control")
        self._endpoints: Dict[str, "Endpoint"] = {}
        # The two per-datagram hooks; see their setters.
        self._lazy_resolver: Optional[Callable[[str], Optional["Endpoint"]]] = None
        self._cache_router: Optional[Callable[[Message], Optional["Endpoint"]]] = None
        self.delivered_count = 0
        self.dropped_count = 0
        self.bytes_delivered = 0

    def bind_obs(self, obs: "Observability") -> None:
        """Mirror the fabric counters into a metrics registry.

        Uses callback gauges so the registry samples the live counters
        at read time — no double bookkeeping on the delivery hot path.
        """
        reg = obs.registry
        reg.gauge("net.ctrl.delivered", "Datagrams delivered",
                  ).labels().set_function(lambda: self.delivered_count)
        reg.gauge("net.ctrl.dropped", "Datagrams dropped or blocked",
                  ).labels().set_function(lambda: self.dropped_count)
        reg.gauge("net.ctrl.bytes_delivered", "Payload bytes delivered",
                  ).labels().set_function(lambda: self.bytes_delivered)

    # -- membership ---------------------------------------------------------
    def attach(self, endpoint: "Endpoint") -> None:
        """Register an endpoint under its node name."""
        if endpoint.name in self._endpoints:
            raise ValueError(f"duplicate endpoint {endpoint.name!r}")
        self._endpoints[endpoint.name] = endpoint
        self._attached(endpoint.name)

    def set_lazy_resolver(
            self,
            resolver: Optional[Callable[[str], Optional["Endpoint"]]]) -> None:
        """Install the batch-registration resolver for unattached names
        (scale path: a parked flyweight client is materialized by its own
        inbound traffic instead of the datagram dropping).

        ``resolver(name)`` returns an endpoint (typically by
        materializing a parked client, whose constructor attaches it)
        or None for names outside the registered population.  Never
        consulted for already-attached names, so the default delivery
        path is untouched.  One resolver for the whole population.
        """
        self._lazy_resolver = resolver

    def set_cache_router(
            self,
            router: Optional[Callable[[Message], Optional["Endpoint"]]]) -> None:
        """Install the route-through-cache attachment (netcache tier).

        ``router(msg)``, consulted per datagram after loss and before
        destination resolution, returns the cache endpoint that receives
        a cacheable read-path request *in place of* its destination
        (``msg.dst`` stays: the cache forwards misses there), or None to
        deliver directly.  It must return None for dead cache nodes so a
        crashed cache degrades to plain forwarding — the sender's retry
        then reaches the authoritative server unmediated.
        """
        self._cache_router = router

    @property
    def node_names(self) -> List[str]:
        """All attached node names."""
        return list(self._endpoints)

    # -- transmission ---------------------------------------------------------
    def _delay(self) -> float:
        if self.jitter <= 0:
            return BASE_DELAY
        return BASE_DELAY + float(self._rng.exponential(self.jitter))

    def transmit(self, msg: Message) -> None:
        """Send one datagram.  Loss and partitions silently drop it."""
        endpoints = self._endpoints
        sender = endpoints.get(msg.src)
        if sender is not None and not sender.alive:
            # A crashed node neither receives nor sends: processes that
            # were mid-request when it died just spin into the void.
            self.dropped_count += 1
            return
        trace = self.trace
        noop = trace._noop
        if not noop:
            trace.emit(self.sim._now, "msg.send", msg.src,
                       msg.kind, msg.dst, msg.msg_id, msg.seq)
        blocked = self._blocked
        if blocked and (msg.src, msg.dst) in blocked:
            self.dropped_count += 1
            if not noop:
                trace.emit(self.sim._now, "msg.blocked", msg.src,
                           msg.dst, msg.kind)
            return
        if self.drop_probability > 0 and self._rng.random() < self.drop_probability:
            self.dropped_count += 1
            if not noop:
                trace.emit(self.sim._now, "msg.dropped", msg.src,
                           msg.dst, msg.kind)
            return
        router = self._cache_router
        if router is not None:
            interposed = router(msg)
            if interposed is not None:
                _DeliveryEvent(self, msg, interposed, self._delay())
                return
        target = endpoints.get(msg.dst)
        if target is None:
            resolver = self._lazy_resolver
            if resolver is not None:
                target = resolver(msg.dst)
            if target is None:
                self.dropped_count += 1
                return
        _DeliveryEvent(self, msg, target, self._delay())


class Endpoint:
    """A node's attachment to the control network.

    Provides the paper's messaging discipline:

    - per-destination request sequence numbers and receiver-side
      *at-most-once* execution with cached replies (§3: "version numbers
      for at most once delivery semantics");
    - sender-side retry with local-clock timeouts, surfacing
      :class:`DeliveryError` after the policy is exhausted — the event
      that makes a server declare a client *suspect*;
    - one reply path in each direction: every reply a request receives
      reaches :attr:`observers` through :meth:`_deliver_reply`
      (opportunistic renewal rides on every ACK, §3.1), and every ACK
      this node decides carries :attr:`reply_stamp`;
    - an optional *gatekeeper* consulted before any inbound request is
      executed — the server lease authority uses it to refuse ACKs and
      send NACKs while timing a client out (§3.3).
    """

    def __init__(self, sim: Simulator, net: ControlNetwork, name: str,
                 clock: LocalClock, trace: Optional[TraceRecorder] = None,
                 default_policy: Optional[RetryPolicy] = None,
                 dedup_capacity: int = 4096) -> None:
        self.sim = sim
        self.net = net
        self.name = name
        self.clock = clock
        self.trace = trace if trace is not None else net.trace
        self.default_policy = default_policy or RetryPolicy()
        self.alive = True
        # Lease-lapse attestation generation (§6 containment).  The
        # lease layer bumps this when a lease *expires locally* — i.e.
        # the node ran its expected-failure path (quiesce, flush, drop
        # cache and locks).  Every request carries it, stamped at creation
        # as ``Message.lapse_attested``, so a server that fenced this node can
        # distinguish "the old incarnation is still talking" (no new
        # attestation: keep the fence) from "the node observed its lapse
        # and discarded stale state" (safe to lift the fence).
        self.lapse_gen = 0
        # Observability bundle (set by node constructors / build_system);
        # None means no metrics/span recording on this endpoint.
        self.obs: Optional["Observability"] = None

        self._handlers: Dict[str, Handler] = {}
        self._gatekeeper: Optional[Callable[[Message], Optional[str]]] = None
        self._pending: Dict[int, Event] = {}
        self._next_seq = 0
        self._dedup_capacity = dedup_capacity
        # (src, seq) -> ("done", decision, payload, stamp)
        #             | ("pending", None, None, None)
        self._executed: Dict[Tuple[str, int], Tuple[Any, ...]] = {}
        self._executed_order: Deque[Tuple[str, int]] = deque()
        # msg_id of the admitted attempt -> process of a transaction
        # whose handler is waiting (``crash`` interrupts them, in
        # arrival order).
        self._parked: Dict[int, Process] = {}
        # (registry, {(kind, status): (latency child, request child)}),
        # re-made if the endpoint is re-bound to a different registry.
        self._rpc_metrics: Tuple[object, Dict[Any, Any]] = (None, {})
        # Requests initiated through this endpoint, by message kind
        # (one count per logical RPC; retries share the count).  The
        # messages-per-op accounting divides these by completed ops.
        self.rpc_sent: Dict[str, int] = {}

        # The hook surface.  ``reply_stamp(msg)`` returns the ``Ack.stamp``
        # of every ACK this node decides, pending re-ACKs included: any ACK
        # renews the requester's lease, so every ACK of a server must also
        # carry its restart signal, the epoch (§6).
        self.observers: List[ReplyObserver] = []
        self.reply_stamp: Optional[Callable[[Message], Stamp]] = None

        net.attach(self)

    # -- configuration ---------------------------------------------------------
    def register(self, kind: str, handler: Handler) -> None:
        """Install the handler for an inbound request kind."""
        self._handlers[kind] = handler

    def check_handles(self, groups: Sequence[str]) -> None:
        """Raise unless each kind of ``groups`` (``HANDLES``) has a handler."""
        check_handled(self.name, groups, self._handlers)

    def set_gatekeeper(self, fn: Optional[Callable[[Message], Optional[str]]]) -> None:
        """Install the pre-execution gate (return ``"nack"``/``"silent"``/None)."""
        self._gatekeeper = fn

    def crash(self) -> None:
        """Stop receiving and lose volatile transport state.

        The replay (at-most-once) cache and parked transactions are
        in-memory: they die with the node (a handler left waiting would
        decide in state the crash wiped and answer in the next
        incarnation's name), and a killed transaction sends nothing.
        Survivors re-polling a transaction that was in progress here
        find no record and trigger a fresh execution after restart —
        the recovery path §6's reassertion design expects.
        """
        self.alive = False
        self._executed.clear()
        self._executed_order.clear()
        parked, self._parked = self._parked, {}
        for proc in parked.values():
            proc.interrupt("crash")
        # self._pending (this node's own in-flight requests) stays: the
        # processes driving them cannot be killed, their sends are
        # suppressed while down, and receivers treat what they send
        # after a restart as duplicates or late traffic.

    def restart(self) -> None:
        """Resume receiving after a crash."""
        self.alive = True

    def forget_peer(self, src: str) -> None:
        """Drop the at-most-once replay state kept for one peer.

        Called when the lease protocol *resolves* a peer (the τ(1+ε)
        suspect wait elapsed and its locks were stolen): the resolution
        is the protocol's declaration that the old incarnation is dead,
        so replay-cached results from it must not leak to a restarted
        incarnation that happens to reuse sequence numbers.  The keys
        leave the eviction order too: the next incarnation re-appends a
        reused ``(src, seq)``, and a stale slot ahead of it would evict
        the live entry early.  Steals are rare; O(capacity) is fine.
        """
        self._executed = {key: entry for key, entry in self._executed.items()
                          if key[0] != src}
        self._executed_order = deque(
            key for key in self._executed_order if key[0] != src)

    # -- local time ---------------------------------------------------------
    def local_now(self) -> float:
        """This node's local-clock reading."""
        return self.clock.local_time(self.sim._now)

    def local_timeout(self, local_interval: float,
                      value: Any = None) -> Timeout:
        """A timeout measured on this node's local clock."""
        return Timeout(self.sim, self.clock.to_global_interval(local_interval), value)

    def global_interval(self, local_interval: float) -> float:
        """The global length of a timer set now on this node's clock."""
        return self.clock.to_global_interval(local_interval)

    # -- sending ----------------------------------------------------------------
    def request(self, dst: str, kind: str, payload: Any = None,
                policy: Optional[RetryPolicy] = None,
                ) -> Generator[Event, Any, Message]:
        """Send a request and wait for its ACK (process generator).

        ``payload`` must be an instance of the kind's declared schema
        (:data:`~repro.net.message.SCHEMAS`), or this raises
        :class:`TypeError`; a kind without one sends any payload as is.
        Returns the ACK message.  Raises :class:`NackError` on NACK and
        :class:`DeliveryError` when every attempt times out and no
        observer :meth:`~ReplyObserver.rides_out` the silence.

        Every transmission — first send, retry or poll — is a *fresh
        message initiation* under the lease contract: its own msg_id and
        local send time, and an ACK renews from the send time of the
        exact attempt it answers (Fig. 3: t_C1 must provably precede the
        server's reply).  All attempts share the at-most-once key
        (src, seq).
        """
        schema = SCHEMAS.get(kind)
        if schema is not None and not isinstance(payload, schema):
            allowed = schema if isinstance(schema, tuple) else (schema,)
            raise TypeError(
                f"{kind} payload must be "
                f"{' or '.join(c.__name__ for c in allowed)}, "
                f"not {type(payload).__name__}")
        pol = policy or self.default_policy
        self._next_seq += 1
        self.rpc_sent[kind] = self.rpc_sent.get(kind, 0) + 1
        msg = Message(self.name, dst, kind, payload, self._next_seq)
        if self.lapse_gen:
            # Attest the lapses this node has observed (and cleaned up
            # after).  Stamped at creation: a request initiated *before*
            # a lapse keeps its pre-lapse view across retries.
            msg.lapse_attested = self.lapse_gen
        # msg_id -> local send time of every transmission of this request
        # (insertion-ordered: also the ids to unregister at the end).
        attempt_times: Dict[int, float] = {}

        obs = self.obs
        t0 = self.sim._now
        span = (obs.begin_span(t0, "net.rpc", self.name, msg_kind=kind, dst=dst)
                if obs is not None else None)
        try:
            attempt = msg
            reply: Optional[Ack] = None
            for n in range(pol.attempts):
                # Each attempt is its own datagram object: earlier copies
                # may still be in flight and must keep their identity.
                if n:
                    attempt = msg.resend()
                attempt.sent_local_time = self.local_now()
                attempt_times[attempt.msg_id] = attempt.sent_local_time
                self.net.transmit(attempt)
                reply = yield self._reply_wait(attempt_times, pol.timeout)
                if reply is not None:
                    self._deliver_reply(msg, reply, attempt_times)
                    break
            if reply is None or reply.pending:
                reply = yield from self._await_result(
                    msg, pol, attempt_times, reply is None)
            self._rpc_done(span, kind, t0, "ack")
            return reply
        except NackError:
            self._rpc_done(span, kind, t0, "nack")
            raise
        except DeliveryError:
            self._rpc_done(span, kind, t0, "delivery_error")
            raise
        finally:
            for mid in attempt_times:
                self._pending.pop(mid, None)

    def _reply_wait(self, attempt_times: Dict[int, float],
                    local_interval: float) -> Event:
        """The one event an attempt waits on: a reply to any attempt so
        far (every msg_id points here) succeeds it with the reply, the
        retry timer ``local_interval`` from now with None."""
        wait = Event(self.sim)
        pending = self._pending
        for mid in attempt_times:
            pending[mid] = wait
        self.local_timeout(local_interval, wait)._waiter = _end_wait
        return wait

    def _deliver_reply(self, msg: Message, reply: Union[Ack, Nack],
                       attempt_times: Dict[int, float]) -> None:
        """Show one reply to request ``msg`` to every observer, then
        raise :class:`NackError` if it is a NACK.

        The requester side's one choke point: direct ACKs and NACKs,
        ``pending`` re-ACKs, a parked transaction's final and a
        re-execution's direct answer each pass through here exactly
        once, renewing from the send time of the attempt they answer.
        """
        nacked = reply.kind == _NACK
        renewal_time = (None if nacked else
                        attempt_times.get(reply.reply_to or -1,
                                          msg.sent_local_time))
        for observer in self.observers:
            observer.on_reply(reply, renewal_time)
        if nacked:
            raise NackError(msg, reply)

    def _rpc_done(self, span: Optional["Span"], kind: str, t0: float,
                  status: str) -> None:
        """Close a round-trip span and record its latency histogram."""
        obs = self.obs
        if obs is None:
            return
        if span is not None:
            span.end(self.sim._now, status=status)
        registry = obs.registry
        if self._rpc_metrics[0] is not registry:
            self._rpc_metrics = (registry, {})
        pair = self._rpc_metrics[1].get((kind, status))
        if pair is None:
            by, key = ("kind", "status"), {"kind": kind, "status": status}
            pair = self._rpc_metrics[1][kind, status] = (
                registry.histogram("net.rpc.latency_s", "Request round-trip "
                                   "time (simulated s)", labels=by
                                   ).labels(**key),
                registry.counter("net.rpc.requests", "RPC round trips "
                                 "completed", labels=by).labels(**key))
        pair[0].observe(self.sim._now - t0)
        pair[1].inc()

    def _await_result(self, msg: Message, pol: RetryPolicy,
                      attempt_times: Dict[int, float], riding: bool,
                      ) -> Generator[Event, Any, Message]:
        """Wait for a parked transaction's final, re-polling the server.

        Every attempt's msg_id (the admitted one's too) stays registered
        while the request is re-sent every 2 × timeout: a live server
        re-ACKs "still pending" or answers from its ``"done"`` record; a
        restarted one, its record lost, re-executes.  ``riding``: nothing
        has answered yet, so each poll needs an observer that
        :meth:`~ReplyObserver.rides_out`, or it is a delivery failure.
        """
        deadline_local = self.local_now() + pol.pending_timeout
        poll_local = max(pol.timeout * 2.0, 1e-6)
        while True:
            if riding and not any(o.rides_out(msg.dst, msg)
                                  for o in self.observers):
                for observer in self.observers:
                    observer.on_delivery_failure(msg.dst, msg)
                raise DeliveryError(msg, pol.attempts)
            remaining = deadline_local - self.local_now()
            # Floor at a microsecond: a sub-epsilon remainder cannot
            # advance the float timeline and would spin forever.
            if remaining <= 1e-6:
                raise DeliveryError(msg, pol.attempts)
            reply: Optional[Ack] = yield self._reply_wait(
                attempt_times, max(min(poll_local, remaining), 1e-6))
            if reply is not None:
                self._deliver_reply(msg, reply, attempt_times)
                if not reply.pending:
                    return reply
                riding = False
                continue
            # Poll timeout: a fresh initiation nudging the server (its
            # ACK renews the lease from this new send time).
            poll_msg = msg.resend()
            poll_msg.sent_local_time = self.local_now()
            attempt_times[poll_msg.msg_id] = poll_msg.sent_local_time
            self.net.transmit(poll_msg)

    # -- receiving -----------------------------------------------------------
    def _on_datagram(self, msg: Message) -> None:
        kind = msg.kind
        if kind == _ACK or kind == _NACK:
            ev = self._pending.get(msg.reply_to or -1)
            if ev is not None and not ev._triggered:
                ev.succeed(msg)
            # Replies to forgotten/duplicate requests are dropped silently.
            return
        self._on_request(msg)

    def _on_request(self, msg: Message) -> None:
        if self._gatekeeper is not None:
            verdict = self._gatekeeper(msg)
            if verdict == "nack":
                # A gatekeeper NACK is the §3.3 lease signal ("your cache
                # is invalid; I will not renew you") — distinct from an
                # application-level error reply, which must NOT make the
                # client abandon its lease.
                self._reply(msg, "nack", {}, lease_nack=True)
                return
            if verdict == "silent":
                return

        key = (msg.src, msg.seq)
        cached = self._executed.get(key)
        if cached is not None:
            state, decision, payload, stamp = cached
            if state == "pending":
                # A retry of a parked transaction: stop its retries (the
                # requester polls for the final from here on).
                self._reply(msg, "ack", {}, self._stamped(msg), pending=True)
                return
            self._reply(msg, decision, payload, stamp)  # stamped at execution
            return

        handler = self._handlers.get(msg.kind)
        if handler is None:
            self._reply(msg, "nack", {"error": f"no handler for {msg.kind}"})
            return

        result = handler(msg)
        if not hasattr(result, "send"):
            self._reply(msg, *self._finish(key, msg, self._normalize(result)))
            return
        # A generator handler runs to its first wait inside the delivery
        # and, if it finishes there, is answered as directly as a tuple.
        # One that waits is parked: one process, and the same one direct
        # answer to the admitted request when it finishes.
        txn = self._transact(key, msg, result)
        try:
            waiting_on = txn.send(None)
        except StopIteration:
            return
        self._remember(key, ("pending", None, None, None))
        self._parked[msg.msg_id] = self.sim.process(
            txn, name=f"{self.name}:{msg.kind}#{msg.seq}", target=waiting_on)

    def _transact(self, key: Tuple[str, int], msg: Message,
                  gen: Generator[Event, Any, Any],
                  ) -> Generator[Event, Any, None]:
        """Run a generator handler, seal its decision and answer ``msg``
        — the attempt that was admitted — whether or not it waited.  A
        crash interrupts it through the handler (its ``finally`` blocks
        run); nothing is sealed or sent."""
        try:
            result = yield from gen
        except Interrupt:
            raise
        except Exception as exc:
            result = ("nack", {"error": repr(exc)})
        self._parked.pop(msg.msg_id, None)
        self._reply(msg, *self._finish(key, msg, self._normalize(result)))

    @staticmethod
    def _normalize(result: Any) -> HandlerResult:
        if result is None:
            return ("ack", {})
        if isinstance(result, tuple) and len(result) == 2:
            return (result[0], result[1] or {})
        raise TypeError(f"handler returned invalid decision {result!r}")

    def _stamped(self, msg: Message) -> Optional[Stamp]:
        """This node's :attr:`reply_stamp` for ``msg``, None without one
        (the stamp's only reader).  The pending re-ACK of a retry is
        stamped at send time: it renews the requester's lease from the
        retry."""
        stamp = self.reply_stamp
        return None if stamp is None else stamp(msg)

    def _finish(self, key: Tuple[str, int], msg: Message,
                result: HandlerResult,
                ) -> Tuple[str, Optional[Dict[str, Any]], Optional[Stamp]]:
        """Seal a handler's decision — stamp an ACK, *then* record it
        with its stamp — for the synchronous and parked paths alike (the
        only writer of ``"done"`` entries).  A replayed reply thus
        carries the epoch and watermark it was executed under: a fresher
        watermark on an old value would let a cache node install data
        that predates an invalidation it already saw.
        """
        decision, payload = result
        stamp = self._stamped(msg) if decision == "ack" else None
        self._remember(key, ("done", decision, payload, stamp))
        return decision, payload, stamp

    def _reply(self, msg: Message, decision: str,
               payload: Optional[Dict[str, Any]],
               stamp: Optional[Stamp] = None, *, pending: bool = False,
               lease_nack: bool = False) -> None:
        if decision == "ack":
            self.net.transmit(Ack(self.name, msg.src, msg.msg_id, payload,
                                  stamp, pending))
        elif decision == "nack":
            self.net.transmit(Nack(self.name, msg.src, msg.msg_id, payload,
                                   lease_nack))
        elif decision != "silent":
            raise ValueError(f"unknown handler decision {decision!r}")

    def _remember(self, key: Tuple[str, int],
                  entry: Tuple[str, Any, Any]) -> None:
        executed = self._executed
        if key not in executed:
            order = self._executed_order
            order.append(key)
            if len(order) > self._dedup_capacity:
                executed.pop(order.popleft(), None)
        executed[key] = entry
