"""The control network: connection-less datagram transport plus the
request/ACK/NACK endpoint discipline of paper §3.

The network itself only knows reachability (a directional blocked-pair
set, so asymmetric partitions are expressible), delay and loss.  All
protocol behaviour — retries, at-most-once execution, ACK/NACK, the
hooks the lease protocol attaches to — lives in :class:`Endpoint`.

The cluster control plane (:mod:`repro.cluster`) is an ordinary tenant
of this transport: coordinator pings, shard-map pushes/fetches and
slot-release handoffs are plain request/ACK exchanges (the
``CLUSTER_*`` kinds in :mod:`repro.net.message`), so every failure
mode expressible here — loss, delay, one-way partitions — applies to
membership traffic exactly as it does to lease traffic.

Hot-path design notes: delivery is a dedicated :class:`_DeliveryEvent`
(no per-datagram closure), the request/retry loops race events with
:class:`repro.sim.events.FirstOf`, trace emission is guarded by the
recorder's no-op flag, and the at-most-once eviction queue is a deque.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Any, Callable, Deque, Dict, Generator,
                    List, Optional, Set, Tuple)

from repro.net.message import (Ack, DeliveryError, Message, MsgKind, Nack,
                               NackError)
from repro.sim.clock import LocalClock
from repro.sim.events import Event, FirstOf, Interrupt, Timeout
from repro.sim.kernel import Simulator
from repro.sim.process import Process
from repro.sim.rng import RandomStreams
from repro.sim.trace import TraceRecorder

if TYPE_CHECKING:  # pragma: no cover - import only for annotations
    from repro.obs import Observability
    from repro.obs.registry import Metric
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

    def on_reply(self, reply: Message,
                 renewal_time: Optional[float]) -> None:
        """``reply`` (an ACK or a NACK) answered one of our requests.

        ``renewal_time`` is the local send time of the attempt it
        answers — the instant a lease may renew from (Fig. 3) — or None
        when it proves nothing about the present: a NACK, or a deferred
        transaction's final (its receipt ACK already renewed; the final
        only carries payload stamps).
        """

    def on_delivery_failure(self, dst: str, msg: Message) -> None:
        """Every attempt of request ``msg`` to ``dst`` went unanswered."""


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
                           dst=msg.dst, msg_kind=msg.kind)
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
                       msg_kind=msg.kind, src=msg.src, msg_id=msg.msg_id,
                       seq=msg.seq)
        target._on_datagram(msg)


class ControlNetwork:
    """Datagram fabric between named nodes.

    Reachability is directional: ``block(a, b)`` stops a→b datagrams
    only, which is how asymmetric partitions (paper §2) are modelled.
    """

    def __init__(self, sim: Simulator, streams: RandomStreams,
                 trace: Optional[TraceRecorder] = None,
                 base_delay: float = 0.001, jitter: float = 0.0005,
                 drop_probability: float = 0.0) -> None:
        self.sim = sim
        self.trace = trace if trace is not None else TraceRecorder(
            enabled=False, counting=False)
        self.base_delay = base_delay
        self.jitter = jitter
        self.drop_probability = drop_probability
        self._rng = streams.get("net.control")
        self._endpoints: Dict[str, "Endpoint"] = {}
        # Request numbering of detached nodes, resumed on re-attach: a
        # parked client is the same node when it returns, and receivers
        # key their at-most-once state by (name, seq).
        self._resume_seq: Dict[str, int] = {}
        # The two per-datagram hooks; see their setters.
        self._lazy_resolver: Optional[Callable[[str], Optional["Endpoint"]]] = None
        self._cache_router: Optional[Callable[[Message], Optional["Endpoint"]]] = None
        self._blocked: Set[Tuple[str, str]] = set()
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
        endpoint._next_seq = self._resume_seq.pop(endpoint.name, 0)

    def detach(self, name: str) -> None:
        """Forget an endpoint (a parked flyweight client's teardown)."""
        endpoint = self._endpoints.pop(name, None)
        if endpoint is not None:
            self._resume_seq[name] = endpoint._next_seq

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

    # -- reachability -------------------------------------------------------
    def block(self, src: str, dst: str) -> None:
        """Stop delivering src→dst datagrams (directional)."""
        self._blocked.add((src, dst))

    def unblock(self, src: str, dst: str) -> None:
        """Restore src→dst delivery."""
        self._blocked.discard((src, dst))

    def block_pair(self, a: str, b: str) -> None:
        """Symmetric cut between two nodes."""
        self.block(a, b)
        self.block(b, a)

    def unblock_pair(self, a: str, b: str) -> None:
        """Heal a symmetric cut."""
        self.unblock(a, b)
        self.unblock(b, a)

    def heal_all(self) -> None:
        """Remove every block."""
        self._blocked.clear()

    def reachable(self, src: str, dst: str) -> bool:
        """Whether a datagram sent now from src would arrive at dst."""
        return (src, dst) not in self._blocked

    def blocked_pairs(self) -> Set[Tuple[str, str]]:
        """Snapshot of directional blocks."""
        return set(self._blocked)

    # -- transmission ---------------------------------------------------------
    def _delay(self) -> float:
        if self.jitter <= 0:
            return self.base_delay
        return self.base_delay + float(self._rng.exponential(self.jitter))

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
                       msg_kind=msg.kind, dst=msg.dst, msg_id=msg.msg_id,
                       seq=msg.seq)
        blocked = self._blocked
        if blocked and (msg.src, msg.dst) in blocked:
            self.dropped_count += 1
            if not noop:
                trace.emit(self.sim._now, "msg.blocked", msg.src,
                           dst=msg.dst, msg_kind=msg.kind)
            return
        if self.drop_probability > 0 and self._rng.random() < self.drop_probability:
            self.dropped_count += 1
            if not noop:
                trace.emit(self.sim._now, "msg.dropped", msg.src,
                           dst=msg.dst, msg_kind=msg.kind)
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
        # cache and locks).  Requests created while it is non-zero carry
        # it as ``__lapse_gen__``, so a server that fenced this node can
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
        self._pending_results: Dict[int, Event] = {}
        # Results that arrived before their pending-ACK (datagram reordering).
        self._early_results: Dict[int, Tuple[str, Dict[str, Any]]] = {}
        self._next_seq = 0
        self._dedup_capacity = dedup_capacity
        # (src, seq) -> ("done", decision, payload) | ("pending", ticket, None)
        self._executed: Dict[Tuple[str, int], Tuple[str, Optional[str], Optional[Dict[str, Any]]]] = {}
        self._executed_order: Deque[Tuple[str, int]] = deque()
        # ticket -> process of a transaction whose handler is waiting
        # (``crash`` interrupts them, in arrival order).
        self._parked: Dict[int, Process] = {}
        # (registry, latency histogram, request counter), re-made if the
        # endpoint is re-bound to a different registry.
        self._rpc_metrics: Optional[Tuple[object, "Metric", "Metric"]] = None
        # Requests initiated through this endpoint, by message kind
        # (one count per logical RPC; retries share the count).  The
        # messages-per-op accounting divides these by completed ops.
        self.rpc_sent: Dict[str, int] = {}

        # The hook surface.  ``reply_stamp(msg)`` returns payload keys
        # merged into every ACK this node decides, receipt ACKs included:
        # any ACK renews the requester's lease, so every ACK of a server
        # must also carry its restart signal, ``__epoch__`` (§6).
        self.observers: List[ReplyObserver] = []
        self.reply_stamp: Optional[Callable[[Message], Dict[str, Any]]] = None

        net.attach(self)

    # -- configuration ---------------------------------------------------------
    def register(self, kind: str, handler: Handler) -> None:
        """Install the handler for an inbound request kind."""
        self._handlers[kind] = handler

    def set_gatekeeper(self, fn: Optional[Callable[[Message], Optional[str]]]) -> None:
        """Install the pre-execution gate (return ``"nack"``/``"silent"``/None)."""
        self._gatekeeper = fn

    def crash(self) -> None:
        """Stop receiving and lose volatile transport state.

        The replay (at-most-once) cache, deferred-result plumbing and
        parked transactions are in-memory: they die with the node (a
        handler left waiting would decide in state the crash wiped and
        answer in the next incarnation's name).  Survivors re-polling a
        transaction that was in progress here find no record and trigger
        a fresh execution after restart — the recovery path §6's
        reassertion design expects.
        """
        self.alive = False
        self._executed.clear()
        self._executed_order.clear()
        self._pending_results.clear()
        self._early_results.clear()
        parked, self._parked = self._parked, {}
        for proc in parked.values():
            proc.interrupt("crash")
        # Note: self._pending (reply events of *this node's own* in-flight
        # requests) is left intact.  The kernel cannot kill the arbitrary
        # processes driving those requests; their sends are suppressed
        # while the node is down, and letting the stragglers complete
        # after a restart is harmless — receivers treat them as ordinary
        # duplicates/late traffic.

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

    # -- sending ----------------------------------------------------------------
    def send_datagram(self, msg: Message) -> None:
        """Fire-and-forget transmit (used for ACK/NACK replies)."""
        self.net.transmit(msg)

    def request(self, dst: str, kind: str,
                payload: Optional[Dict[str, Any]] = None,
                policy: Optional[RetryPolicy] = None,
                ) -> Generator[Event, Any, Message]:
        """Send a request and wait for its ACK (process generator).

        Returns the ACK message.  Raises :class:`NackError` on NACK and
        :class:`DeliveryError` when every attempt times out.

        Every transmission — first send, retry, or pending re-poll — is a
        *fresh message initiation* under the lease contract: it gets its
        own msg_id and its own local send time, and an ACK renews from
        the send time of the exact attempt it answers (Fig. 3: t_C1 must
        provably precede the server's reply, which only holds for the
        matched attempt).  The receiver's at-most-once key is (src, seq),
        which all attempts share.
        """
        pol = policy or self.default_policy
        self._next_seq += 1
        self.rpc_sent[kind] = self.rpc_sent.get(kind, 0) + 1
        msg = Message(self.name, dst, kind,
                      dict(payload) if payload else {}, self._next_seq)
        if self.lapse_gen:
            # Attest the lapses this node has observed (and cleaned up
            # after).  Stamped at creation: a request initiated *before*
            # a lapse keeps its pre-lapse view across retries.
            msg.payload["__lapse_gen__"] = self.lapse_gen
        sim = self.sim
        pending = self._pending
        net = self.net
        reply_ev = Event(sim)
        # msg_id -> local send time of every transmission of this request
        # (insertion-ordered: also the ids to unregister at the end).
        attempt_times: Dict[int, float] = {}

        obs = self.obs
        t0 = sim._now
        span = (obs.begin_span(t0, "net.rpc", self.name, msg_kind=kind, dst=dst)
                if obs is not None else None)
        try:
            attempt = msg
            for n in range(pol.attempts):
                # Each attempt is its own datagram object: earlier copies
                # may still be in flight and must keep their identity.
                if n:
                    attempt = Message(msg.src, msg.dst, msg.kind,
                                      msg.payload, msg.seq)
                sent_local = self.local_now()
                attempt.sent_local_time = sent_local
                mid = attempt.msg_id
                attempt_times[mid] = sent_local
                pending[mid] = reply_ev
                net.transmit(attempt)
                timeout_ev = Timeout(
                    sim, self.clock.to_global_interval(pol.timeout), None)
                winner = yield FirstOf(sim, (reply_ev, timeout_ev))
                if winner is reply_ev:
                    reply: Message = reply_ev._value
                    self._deliver_reply(msg, reply, attempt_times)
                    if reply.payload.get("__pending__"):
                        reply = yield from self._await_result(
                            msg, int(reply.payload["__ticket__"]), pol,
                            attempt_times)
                    self._rpc_done(span, kind, t0, "ack")
                    return reply
            for observer in self.observers:
                observer.on_delivery_failure(dst, msg)
            raise DeliveryError(msg, pol.attempts)
        except NackError:
            self._rpc_done(span, kind, t0, "nack")
            raise
        except DeliveryError:
            self._rpc_done(span, kind, t0, "delivery_error")
            raise
        finally:
            for mid in attempt_times:
                pending.pop(mid, None)

    def _deliver_reply(self, msg: Message, reply: Message,
                       attempt_times: Optional[Dict[int, float]]) -> None:
        """Show one reply to request ``msg`` to every observer, then
        raise :class:`NackError` if it is a NACK.

        The requester side's one choke point: direct ACKs and NACKs,
        ``__pending__`` receipt ACKs and re-ACKs, a re-execution's
        direct answer and the ``Ack``/``Nack`` synthesized from a
        deferred ``RESULT`` (``attempt_times`` None: no renewal) each
        pass through here exactly once.
        """
        nacked = reply.kind == _NACK
        renewal_time = (None if nacked or attempt_times is None else
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
        cached = self._rpc_metrics
        if cached is None or cached[0] is not registry:
            by = ("kind", "status")
            cached = self._rpc_metrics = (
                registry,
                registry.histogram("net.rpc.latency_s", "Request round-trip "
                                   "time (simulated s)", labels=by),
                registry.counter("net.rpc.requests",
                                 "RPC round trips completed", labels=by))
        _, hist, count = cached
        hist.labels(kind=kind, status=status).observe(self.sim._now - t0)
        count.labels(kind=kind, status=status).inc()

    def _fresh_result_event(self, ticket: int) -> Event:
        """Register a waiter for a deferred-transaction result, consuming
        any result that arrived ahead of its pending-ACK."""
        ev = Event(self.sim)
        early = self._early_results.pop(ticket, None)
        if early is not None:
            ev.succeed(early)
        self._pending_results[ticket] = ev
        return ev

    def _await_result(self, msg: Message, ticket: int, pol: RetryPolicy,
                      attempt_times: Dict[int, float],
                      ) -> Generator[Event, Any, Message]:
        """Wait for a deferred-transaction result, re-polling the server.

        While pending, the original datagram is periodically re-sent: a
        live server re-acknowledges "still pending" from its replay
        cache, while a *restarted* server (which lost the in-progress
        entry) re-executes the transaction under a fresh ticket.  The
        poll is what lets a client ride out a server crash instead of
        sleeping through the whole ``pending_timeout``.
        """
        sim = self.sim
        pending = self._pending
        result_ev = self._fresh_result_event(ticket)
        deadline_local = self.local_now() + pol.pending_timeout
        poll_local = max(pol.timeout * 2.0, 1e-6)
        try:
            while True:
                remaining = deadline_local - self.local_now()
                # Floor at a microsecond: a sub-epsilon remainder cannot
                # advance the float timeline and would spin forever.
                if remaining <= 1e-6:
                    raise DeliveryError(msg, pol.attempts)
                reply_ev = Event(sim)
                for mid in attempt_times:
                    pending[mid] = reply_ev
                timeout_ev = self.local_timeout(
                    max(min(poll_local, remaining), 1e-6))
                winner = yield FirstOf(sim, (result_ev, reply_ev, timeout_ev))
                if winner is result_ev:
                    decision, payload = result_ev._value
                    final = (Nack if decision == "nack" else Ack)(
                        msg.dst, self.name, msg.msg_id, payload=payload)
                    self._deliver_reply(msg, final, None)
                    return final
                if winner is reply_ev:
                    reply: Message = reply_ev._value
                    self._deliver_reply(msg, reply, attempt_times)
                    if reply.payload.get("__pending__"):
                        new_ticket = int(reply.payload["__ticket__"])
                        if new_ticket != ticket:
                            self._pending_results.pop(ticket, None)
                            ticket = new_ticket
                            result_ev = self._fresh_result_event(ticket)
                        continue
                    return reply  # re-execution answered directly
                # Poll timeout: a fresh initiation nudging the server (its
                # ACK renews the lease from this new send time).
                poll_msg = Message(msg.src, msg.dst, msg.kind,
                                   msg.payload, msg.seq)
                poll_msg.sent_local_time = self.local_now()
                attempt_times[poll_msg.msg_id] = poll_msg.sent_local_time
                pending[poll_msg.msg_id] = reply_ev
                self.net.transmit(poll_msg)
        finally:
            self._pending_results.pop(ticket, None)

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
                self._reply(msg, "nack", {"__lease_nack__": True})
                return
            if verdict == "silent":
                return

        if msg.kind == MsgKind.RESULT:
            self._h_result(msg)
            return

        key = (msg.src, msg.seq)
        cached = self._executed.get(key)
        if cached is not None:
            state, decision, payload = cached
            if state == "pending":
                # Re-acknowledge pending (the first pending ACK may be lost).
                self._reply_pending(msg, decision)
                return
            self._reply(msg, decision or "ack", payload)  # stamped at execution
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
        # One that waits is a deferred transaction: ACK receipt now, the
        # outcome later as a reliable server-initiated RESULT message.
        txn = self._transact(key, msg, result)
        try:
            waiting_on = txn.send(None)
        except StopIteration as done:
            self._reply(msg, *done.value)
            return
        ticket = msg.msg_id
        self._remember(key, ("pending", ticket, None))
        self._reply_pending(msg, ticket)
        self._parked[ticket] = self.sim.process(
            txn, name=f"{self.name}:{msg.kind}#{msg.seq}", target=waiting_on)

    def _h_result(self, msg: Message) -> None:
        """Inbound deferred-transaction outcome (endpoint-level handler)."""
        ticket = int(msg.payload["__ticket__"])
        outcome = (msg.payload.get("__decision__", "ack"),
                   dict(msg.payload.get("__payload__") or {}))
        ev = self._pending_results.get(ticket)
        if ev is not None:
            if not ev._triggered:
                ev.succeed(outcome)
        else:
            # Reordered ahead of the pending ACK; park it for _await_result.
            self._early_results[ticket] = outcome
            if len(self._early_results) > 256:
                self._early_results.pop(next(iter(self._early_results)))
        # Always acknowledge so the sender's retries stop; duplicates and
        # results for abandoned requests are acknowledged-and-dropped.
        self._reply(msg, "ack", None)

    def _transact(self, key: Tuple[str, int], msg: Message,
                  gen: Generator[Event, Any, Any],
                  ) -> Generator[Event, Any, Optional[HandlerResult]]:
        """Run a generator handler and seal its decision: returned to
        :meth:`_on_request` if the handler never waited, delivered as a
        ``RESULT`` from here once parked.  A crash interrupts it through
        the handler (its ``finally`` blocks run); nothing is sealed or
        sent."""
        try:
            result = yield from gen
        except Interrupt:
            raise
        except Exception as exc:
            result = ("nack", {"error": repr(exc)})
        decision, payload = self._finish(key, msg, self._normalize(result))
        if self._parked.pop(msg.msg_id, None) is None:
            return decision, payload
        # Reliable delivery of the outcome; a delivery failure here feeds
        # the authority's suspect machinery like any server-initiated
        # message (the requester may have partitioned while waiting).
        try:
            yield from self.request(msg.src, MsgKind.RESULT,
                                    {"__ticket__": msg.msg_id,
                                     "__decision__": decision,
                                     "__payload__": payload})
        except (DeliveryError, NackError):
            pass

    @staticmethod
    def _normalize(result: Any) -> HandlerResult:
        if result is None:
            return ("ack", {})
        if isinstance(result, tuple) and len(result) == 2:
            return (result[0], result[1] or {})
        raise TypeError(f"handler returned invalid decision {result!r}")

    def _stamped(self, msg: Message,
                 payload: Dict[str, Any]) -> Dict[str, Any]:
        """``payload`` plus this node's :attr:`reply_stamp` for ``msg``
        (the stamp's only reader)."""
        stamp = self.reply_stamp
        return payload if stamp is None else {**payload, **stamp(msg)}

    def _reply_pending(self, msg: Message, ticket: Any) -> None:
        """Receipt ACK of a deferred transaction, stamped at send time
        (it renews the parked requester's lease)."""
        self._reply(msg, "ack", self._stamped(
            msg, {"__pending__": True, "__ticket__": ticket}))

    def _finish(self, key: Tuple[str, int], msg: Message,
                result: HandlerResult) -> HandlerResult:
        """Seal a handler's decision — stamp an ACK, *then* record it —
        for the synchronous and deferred paths alike (the only writer
        of ``"done"`` entries).  A replayed reply thus carries the
        ``__epoch__``/``__mseq__`` it was executed under: a fresher
        watermark on an old value would let a cache node install data
        that predates an invalidation it already saw.
        """
        decision, payload = result
        if decision == "ack":
            payload = self._stamped(msg, payload or {})
        self._remember(key, ("done", decision, payload))
        return decision, payload

    def _reply(self, msg: Message, decision: str, payload: Optional[Dict[str, Any]]) -> None:
        if decision == "ack":
            self.send_datagram(Ack(self.name, msg.src, msg.msg_id, payload=payload))
        elif decision == "nack":
            self.send_datagram(Nack(self.name, msg.src, msg.msg_id, payload=payload))
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
