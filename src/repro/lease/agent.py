"""The lease holder's side of a node: one agent, a lease per server.

A node that caches anything under the protocol — a client its pages and
locks, an in-network cache node its metadata entries — holds one
four-phase lease with *every* server it caches from (paper §3).  The
:class:`LeaseAgent` owns those state machines and is their endpoint's
reply observer, sends the keep-alives, attests every lapse, and reports
upward the moments the holder must act on: a restarted server
(``on_epoch_change``), phase 4 (``on_flush``), expiry (``on_expired``)
and a lease NACK (``on_lease_nack``).  What to flush, drop or reassert
is the holder's business.
"""

from __future__ import annotations

from functools import partial
from typing import (TYPE_CHECKING, Any, Callable, Dict, Generator, Iterable,
                    Optional)

from repro.lease.client_lease import ClientLeaseManager, LeaseCallbacks
from repro.lease.contract import LeaseContract
from repro.net.control import Endpoint, ReplyObserver
from repro.net.message import DeliveryError, Message, MsgKind, NackError
from repro.sim.events import Event
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceRecorder

if TYPE_CHECKING:  # pragma: no cover - import only for annotations
    from repro.obs import Observability

#: ``request(server, kind, payload)``: how the holder sends a request
#: (its endpoint's ``request``, or a routing wrapper around it).
Request = Callable[[str, str, Dict[str, Any]], Generator[Event, Any, Any]]


def _ignore(server: Optional[str]) -> None:
    return None


class LeaseAgent(ReplyObserver):
    """Leases, keep-alives, epochs and lapse attestation of one node."""

    def __init__(self, sim: Simulator, endpoint: Endpoint,
                 servers: Iterable[str], contract: LeaseContract, *,
                 on_expired: Callable[[Optional[str]], None],
                 on_epoch_change: Callable[[str], None],
                 on_flush: Callable[[str], None] = _ignore,
                 on_lease_nack: Callable[[str], None] = _ignore,
                 request: Optional[Request] = None,
                 trace: Optional[TraceRecorder] = None,
                 obs: Optional["Observability"] = None) -> None:
        """``servers`` are the servers to hold a lease with; none at all
        (a baseline client that manages lease lifetime elsewhere) leaves
        an agent that only watches epochs."""
        self.sim = sim
        self.endpoint = endpoint
        self.name = endpoint.name
        self.trace = trace if trace is not None else endpoint.trace
        self._request: Request = request or endpoint.request
        self._on_expired = on_expired
        self._on_epoch_change = on_epoch_change
        self._on_lease_nack = on_lease_nack
        self.quiesced = False
        self.keepalives_sent = 0
        self._m_lease_msgs = (
            obs.registry.counter(
                "lease.client.msgs_sent", "Client-originated lease messages",
                labels=("node",)).labels(node=self.name)
            if obs is not None else None)
        # §6 server recovery: every server ACK carries an epoch; a change
        # means that server restarted and lost its lock table.
        self._server_epoch: Dict[str, int] = {}
        endpoint.observers.append(self)
        self.leases: Dict[str, ClientLeaseManager] = {
            srv: ClientLeaseManager(
                sim, endpoint, srv, contract,
                callbacks=LeaseCallbacks(
                    send_keepalive=partial(self._spawn_keepalive, srv),
                    on_enter_suspect=self.quiesce,
                    on_enter_flush=partial(on_flush, srv),
                    on_expired=partial(self.expire, srv),
                    on_resume_service=self.resume,
                    on_reconnected=self.resume),
                trace=self.trace, obs=obs)
            for srv in servers}

    # -- replies ---------------------------------------------------------------
    def on_reply(self, reply: Message, renewal_time: Optional[float]) -> None:
        """Every reply to one of our requests: learn the server's epoch
        from an ACK (§6), then let it renew the lease (§3.1); a lease
        NACK invalidates the lease (§3.3)."""
        lease = self.leases.get(reply.src)
        if reply.kind == MsgKind.NACK:
            # Only the transport-level lease NACK invalidates the lease;
            # ordinary error replies ("exists", "no such file",
            # "reassert_conflict") are application outcomes.
            if reply.payload.get("__lease_nack__"):
                if lease is not None:
                    lease.on_nack()
                self._on_lease_nack(reply.src)
            return
        self._on_epoch(reply)
        if lease is not None and renewal_time is not None:
            lease.renew(renewal_time)

    def _on_epoch(self, msg: Message) -> None:
        epoch = msg.payload.get("__epoch__")
        if epoch is None:
            return
        known = self._server_epoch.get(msg.src)
        self._server_epoch[msg.src] = int(epoch)
        if known is not None and int(epoch) != known:
            self.trace.emit(self.sim.now, "client.epoch_change", self.name,
                            server=msg.src, epoch=int(epoch))
            self._on_epoch_change(msg.src)

    # -- keep-alives -------------------------------------------------------------
    def _spawn_keepalive(self, server: str) -> None:
        self.sim.process(self._keepalive(server),
                         name=f"{self.name}:keepalive:{server}")

    def _keepalive(self, server: str) -> Generator[Event, Any, None]:
        self.keepalives_sent += 1
        if self._m_lease_msgs is not None:
            self._m_lease_msgs.inc()
        self.trace.emit(self.sim.now, "lease.keepalive", self.name,
                        server=server)
        try:
            yield from self._request(server, MsgKind.KEEPALIVE, {})
        except (DeliveryError, NackError):
            pass  # on_reply / the lease daemon already know

    # -- phases ------------------------------------------------------------------
    def quiesce(self) -> None:
        """Phase 3 began on some lease: the holder admits no new work."""
        self.quiesced = True
        self.trace.emit(self.sim.now, "client.quiesce", self.name)

    def resume(self) -> None:
        """A renewal pulled a lease back into service."""
        if self.quiesced:
            self.trace.emit(self.sim.now, "client.resume", self.name)
        self.quiesced = False

    def expire(self, server: Optional[str] = None) -> None:
        """A lease ran out (``server`` None: all of them, declared by a
        baseline agent that keeps lease time itself): attest the lapse,
        then have the holder discard what the lease protected.

        Every subsequent request carries the bumped generation, which is
        the server's evidence that this node *observed* phase 4 and
        discarded its state — the precondition for lifting a §6 fence.
        A node that never quiesces (or a pre-lapse retry) never carries
        a fresh generation."""
        self.endpoint.lapse_gen += 1
        self._on_expired(server)
