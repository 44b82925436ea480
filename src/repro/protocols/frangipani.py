"""Frangipani-style leases (paper §5).

Frangipani's lease is the closest relative of Storage Tank's: one lease
per computer protecting all its cached data.  The differences the paper
calls out — and this module reproduces — are:

- **heartbeats**: the client sends periodic explicit lease-renewal
  messages even while actively working (Storage Tank renews for free on
  existing traffic);
- **server state**: the locking authority stores a lease record per
  client at all times and refreshes it on every heartbeat (Storage
  Tank's authority stores nothing until a failure);
- loosely synchronized clocks instead of ordered events (modelled here
  by renewing from the server's receive time rather than the client's
  send time).

Experiments E7/E9 count the heartbeat traffic, the per-client state and
the per-message lease computation this design pays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, Optional

from repro.client.node import StorageTankClient
from repro.net.message import (DeliveryError, Message, MsgKind, NackError,
                               Null)
from repro.protocols.base import SafetyAuthority
from repro.sim.events import Event

#: Approximate size of one per-client lease record.
LEASE_RECORD_BYTES = 48

#: Local seconds between scans of the lease table.
SCAN_INTERVAL = 1.0

#: Local seconds a record stays lapsed before its locks are stolen.
EXPIRY_GRACE = 2.0


@dataclass
class _LeaseRecord:
    client: str
    expiry_local: float


class FrangipaniAuthority(SafetyAuthority):
    """Heartbeat-lease authority with always-on per-client state."""

    #: The ``KIND_GROUPS`` it serves on its server's endpoint, checked
    #: when it is built.
    HANDLES = ("frangipani",)

    def __init__(self, sim, endpoint, on_steal, trace=None, obs=None,
                 lease_duration: float = 30.0):
        self.lease_duration = lease_duration
        self._table: Dict[str, _LeaseRecord] = {}
        self._resolutions: Dict[str, Event] = {}
        self._expired: Dict[str, bool] = {}
        super().__init__(sim, endpoint, on_steal, trace, obs=obs)
        endpoint.register(MsgKind.HEARTBEAT, self._h_heartbeat)
        endpoint.check_handles(self.HANDLES)
        sim.process(self._scan(), name=f"{endpoint.name}:frangipani-scan")

    # -- state & counters ------------------------------------------------
    def state_bytes(self) -> int:
        """Always-on footprint: one record per client ever seen."""
        return len(self._table) * LEASE_RECORD_BYTES

    def is_suspect(self, client: str) -> bool:
        """Whether the client's heartbeat lease has lapsed."""
        rec = self._table.get(client)
        if rec is None:
            return False
        return rec.expiry_local <= self.endpoint.local_now()

    def resolution(self, client: str) -> Optional[Event]:
        """Event firing when a pending steal of ``client`` completes."""
        return self._resolutions.get(client)

    # -- lease maintenance --------------------------------------------------
    def gatekeeper(self, msg: Message) -> Optional[str]:
        """Every inbound message touches the lease table (the per-message
        cost Storage Tank avoids)."""
        self._count_cpu()
        rec = self._table.get(msg.src)
        now_local = self.endpoint.local_now()
        if rec is None:
            self._table[msg.src] = _LeaseRecord(msg.src,
                                                now_local + self.lease_duration)
            return None
        if rec.expiry_local <= now_local:
            # Expired client: refuse service until the steal has finished,
            # then re-admit with a fresh lease.
            if msg.src in self._resolutions or not self._expired.get(msg.src, False):
                self._count_lease_msg()
                return "nack"
            self._expired.pop(msg.src, None)
        rec.expiry_local = now_local + self.lease_duration
        return None

    def _h_heartbeat(self, msg: Message):
        # Refreshing happened in the gatekeeper; the ACK is the reply.
        return ("ack", {"lease": self.lease_duration})

    def _scan(self) -> Generator[Event, Any, None]:
        while True:
            yield self.endpoint.local_timeout(SCAN_INTERVAL)
            now_local = self.endpoint.local_now()
            for client, rec in list(self._table.items()):
                expired_for = now_local - rec.expiry_local
                if expired_for >= EXPIRY_GRACE and not self._expired.get(client):
                    self._count_cpu()
                    self._expired[client] = True
                    ev = self.sim.event()
                    self._resolutions[client] = ev
                    self.trace.emit(self.sim.now, "frangipani.expire",
                                    self.endpoint.name, client)
                    try:
                        self.steal_now(client)
                    finally:
                        ev.succeed(client)
                        self._resolutions.pop(client, None)


class FrangipaniClientAgent:
    """Heartbeat daemon bolted onto a lease-less Storage Tank client."""

    def __init__(self, client: StorageTankClient, lease_duration: float = 30.0,
                 heartbeat_interval: float = 10.0):
        self.client = client
        self.lease_duration = lease_duration
        self.heartbeat_interval = heartbeat_interval
        self.heartbeats_sent = 0
        self._m_msgs = client.obs.registry.counter(
            "lease.client.msgs_sent", "Client-originated lease messages",
            labels=("node",)).labels(node=client.name)
        self._last_ack_local: Optional[float] = None
        self._expired = False
        # Frangipani clients check the lease before every operation
        # (first contact, before any heartbeat ACK, is the bootstrap).
        client.admission_check = (
            lambda: self.holds_lease or self._last_ack_local is None)
        client.sim.process(self._run(), name=f"{client.name}:heartbeat")
        client.sim.process(self._watch(), name=f"{client.name}:lease-watch")

    @property
    def holds_lease(self) -> bool:
        """Whether the client believes its lease is alive."""
        if self._last_ack_local is None:
            return False
        return (self.client.endpoint.local_now()
                < self._last_ack_local + self.lease_duration)

    def _run(self) -> Generator[Event, Any, None]:
        ep = self.client.endpoint
        while True:
            self.heartbeats_sent += 1
            self._m_msgs.inc()
            try:
                yield from ep.request(self.client.server, MsgKind.HEARTBEAT,
                                      Null())
                self._last_ack_local = ep.local_now()
                self._expired = False
            except (DeliveryError, NackError):
                pass
            yield ep.local_timeout(self.heartbeat_interval)

    def _watch(self) -> Generator[Event, Any, None]:
        """Invalidate promptly when the lease lapses (checked at a much
        finer grain than the heartbeat period)."""
        ep = self.client.endpoint
        while True:
            yield ep.local_timeout(0.5)
            if (not self.holds_lease and not self._expired
                    and self._last_ack_local is not None):
                self._expired = True
                self.client.force_lease_expiry()
