"""V-system per-object leases (paper §4).

In the V operating system a lease is "a period of ownership over a data
object": one lease per cached object, renewed individually before it
expires, or the object must be purged from the cache.  The paper's §4
argument against this design is quantitative — per-object leases cost
either renewal messages proportional to the number of cached objects or
cache-policy distortion — and experiment E8 reproduces the linear
renewal traffic against Storage Tank's O(1) per-client lease.

Server side, the authority keeps one record per (object, holder) pair
and revokes single objects on expiry; client side, a renewal daemon
walks every cached lock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, Optional, Tuple, TYPE_CHECKING

from repro.client.node import StorageTankClient
from repro.locks.modes import LockMode
from repro.net.message import (DeliveryError, FileOnly, Message, MsgKind,
                               NackError)
from repro.protocols.base import SafetyAuthority
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.server.node import StorageTankServer

#: Approximate size of one per-object lease record.
OBJECT_LEASE_BYTES = 40

#: Local seconds between scans of the lease table for expired objects.
SCAN_INTERVAL = 1.0

#: Renewals per object lease term: each has half a term to land.
RENEWALS_PER_TERM = 2.0


class VLeaseAuthority(SafetyAuthority):
    """Per-object lease table at the locking authority."""

    #: The ``KIND_GROUPS`` it serves on its server's endpoint, checked
    #: when it is built.
    HANDLES = ("vleases",)

    def __init__(self, sim, endpoint, on_steal, trace=None, obs=None,
                 server: Optional["StorageTankServer"] = None,
                 object_lease_duration: float = 10.0):
        if server is None:
            raise ValueError("VLeaseAuthority needs the owning server")
        self.server = server
        self.object_lease_duration = object_lease_duration
        # (client, obj) -> expiry_local
        self._table: Dict[Tuple[str, int], float] = {}
        self.object_expirations = 0
        super().__init__(sim, endpoint, on_steal, trace, obs=obs)

        server.locks.grant_listeners.append(self._on_grant)
        server.locks.release_listeners.append(self._on_release)
        endpoint.register(MsgKind.LEASE_RENEW, self._h_renew)
        endpoint.check_handles(self.HANDLES)
        sim.process(self._scan(), name=f"{endpoint.name}:vlease-scan")

    def state_bytes(self) -> int:
        """Always-on footprint: one record per locked object."""
        return len(self._table) * OBJECT_LEASE_BYTES

    # -- lock table hooks ---------------------------------------------------
    def _on_grant(self, client: str, obj: int, mode: LockMode) -> None:
        self._count_cpu()
        self._table[(client, obj)] = (self.endpoint.local_now()
                                      + self.object_lease_duration)

    def _on_release(self, client: str, obj: int) -> None:
        self._table.pop((client, obj), None)

    # -- renewal --------------------------------------------------------------
    def _h_renew(self, msg: Message):
        body: FileOnly = msg.payload
        obj = int(body.file_id)
        key = (msg.src, obj)
        self._count_cpu()
        if key not in self._table:
            return ("nack", {"error": "no lease"})
        self._table[key] = self.endpoint.local_now() + self.object_lease_duration
        return ("ack", {"lease": self.object_lease_duration})

    def _scan(self) -> Generator[Event, Any, None]:
        while True:
            yield self.endpoint.local_timeout(SCAN_INTERVAL)
            now_local = self.endpoint.local_now()
            for (client, obj), expiry in list(self._table.items()):
                if expiry <= now_local:
                    self._count_cpu()
                    self.object_expirations += 1
                    self._table.pop((client, obj), None)
                    self.trace.emit(self.sim.now, "vlease.expire",
                                    self.endpoint.name, client, obj)
                    self.server.locks.steal_one(client, obj)


class VLeaseClientAgent:
    """Per-object renewal daemon for a lease-less Storage Tank client.

    Renews every cached lock once per half lease duration — the message
    cost that grows linearly with the number of cached objects (E8).
    On a failed renewal the object is purged from the cache (the V
    semantics: no lease, no cached object).
    """

    def __init__(self, client: StorageTankClient,
                 object_lease_duration: float = 10.0):
        self.client = client
        self.object_lease_duration = object_lease_duration
        self.renew_interval = object_lease_duration / RENEWALS_PER_TERM
        self.renewals_sent = 0
        self.purges = 0
        self._m_msgs = client.obs.registry.counter(
            "lease.client.msgs_sent", "Client-originated lease messages",
            labels=("node",)).labels(node=client.name)
        client.sim.process(self._run(), name=f"{client.name}:vlease-renew")

    def _run(self) -> Generator[Event, Any, None]:
        ep = self.client.endpoint
        while True:
            yield ep.local_timeout(self.renew_interval)
            for obj, _mode in self.client.locks.all_held():
                self.renewals_sent += 1
                self._m_msgs.inc()
                try:
                    yield from ep.request(self.client.server,
                                          MsgKind.LEASE_RENEW, FileOnly(obj))
                except (DeliveryError, NackError):
                    # Lease gone: purge object and forget the lock.
                    self.purges += 1
                    self.client.lockclient.forfeit(obj, "vlease_lost")
