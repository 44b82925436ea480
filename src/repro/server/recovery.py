"""Server failure and recovery (paper §6).

"Distributed file servers, like Storage Tank, that maintain lock and
client state must recover that state after a server failure. ...
Storage Tank uses a combined policy of lock reassertion and hardware
supported replication."

Metadata lives on the server's (replicated) private store and survives;
the *lock table* is volatile and is rebuilt by **client-driven lock
reassertion**: after a restart the server advertises a new *epoch* on
every acknowledgment, clients notice the epoch change and re-claim the
locks they hold, and for a grace window the server admits reassertions
while deferring fresh acquisitions so reclaimed locks cannot be handed
to someone else first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional, TYPE_CHECKING

from repro.locks.modes import LockMode
from repro.net.message import Message, MsgKind
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.server.node import StorageTankServer

#: Message kind for re-claiming a lock after a server restart.
#: (Back-compat alias: the kind now lives in the MsgKind vocabulary.)
LOCK_REASSERT = MsgKind.LOCK_REASSERT


# repro-lint: handles[recovery]
class RecoveryManager:
    """Epoch tracking + the post-restart grace window for one server."""

    def __init__(self, server: "StorageTankServer", grace: float = 5.0):
        self.server = server
        self.grace = grace
        self.epoch = 1
        self._recovering_until_local: Optional[float] = None
        self.reasserted = 0
        self.reassert_conflicts = 0
        self.restarts = 0
        self._outage_span = None
        self._recovery_span = None
        server.endpoint.register(MsgKind.LOCK_REASSERT, self._h_reassert)

    # -- state ------------------------------------------------------------
    @property
    def in_recovery(self) -> bool:
        """Whether the grace window is currently open."""
        return (self._recovering_until_local is not None
                and self.server.local_now() < self._recovering_until_local)

    # -- crash / restart -----------------------------------------------------
    def crash(self) -> None:
        """Fail the server: stop receiving; volatile lock state is lost.

        The metadata store survives (private replicated storage, §6);
        the lock manager's *history* survives too, because it is audit
        ground truth, but all holdings and waiters are wiped.
        """
        self.server.endpoint.crash()
        self.server.locks.clear_volatile(now=self.server.sim.now)
        self.server.trace.emit(self.server.sim.now, "server.crash",
                               self.server.name)
        obs = getattr(self.server, "obs", None)
        if obs is not None and self._outage_span is None:
            self._outage_span = obs.begin_span(
                self.server.sim.now, "server.outage", self.server.name)

    def restart(self) -> None:
        """Bring the server back with a new epoch and open the grace
        window for lock reassertion."""
        self.restarts += 1
        self.epoch += 1
        self._recovering_until_local = self.server.local_now() + self.grace
        self.server.endpoint.restart()
        self.server.trace.emit(self.server.sim.now, "server.restart",
                               self.server.name, epoch=self.epoch)
        now = self.server.sim.now
        if self._outage_span is not None:
            self._outage_span.end(now, epoch=self.epoch)
            self._outage_span = None
        obs = getattr(self.server, "obs", None)
        if obs is not None and obs.spans_enabled:
            if self._recovery_span is not None:
                self._recovery_span.end(now, interrupted=True)
            span = obs.begin_span(now, "server.recovery_grace",
                                  self.server.name, epoch=self.epoch)
            self._recovery_span = span

            def close_grace() -> Generator[Event, Any, None]:
                yield self.server.endpoint.local_timeout(self.grace)
                if self._recovery_span is span:
                    span.end(self.server.sim.now,
                             reasserted=self.reasserted,
                             conflicts=self.reassert_conflicts)
                    self._recovery_span = None

            self.server.sim.process(
                close_grace(), name=f"{self.server.name}:obs-grace")

    # -- reassertion -------------------------------------------------------
    def _h_reassert(self, msg: Message):
        """Grant a client's re-claim of a lock it already held.

        First-come wins: if two clients reassert conflicting locks (a
        steal raced the crash), the second is refused and must
        invalidate its cache for that object.

        Under a cluster, reasserts also arrive at a *takeover* server
        from clients the dead owner displaced.  They are admitted only
        for slots this server owns, and during a takeover they park (as
        deferred transactions) until the displaced-lease wait elapses —
        granting earlier could overlap another displaced client's
        still-valid lease.
        """
        obj = int(msg.payload["file_id"])
        mode = LockMode(int(msg.payload["mode"]))
        cluster = self.server.cluster
        if cluster is not None:
            if not cluster.owns_obj(obj):
                # Routing refusal, not a lease NACK: the client refetches
                # the shard map and retries at the current owner.
                return ("nack", {"error": "wrong_owner",
                                 "map_epoch": cluster.map.epoch})
            waiter = cluster.defer_reassert(obj)
            if waiter is not None:
                def run() -> Generator[Event, Any, Any]:
                    yield self.server.sim.process(waiter)
                    if not cluster.owns_obj(obj):
                        return ("nack", {"error": "wrong_owner",
                                         "map_epoch": cluster.map.epoch})
                    return self._do_reassert(msg, obj, mode)
                return run()
        return self._do_reassert(msg, obj, mode)

    def _reassert_allowed(self, client: str, obj: int) -> bool:
        """Validate ``msg.src``'s claim before re-trusting it (§6).

        A reassert is a client's *assertion* that it still holds a lock
        the server's volatile state forgot.  Two pieces of server-side
        evidence refute that assertion, and either refusal closes a
        stale-capability replay hole:

        - the client is currently fenced — a distrusted incarnation must
          not re-enter the lock table until it attests its lapse;
        - the lock history shows the claimed grant was *stolen* from the
          client (latest steal at-or-after its latest grant) — the §6
          resolution voided the capability, so replaying it is refused
          even after the client is unfenced.
        """
        if client in self.server.fenced_clients:
            return False
        last_grant = last_steal = None
        for rec in self.server.locks.history:
            if rec.obj != obj or rec.client != client:
                continue
            if rec.op == "grant":
                last_grant = rec.time
            elif rec.op == "steal":
                last_steal = rec.time
        if last_steal is not None and (last_grant is None
                                       or last_steal >= last_grant):
            return False
        return True

    def _do_reassert(self, msg: Message, obj: int, mode: LockMode):
        if not self._reassert_allowed(msg.src, obj):
            self.server.rejected_reasserts += 1
            self.server.trace.emit(self.server.sim.now, "server.reject",
                                   self.server.name, client=msg.src, obj=obj,
                                   what="reassert")
            return ("nack", {"error": "reassert_refused"})
        granted, conflicts = self.server.locks.try_acquire(msg.src, obj, mode)
        if granted:
            self.reasserted += 1
            self.server.trace.emit(self.server.sim.now, "server.reassert",
                                   self.server.name, client=msg.src, obj=obj,
                                   mode=int(mode))
            return ("ack", {"mode": int(mode)})
        self.reassert_conflicts += 1
        return ("nack", {"error": "reassert_conflict",
                         "holders": [h for h, _m in conflicts]})

    def defer_if_recovering(self) -> Optional[Generator[Event, Any, None]]:
        """A generator that waits out the grace window (None if closed).

        Fresh lock acquisitions yield on this before proceeding, so
        reassertions get the first claim on every object.
        """
        if not self.in_recovery:
            return None
        assert self._recovering_until_local is not None
        wait_local = self._recovering_until_local - self.server.local_now()

        def waiter() -> Generator[Event, Any, None]:
            yield self.server.endpoint.local_timeout(max(wait_local, 0.0))
        return waiter()
