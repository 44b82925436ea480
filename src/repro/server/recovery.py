"""Server failure and recovery (paper §6), and the reassertion window.

"Distributed file servers, like Storage Tank, that maintain lock and
client state must recover that state after a server failure. ...
Storage Tank uses a combined policy of lock reassertion and hardware
supported replication."

Metadata lives on the server's (replicated) private store and survives;
the *lock table* is volatile and is rebuilt by **client-driven lock
reassertion**: after a restart the server advertises a new *epoch* on
every acknowledgment, and clients re-claim the locks they hold.

Reclaimed locks outrank fresh ones inside a :class:`ReassertWindow`.
Two events open one, with durations from
:class:`~repro.lease.contract.LeaseContract` alone:

- a **restart** covers every object: reasserts do not wait, fresh
  grants wait ``server_wait_local()`` = τ(1+ε), past every lease granted
  before the crash (a partitioned client keeps one that long);
- a **takeover** (:mod:`repro.cluster.takeover`) covers the moved
  slots: reasserts wait ``takeover_wait_local(map_lease)`` =
  (τ + map_lease)(1+ε), fresh grants ``takeover_grace`` longer.

Every grant path (whole-file, byte-range, reassert) waits through
:meth:`RecoveryManager.admit`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, List, Optional, Set, TYPE_CHECKING

from repro.locks.modes import LockMode
from repro.net.control import HandlerResult
from repro.net.message import Message, MsgKind, Reassert
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.spans import Span
    from repro.server.node import StorageTankServer


class SlotOwnershipError(Exception):
    """Raised inside a deferred grant whose slot moved away mid-wait."""


@dataclass
class ReassertWindow:
    """A scope (``slots``; None: every object) and the local instants
    before which a reassert, and a fresh grant, on it waits."""

    slots: Optional[Set[int]]
    reassert_from: float
    fresh_from: float


class RecoveryManager:
    """Epoch tracking, reassertion windows and reasserts of one server."""

    def __init__(self, server: "StorageTankServer") -> None:
        self.server = server
        self.epoch = 1
        # Open windows, waited in list order: a restart's first.
        self.windows: List[ReassertWindow] = []
        self.reasserted = 0
        self.reassert_conflicts = 0
        self.restarts = 0
        self._outage_span: Optional["Span"] = None
        server.endpoint.register(MsgKind.LOCK_REASSERT, self._h_reassert)

    # -- crash / restart -----------------------------------------------------
    def crash(self) -> None:
        """Fail the server: stop receiving; volatile lock state is lost.

        The metadata store survives (private replicated storage, §6);
        the lock table's *history* survives too, because it is audit
        ground truth, but every waiter and cached grant is wiped.
        """
        self.server.endpoint.crash()
        self.server.locks.clear_volatile()
        self.server.barrier.forget_holders()
        self.server.trace.emit(self.server.sim.now, "server.crash",
                               self.server.name)
        if self._outage_span is None:
            self._outage_span = self.server.obs.begin_span(
                self.server.sim.now, "server.outage", self.server.name)

    def restart(self) -> None:
        """Bring the server back with a new epoch and a window over every
        object for lock reassertion."""
        self.restarts += 1
        self.epoch += 1
        self.server.endpoint.restart()
        self.server.trace.emit(self.server.sim.now, "server.restart",
                               self.server.name, self.epoch)
        if self._outage_span is not None:
            self._outage_span.end(self.server.sim.now, epoch=self.epoch)
            self._outage_span = None
        self.open_window(None, 0.0, self.server.contract.server_wait_local(),
                         "server.recovery_grace", epoch=self.epoch)

    # -- the reassertion window --------------------------------------------
    def open_window(self, scope: Optional[Set[int]], reassert_wait: float,
                    grace: float, span_kind: str, **attrs: Any) -> None:
        """Reasserts on ``scope`` wait ``reassert_wait`` local seconds
        from now, fresh grants ``grace`` more; a ``span_kind`` span
        covers the window.  A restart's window replaces the last one."""
        server = self.server
        reassert_from = server.local_now() + reassert_wait
        win = ReassertWindow(scope, reassert_from, reassert_from + grace)
        if scope is None:
            self.windows = [win] + [w for w in self.windows if w.slots]
        else:
            self.windows.append(win)
        span = server.obs.begin_span(server.sim.now, span_kind, server.name,
                                     **attrs)
        if span is not None:
            def close() -> Generator[Event, Any, None]:
                yield server.endpoint.local_timeout(reassert_wait + grace)
                span.end(server.sim.now, reasserted=self.reasserted,
                         conflicts=self.reassert_conflicts)
            server.sim.process(close(), name=f"{server.name}:window-span")

    def admit(self, obj: int, reassert: bool = False,
              ) -> Generator[Event, Any, None]:
        """Wait out the windows covering ``obj`` when the grant arrives,
        in list order and one process each, then raise
        :class:`SlotOwnershipError` if its slot moved away meanwhile.

        A window opened later holds back only later grants: a takeover's
        slots were not this server's when the grant passed the ownership
        gate, and a second restart leaves a grant already waiting on the
        first restart's window alone."""
        server = self.server
        for win in self._covering(obj) if self.windows else ():
            until = win.reassert_from if reassert else win.fresh_from
            wait_local = until - server.local_now()
            if wait_local > 0:
                yield server.sim.process(self._sleep(wait_local))
        cluster = server.cluster
        if cluster is not None and not cluster.owns_obj(obj):
            raise SlotOwnershipError("wrong_owner")

    def _covering(self, obj: int) -> List[ReassertWindow]:
        """The open windows covering ``obj``."""
        cluster = self.server.cluster
        slot = cluster.fid_slot.get(obj) if cluster is not None else None
        return [w for w in self.open_windows()
                if w.slots is None or slot in w.slots]

    def open_windows(self) -> List[ReassertWindow]:
        """The windows still open (closed ones are dropped)."""
        now_l = self.server.local_now()
        self.windows = [w for w in self.windows if now_l < w.fresh_from
                        and (w.slots is None or w.slots)]
        return self.windows

    def holders_untrusted(self) -> bool:
        """Whether the cache barrier's holder table may miss a node that
        holds an entry, so that a mutation must invalidate every node.

        - While a window is open.  A crash drops the table; once the
          restart's window has passed, every cache lease granted before
          the crash has expired or been renewed under the new epoch, and
          either flushes the entries (Theorem 3.1).  Past a takeover's
          window the cache leases with the dead owner have expired too.
        - Always under a cluster.  A slot handed over gracefully
          (failback) leaves entries keyed to its live previous owner,
          which a client with a stale map still reaches through the
          cache; only the new owner's invalidation drops them, and its
          table never saw them."""
        return self.server.cluster is not None or bool(self.open_windows())

    def _sleep(self, wait_local: float) -> Generator[Event, Any, None]:
        yield self.server.endpoint.local_timeout(wait_local)

    # -- reassertion -------------------------------------------------------
    def _h_reassert(self, msg: Message,
                    ) -> Generator[Event, Any, HandlerResult]:
        """Grant a client's re-claim of a lock it already held.

        First-come wins: if two clients reassert conflicting locks (a
        steal raced the crash), the second is refused and must
        invalidate its cache for that object.  Under a cluster a
        displaced client's reassert at the takeover server parks until
        the window's reassert instant: earlier, it could overlap another
        displaced client's still-valid lease.
        """
        body: Reassert = msg.payload
        obj = int(body.file_id)
        mode = LockMode(int(body.mode))
        cluster = self.server.cluster
        try:
            yield from self.admit(obj, reassert=True)
        except SlotOwnershipError:
            # Routing refusal, not a lease NACK: the client refetches
            # the shard map and retries at the current owner.
            assert cluster is not None
            return ("nack", {"error": "wrong_owner",
                             "map_epoch": cluster.map.epoch})
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
        latest = self.server.locks.latest.get((client, obj), {})
        last_steal = latest.get("steal")
        last_grant = latest.get("grant")
        if last_steal is not None and (last_grant is None
                                       or last_steal >= last_grant):
            return False
        return True

    def _do_reassert(self, msg: Message, obj: int, mode: LockMode,
                     ) -> HandlerResult:
        if not self._reassert_allowed(msg.src, obj):
            self.server.rejected_reasserts += 1
            self.server.trace.emit(self.server.sim.now, "server.reject",
                                   self.server.name, msg.src, obj, "reassert")
            return ("nack", {"error": "reassert_refused"})
        granted, conflicts = self.server.locks.try_acquire(msg.src, obj, mode)
        if granted:
            self.reasserted += 1
            self.server.trace.emit(self.server.sim.now, "server.reassert",
                                   self.server.name, msg.src, obj, int(mode))
            return ("ack", {"mode": int(mode)})
        self.reassert_conflicts += 1
        return ("nack", {"error": "reassert_conflict",
                         "holders": [g.client for g in conflicts]})
