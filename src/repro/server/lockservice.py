"""The server's lock service: granting, demanding back, stealing and
fencing (paper §2, §3.1, §6).

It owns the lock table, the set of holders being pressed, and the fence
and attestation tables.  It handles no client transaction: a client's
lock request is an intent (:mod:`repro.server.intents`), which wins its
lock through :meth:`LockService.acquire`.  It is constructed with its
server because the authority (built by a factory that needs the
server), the cluster role and the recovery manager (attached later) can
only be read through it when a transaction runs (DESIGN.md, "Node
layers").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Generator, Set, Tuple

from repro.locks.manager import CACHED, FULL, SCOPED, ByteRange, LockTable
from repro.locks.modes import LockMode, compatible
from repro.net.message import (DeliveryError, LockDemand, Message, MsgKind,
                               NackError, RangeDemand)
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover - import only for annotations
    from repro.server.node import StorageTankServer

#: Local seconds a pressed holder gets to give way before the next round.
DEMAND_PATIENCE = 2.0


class LockService:
    """The lock table, demand loops and fences of one server."""

    def __init__(self, server: "StorageTankServer") -> None:
        self.server = server
        sim = server.sim
        self.locks = LockTable(now_fn=lambda: sim.now)
        self.locks.bind_obs(server.obs, server.name)
        # Holders being pressed: (holder, obj, kind, needed mode; NONE
        # for an op-scoped holder), one loop each.
        self._active_demands: Set[Tuple[str, int, str, LockMode]] = set()
        self._fenced: Set[str] = set()
        # §6 attested rejoin: highest lease-lapse generation each client
        # has attested (``Message.lapse_attested``), and the value
        # snapshotted when the client was fenced.  A fence lifts only
        # after the client attests a *newer* lapse — proof it observed
        # its lease expire and discarded stale cache and locks.  A
        # possessed client that never runs its expiry path never attests
        # and stays fenced.
        self._lapse_seen: Dict[str, int] = {}
        self._lapse_at_fence: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # steal & fence
    # ------------------------------------------------------------------
    def note_contact(self, msg: Message) -> None:
        """A client transaction arrived: record the lapse it attests and
        lift its fence if that is now safe."""
        gen = int(msg.lapse_attested)
        if gen > self._lapse_seen.get(msg.src, 0):
            self._lapse_seen[msg.src] = gen
        if (msg.src in self._fenced
                and not self.server.authority.is_suspect(msg.src)
                and self._attested_since_fence(msg.src)):
            # A stolen client is back in contact *and* has attested a
            # lease lapse newer than the fence: it observed the expiry,
            # ran the §3.2 cleanup and dropped its stale cache, so it
            # is safe to re-admit to the SAN.  Without the attestation
            # the fence stays up (§6): an incarnation that never saw
            # its lease die may still hold — and write — stale data.
            self.unfence_client(msg.src)

    def steal_client(self, client: str) -> None:
        """Stop honoring every lock the client holds (authority callback)."""
        server = self.server
        if server.config.fence_on_steal:
            self.fence_client(client)
        # The resolution declares the client's old incarnation dead: its
        # replay-cached results must not answer a restarted incarnation
        # that reuses sequence numbers (stale grants served verbatim).
        server.endpoint.forget_peer(client)
        stolen = self.locks.steal_all(client)
        server.trace.emit(server.sim.now, "server.steal", server.name,
                          client, len(stolen))

    def _attested_since_fence(self, client: str) -> bool:
        """Whether the client attested a lease lapse newer than its fence."""
        return (self._lapse_seen.get(client, 0)
                > self._lapse_at_fence.get(client, 0))

    def fence_client(self, client: str) -> None:
        """Construct a fence between the client and shared storage (§6)."""
        if client in self._fenced:
            return
        server = self.server
        self._fenced.add(client)
        self._lapse_at_fence[client] = self._lapse_seen.get(client, 0)
        for disk in server.san.devices.values():
            disk.fence_table.fence(client, server.sim.now)
        server.trace.emit(server.sim.now, "server.fence", server.name,
                          client)

    def unfence_client(self, client: str) -> None:
        """Lift a previously constructed fence."""
        if client not in self._fenced:
            return
        server = self.server
        self._fenced.discard(client)
        for disk in server.san.devices.values():
            disk.fence_table.unfence(client, server.sim.now)
        server.trace.emit(server.sim.now, "server.unfence", server.name,
                          client)

    # ------------------------------------------------------------------
    # lock granting with demand/revocation
    # ------------------------------------------------------------------
    def acquire(self, client: str, obj: int, mode: LockMode,
                rng: ByteRange = FULL, kind: str = CACHED,
                ) -> Generator[Event, Any, LockMode]:
        """Win a lock: queue behind conflicting holders and press them
        (a cached lock is demanded back; an op-scoped holder is probed,
        and a dead one's grants free when its lease is stolen)."""
        server = self.server
        # Reassertions claim their objects first (post-restart and
        # takeover windows); a slot that moved meanwhile is refused.
        yield from server.recovery.admit(obj)
        granted, conflicts = self.locks.try_acquire(client, obj, mode, rng,
                                                    kind)
        if granted:
            return mode
        wait_ev = server.sim.event()
        self.locks.enqueue_waiter(
            client, obj, mode,
            lambda r, m, ev=wait_ev: ev.succeed((r, m)) if not ev.triggered else None,
            rng, kind)
        for g in conflicts:
            self._press(g.client, obj, kind, mode)
        yield wait_ev
        if kind == CACHED and server.config.demand_chain:
            # The pump granted us the lock, making *us* the holder the
            # rest of the queue conflicts with.  Clients cache locks
            # until demanded, so without a demand against the new holder
            # every remaining waiter would starve behind our (lazily
            # kept) grant.
            for _waiter, wmode in self.locks.waiting(obj):
                if not compatible(mode, wmode):
                    self._press(client, obj, kind, wmode)
        return mode

    def _lock_activity(self, holder: str, obj: int) -> float:
        """Time of the latest lock-history record for (holder, obj).

        The pressing loop uses this to tell a complying-but-contended
        holder (its record moves: release, re-grant, downgrade) from a
        wedged or protocol-violating one (record frozen across rounds).
        """
        return max(self.locks.latest.get((holder, obj), {}).values(),
                   default=-1.0)

    def _press(self, holder: str, obj: int, kind: str,
               needed: LockMode) -> None:
        """Press ``holder`` on behalf of a waiter on ``obj`` (one loop
        per demand).  A cached lock is *demanded* back for the ``needed``
        mode; an op-scoped holder is only *probed* (its operation
        releases the range), one loop whatever the waiters need."""
        key = (holder, obj, kind, needed if kind == CACHED else LockMode.NONE)
        if key in self._active_demands:
            return
        self._active_demands.add(key)
        label = "demand" if kind == CACHED else "range-probe"
        self.server.sim.process(
            self._press_loop(key),
            name=f"{self.server.name}:{label}:{holder}:{obj}")

    def _press_loop(self, key: Tuple[str, int, str, LockMode],
                    ) -> Generator[Event, Any, None]:
        """Keep at a holder until it gives way or is stolen from.

        An unreachable holder is the authority's business: the delivery
        failure marked it suspect, and the loop waits for the resolution
        (or, for an immediate-steal baseline, finds it resolved).  A
        lock cacher that keeps acknowledging demands without ever
        releasing gets ``demand_escalate_rounds`` patience rounds, then
        is marked suspect: the ACKs prove the computer is reachable, so
        the only remaining explanations are a wedged client or one that
        fails to respect the protocol — either way the §6 backstop
        (resolution, steal, fence) is the way forward, and honest
        waiters stop starving behind it.
        """
        holder, obj, kind, needed = key
        server = self.server
        endpoint, authority, config = (server.endpoint, server.authority,
                                       server.config)
        acked_rounds = 0
        try:
            while True:
                if kind == SCOPED:
                    if (not self.locks.holdings(holder, obj, SCOPED)
                            or not self.locks.waiting(obj, SCOPED)):
                        return
                else:
                    held = self.locks.mode_of(holder, obj)
                    if held == LockMode.NONE or compatible(held, needed):
                        return
                if authority.is_suspect(holder):
                    res = authority.resolution(holder)
                    if res is not None:
                        yield res
                    else:
                        # Suspect but no steal scheduled yet (e.g. a
                        # heartbeat authority between expiry and its next
                        # scan): poll instead of spinning.
                        yield endpoint.local_timeout(0.5)
                    continue
                try:
                    if kind == SCOPED:
                        yield from endpoint.request(
                            holder, MsgKind.RANGE_DEMAND, RangeDemand(obj))
                    else:
                        yield from endpoint.request(
                            holder, MsgKind.LOCK_DEMAND,
                            LockDemand(obj, int(needed)))
                except DeliveryError:
                    # The endpoint hook already told the authority; wait for
                    # the steal (or for an immediate-steal baseline, which
                    # resolves synchronously).
                    res = authority.resolution(holder)
                    if res is not None:
                        yield res
                    continue
                except NackError:
                    return
                if kind == SCOPED:
                    yield endpoint.local_timeout(DEMAND_PATIENCE)
                    continue
                # Holder acknowledged; give it time to flush and release.
                activity0 = self._lock_activity(holder, obj)
                yield endpoint.local_timeout(DEMAND_PATIENCE)
                if self._lock_activity(holder, obj) != activity0:
                    # The holder's lock record moved (release, downgrade,
                    # re-grant under contention): it IS complying with
                    # the protocol, so the stuck-holder clock restarts.
                    acked_rounds = 0
                    continue
                acked_rounds += 1
                rounds = config.demand_escalate_rounds
                if (rounds > 0 and acked_rounds >= rounds
                        and not authority.is_suspect(holder)):
                    mark = getattr(authority, "mark_suspect", None)
                    if mark is not None:
                        server.trace.emit(server.sim.now,
                                          "server.demand_escalate",
                                          server.name, holder, obj,
                                          acked_rounds)
                        mark(holder)
        finally:
            self._active_demands.discard(key)
