"""The server's lock service: granting, demanding back, stealing and
fencing (paper §2, §3.1, §6).

It owns the lock tables, the set of holders being pressed, and the fence
and attestation tables.  It is constructed with its server because the
authority (built by a factory that needs the server), the cluster role
and the recovery manager (attached later) can only be read through it
when a transaction runs (DESIGN.md, "Node layers").
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Any, Dict, Generator, Optional, Set, Tuple)

from repro.locks.manager import LockManager
from repro.locks.modes import LockMode, compatible
from repro.locks.ranges import ByteRange, RangeLockManager
from repro.metadata.directory import NamespaceError
from repro.net.control import HandlerResult
from repro.net.message import (DeliveryError, Downgrade, FileOnly,
                               LockAcquire, LockDemand, Message, MsgKind,
                               NackError, RangeDemand)
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover - import only for annotations
    from repro.server.node import StorageTankServer

#: Local seconds a pressed holder gets to give way before the next round.
DEMAND_PATIENCE = 2.0


class LockService:
    """Lock tables, demand loops and fences of one server."""

    def __init__(self, server: "StorageTankServer") -> None:
        self.server = server
        sim = server.sim
        self.locks = LockManager(now_fn=lambda: sim.now)
        # Byte-range locks for sub-file sharing (acquire→I/O→release;
        # clients do not cache these, so nothing is demanded back —
        # waiters queue until the holder releases or is stolen from, and
        # the holder is only probed for liveness).
        self.range_locks = RangeLockManager(now_fn=lambda: sim.now)
        self.locks.bind_obs(server.obs, server.name)
        # Holders being pressed: (holder, obj, needed mode | None for a
        # range probe), one loop each.
        self._active_demands: Set[Tuple[str, int, Optional[LockMode]]] = set()
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
        self.rejected_releases = 0   # RELEASE/DOWNGRADE from a non-holder

        # repro-lint: handles[locking]
        server._register(MsgKind.LOCK_ACQUIRE, self._h_lock_acquire)
        server._register(MsgKind.LOCK_RELEASE, self._h_lock_release)
        server._register(MsgKind.LOCK_DOWNGRADE, self._h_lock_downgrade)

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
        stolen_ranges = self.range_locks.steal_all(client)
        server.trace.emit(server.sim.now, "server.steal", server.name,
                          client, len(stolen) + len(stolen_ranges))

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
        # ``scope`` says nothing any more (fences are only ever built at
        # the devices), but every pinned trace hash covers it.  Kept, the
        # golden traces, corpus and artifacts replay bit-identical, which
        # is what shows the options deleted around it changed nothing.
        server.trace.emit(server.sim.now, "server.fence", server.name,
                          client, "device")

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
    def grant_lock(self, client: str, obj: int, mode: LockMode,
                   ) -> Generator[Event, Any, LockMode]:
        """Win a whole-file lock, demanding it from conflicting holders."""
        server = self.server
        # Reassertions claim their objects first (post-restart and
        # takeover windows); a slot that moved meanwhile is refused.
        yield from server.recovery.admit(obj)
        granted, conflicts = self.locks.try_acquire(client, obj, mode)
        if granted:
            return mode
        wait_ev = server.sim.event()
        self.locks.enqueue_waiter(
            client, obj, mode,
            lambda o, m, ev=wait_ev: ev.succeed((o, m)) if not ev.triggered else None)
        for holder, _held in conflicts:
            self._press(holder, obj, mode)
        yield wait_ev
        if server.config.demand_chain:
            # The pump granted us the lock, making *us* the holder the
            # rest of the queue conflicts with.  Clients cache locks
            # until demanded, so without a demand against the new holder
            # every remaining waiter would starve behind our (lazily
            # kept) grant.
            for _waiter, wmode in self.locks.waiting(obj):
                if not compatible(mode, wmode):
                    self._press(client, obj, wmode)
        return mode

    def acquire_range(self, client: str, file_id: int, rng: ByteRange,
                      mode: LockMode) -> Generator[Event, Any, None]:
        """Win a byte-range lock (queues behind conflicting holders; a
        dead holder's ranges free when its lease is stolen)."""
        server = self.server
        yield from server.recovery.admit(file_id)
        granted, conflicts = self.range_locks.try_acquire(
            client, file_id, rng, mode)
        if not granted:
            ev = server.sim.event()
            self.range_locks.enqueue_waiter(
                client, file_id, rng, mode,
                lambda r, m, ev=ev: ev.succeed((r, m)) if not ev.triggered else None)
            # Probe the conflicting holders: an unreachable holder
            # must be detected (delivery failure -> suspect -> lease
            # steal frees its ranges) or the waiter starves.
            for g in conflicts:
                self._press(g.client, file_id, None)
            yield ev

    def _lock_activity(self, holder: str, obj: int) -> float:
        """Time of the latest lock-history record for (holder, obj).

        The pressing loop uses this to tell a complying-but-contended
        holder (its record moves: release, re-grant, downgrade) from a
        wedged or protocol-violating one (record frozen across rounds).
        """
        return max(self.locks.latest.get((holder, obj), {}).values(),
                   default=-1.0)

    def _press(self, holder: str, obj: int,
               needed: Optional[LockMode]) -> None:
        """Press ``holder`` on behalf of a waiter on ``obj`` (one loop
        per demand).  ``needed`` is the mode wanted of a lock cacher,
        whose lock is *demanded* back; None for a holder of byte ranges,
        which is only *probed* (the operation itself releases them)."""
        key = (holder, obj, needed)
        if key in self._active_demands:
            return
        self._active_demands.add(key)
        label = "range-probe" if needed is None else "demand"
        self.server.sim.process(
            self._press_loop(holder, obj, needed),
            name=f"{self.server.name}:{label}:{holder}:{obj}")

    def _press_loop(self, holder: str, obj: int, needed: Optional[LockMode],
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
        server = self.server
        endpoint, authority, config = (server.endpoint, server.authority,
                                       server.config)
        acked_rounds = 0
        try:
            while True:
                if needed is None:
                    if (not self.range_locks.holdings(holder, obj)
                            or self.range_locks.waiter_count(obj) == 0):
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
                    if needed is None:
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
                if needed is None:
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
            self._active_demands.discard((holder, obj, needed))

    # ------------------------------------------------------------------
    # transaction handlers
    # ------------------------------------------------------------------
    def _h_lock_acquire(self, msg: Message) -> Any:
        server = self.server
        body: LockAcquire = msg.payload
        file_id = int(body.file_id)
        mode = LockMode(int(body.mode))

        def run() -> Generator[Event, Any, HandlerResult]:
            granted = yield from self.grant_lock(msg.src, file_id, mode)
            try:
                extra = server._meta_reply(
                    server._meta_for_file(file_id).inode(file_id),
                    body.have_layout)
            except NamespaceError:
                extra = {}
            return ("ack", {"mode": int(granted), **extra})
        return run()

    def _h_lock_release(self, msg: Message) -> HandlerResult:
        # ``msg.src`` is validated against lock ownership: a release can
        # only ever drop *the sender's own* holding.  A release naming an
        # object the sender does not hold — a replayed pre-steal release,
        # or one raced by a steal — is a counted no-op, never a way to
        # forfeit another holder's lock.  Still ACKed: release is
        # idempotent, and the §6 resolution already voided the holding.
        body: FileOnly = msg.payload
        fid = int(body.file_id)
        if self.locks.mode_of(msg.src, fid) == LockMode.NONE:
            self.rejected_releases += 1
            return ("ack", {"status": "not_holder"})
        self.locks.release(msg.src, fid)
        return ("ack", {})

    def _h_lock_downgrade(self, msg: Message) -> HandlerResult:
        # Same ownership validation as release (see above).
        body: Downgrade = msg.payload
        fid = int(body.file_id)
        if self.locks.mode_of(msg.src, fid) == LockMode.NONE:
            self.rejected_releases += 1
            return ("ack", {"status": "not_holder"})
        self.locks.downgrade(msg.src, fid, LockMode(int(body.to)))
        return ("ack", {})
