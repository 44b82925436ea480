"""Per-server shard role: ownership gating, takeover timing, handoff.

A :class:`ServerShardRole` sits next to one
:class:`~repro.server.node.StorageTankServer` and decides, per inbound
transaction, whether this server currently *owns* the slot the request
addresses.  Requests for foreign slots are NACKed with
``WRONG_OWNER(map_epoch)`` — the same NACK discipline the paper's Fig. 5
uses for lease invalidation, but at the application level: the client's
lease survives, it just refetches the shard map and retries elsewhere.

**Takeover timing.**  When the coordinator reassigns a dead server's
slots here, this server must not grant any lock on them until every
lease the dead server could have granted has provably expired *on the
displaced clients' own clocks*.  The argument is the ordered-events
argument of Theorem 3.1, shifted one hop: any displaced lease was
initiated at some t_C1 that precedes the dead server's last ACK, which
precedes the coordinator's death verdict, which precedes this server's
receipt of the map update.  A client-local wait of τ corresponds to at
most τ·sqrt(1+ε) globally, and this server additionally covers the
*silencing bound* — a still-running (merely partitioned) old owner
stops serving its slots within ``map_lease`` local seconds of losing
coordinator contact, so no lease it renews can outlive
``(τ + map_lease)`` client-local seconds past the verdict.  Waiting
``(τ + map_lease)·(1+ε)`` on this server's own clock therefore outlasts
every displaced lease without reading any remote clock.

After the wait a short **reassertion grace window** opens: displaced
clients (which were *pushed* the new map at detection time and whose
reasserts queued here during the wait) reclaim their locks first;
fresh acquisitions defer to the end of the window.  The window can be
much shorter than the post-restart recovery grace because discovery is
push-based — restart recovery must wait out an idle client's next
keep-alive (0.5τ), takeover only the push propagation delay.

**Failback** is a *graceful* handoff: the current owner exports its
live holdings (an ownership transfer, not a release — no history event
is recorded, so the audit's open-interval reconstruction stays
conservative), the coordinator forwards them, and the returning server
imports them as ordinary grants.  No wait is needed: lock state moved
with the slots, so there is no uncertainty for time to resolve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    Generator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    TYPE_CHECKING,
)

from repro.cluster.shardmap import ShardMap, slot_of_path
from repro.locks.modes import LockMode
from repro.net.message import Message, MsgKind
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.metadata.store import MetadataStore
    from repro.server.node import StorageTankServer

#: Transaction kinds that create or extend a client's hold on an object
#: and are therefore additionally refused while the map lease is stale.
_GRANTING_KINDS = frozenset({
    MsgKind.CREATE, MsgKind.UNLINK, MsgKind.LOCK_ACQUIRE,
    MsgKind.LOCK_INTENT, MsgKind.LOCK_BATCH,
})

#: The intent sub-operations that grant.  ``range_release`` and the
#: advisory ``close`` give something back, so a stale map never refuses
#: them and they never get the batch they ride refused.
_GRANTING_SUBOPS = frozenset({
    "open", "create", "getattr", "setattr", "range_acquire",
})


class SlotOwnershipError(Exception):
    """Raised inside a deferred grant whose slot moved away mid-wait."""


@dataclass
class TakeoverWindow:
    """One in-progress takeover: the τ(1+ε)-style wait plus grace."""

    slots: Set[int]
    origin: str
    wait_until_local: float
    grace_until_local: float


class ServerShardRole:
    """Cluster-mode behaviour of one metadata server."""

    def __init__(self, server: "StorageTankServer", shard_map: ShardMap,
                 grace: float, map_lease: float) -> None:
        self.server = server
        self.initial_map = shard_map
        self.map = shard_map
        self.grace = grace
        self.map_lease = map_lease
        self.owned: Set[int] = set(shard_map.slots_of(server.name))
        self.home: Set[int] = set(self.owned)
        # Filled by build_system: every server's (replicated, surviving)
        # private metadata store, keyed by server name, plus the build
        # order used to decode ``file_id // 1_000_000_000`` origins.
        self.peer_stores: Dict[str, "MetadataStore"] = {}
        self.order: Tuple[str, ...] = ()
        self.fid_slot: Dict[int, int] = {}
        self.windows: List[TakeoverWindow] = []
        self.takeovers = 0
        self.wrong_owner_nacks = 0
        self._suspended = False
        self._last_coord_contact_local = server.local_now()
        self._takeover_span = None
        obs = server.obs
        obs.registry.gauge(
            "cluster.wrong_owner_nacks",
            "Requests refused for slots this server does not own",
            labels=("node",),
        ).labels(node=server.name).set_function(lambda: self.wrong_owner_nacks)

    # ------------------------------------------------------------------
    # local time / map-lease staleness
    # ------------------------------------------------------------------
    def _local_now(self) -> float:
        return self.server.local_now()

    def note_coordinator_contact(self) -> None:
        """Refresh the map lease (called on every coordinator ping)."""
        self._last_coord_contact_local = self._local_now()

    def map_is_stale(self) -> bool:
        """Whether coordinator contact has lapsed past the map lease.

        A server whose map lease lapsed may have been declared dead and
        must silence itself: the takeover wait only covers leases this
        server could renew up to ``map_lease`` after losing contact.
        """
        return (self._local_now() - self._last_coord_contact_local
                > self.map_lease)

    # ------------------------------------------------------------------
    # ownership gate
    # ------------------------------------------------------------------
    def _slot_of(self, payload: Dict[str, Any]) -> Optional[int]:
        if "path" in payload:
            return slot_of_path(payload["path"])
        if "file_id" in payload:
            return self.fid_slot.get(int(payload["file_id"]))
        return None

    def _wrong_owner(self) -> Tuple[str, Dict[str, Any]]:
        self.wrong_owner_nacks += 1
        # Deliberately NOT a ``__lease_nack__``: a routing refusal is an
        # application outcome, the client's lease must survive it.
        return ("nack", {"error": "wrong_owner", "map_epoch": self.map.epoch})

    def _stale(self) -> Tuple[str, Dict[str, Any]]:
        return ("nack", {"error": "map_stale", "map_epoch": self.map.epoch})

    def gate(self, msg: Message) -> Optional[Tuple[str, Dict[str, Any]]]:
        """Pre-execution ownership check; None admits the request."""
        if msg.kind == MsgKind.KEEPALIVE:
            # A silenced server must also stop renewing leases, or its
            # clients' locks could outlive the takeover wait.
            if self._suspended or self.map_is_stale():
                return self._stale()
            return None
        granting = msg.kind in _GRANTING_KINDS
        bodies: Sequence[Dict[str, Any]] = (msg.payload,)
        if msg.kind == MsgKind.LOCK_BATCH:
            # Refused whole when any granting sub-op would be.
            bodies = [b for b in msg.payload.get("ops", ())
                      if b.get("op") in _GRANTING_SUBOPS]
        elif msg.kind == MsgKind.LOCK_INTENT:
            granting = msg.payload.get("op") in _GRANTING_SUBOPS
        for body in bodies:
            refusal = self._gate_one(body, granting)
            if refusal is not None:
                return refusal
        return None

    def _gate_one(self, payload: Dict[str, Any], granting: bool,
                  ) -> Optional[Tuple[str, Dict[str, Any]]]:
        """Ownership (and, for grants, map-lease) check of one request
        body: a whole payload, or one sub-op of a batch."""
        slot = self._slot_of(payload)
        if slot is None:
            fid = payload.get("file_id")
            if fid is not None and not self._is_local_origin(int(fid)):
                # Unknown foreign file id: refuse rather than serve a
                # slot we cannot prove we own (the owner will know it).
                return self._wrong_owner()
            return None
        if self._suspended or slot not in self.owned:
            return self._wrong_owner()
        if granting and self.map_is_stale():
            return self._stale()
        return None

    def _is_local_origin(self, fid: int) -> bool:
        idx = fid // 1_000_000_000
        return (idx < len(self.order) and self.order[idx] == self.server.name)

    def owns_obj(self, obj: int) -> bool:
        """Whether this server currently owns the object's slot."""
        if self._suspended:
            return False
        slot = self.fid_slot.get(obj)
        if slot is None:
            return self._is_local_origin(obj)
        return slot in self.owned

    # ------------------------------------------------------------------
    # metadata routing (which private store serves a path/file)
    # ------------------------------------------------------------------
    def store_for_path(self, path: str) -> "MetadataStore":
        """The private store holding a path's metadata.

        Invariant: a path's metadata always lives in its *home* owner's
        store (the epoch-1 assignment), whoever currently serves the
        slot — that store is the replicated private storage of §6 that
        survives the home owner's death and that a takeover server
        reads and writes on its behalf.
        """
        origin = self.initial_map.owner_of_path(path)
        return self.peer_stores.get(origin, self.server.metadata)

    def store_for_file(self, fid: int) -> "MetadataStore":
        """The private store holding a file id (decoded from its id base)."""
        idx = fid // 1_000_000_000
        if 0 <= idx < len(self.order):
            return self.peer_stores.get(self.order[idx], self.server.metadata)
        return self.server.metadata

    def note_create(self, fid: int, path: str) -> None:
        """Record a fresh file's slot for fid-routed ownership checks."""
        self.fid_slot[fid] = slot_of_path(path)

    def _reindex(self) -> None:
        """Rebuild the fid → slot index from every (shared) store.

        Slot placement is a pure function of the path, and paths live on
        replicated storage — so knowing every fid's slot is free in the
        model and keeps fid-routed gating exact across handoffs."""
        index: Dict[int, int] = {}
        for store in self.peer_stores.values():
            for path, fid in store.namespace._entries.items():
                index[fid] = slot_of_path(path)
        self.fid_slot = index

    def list_entries(self, prefix: str) -> List[str]:
        """Immediate children under a prefix, restricted to owned slots.

        Mirrors :meth:`Directory.listdir` but filters at the *file*
        level so a fanned-out client readdir merges to exactly the
        cluster-wide namespace, even while slots are mid-handoff.
        """
        from repro.metadata.directory import _normalize
        norm = _normalize(prefix)
        base = norm if norm.endswith("/") else norm + "/"
        seen: Set[str] = set()
        for store in self.peer_stores.values():
            for path in store.namespace._entries:
                if not path.startswith(base):
                    continue
                if slot_of_path(path) not in self.owned:
                    continue
                rest = path[len(base):]
                seen.add(base + rest.split("/")[0])
        return sorted(seen)

    # ------------------------------------------------------------------
    # map updates / takeover / handoff
    # ------------------------------------------------------------------
    def on_restart(self) -> None:
        """After a crash-restart the map is unknown: serve nothing until
        the coordinator's next map update arrives (clients are NACKed
        ``wrong_owner`` and re-route to the current owners meanwhile)."""
        self._suspended = True

    def h_ping(self, msg: Message) -> Tuple[str, Dict[str, Any]]:
        """Coordinator liveness ping (also renews the map lease)."""
        self.note_coordinator_contact()
        return ("ack", {"epoch": self.map.epoch})

    def h_map_update(self, msg: Message) -> Tuple[str, Dict[str, Any]]:
        """Install a pushed shard map (with optional takeover/adopt)."""
        new_map = ShardMap.from_payload(msg.payload["map"])
        self.note_coordinator_contact()
        if new_map.epoch <= self.map.epoch and not self._suspended:
            return ("ack", {"epoch": self.map.epoch})
        self.map = new_map
        self._suspended = False
        self.owned = set(new_map.slots_of(self.server.name))
        self._reindex()
        takeover = msg.payload.get("takeover")
        if takeover is not None:
            self._begin_takeover(takeover["origin"],
                                 set(int(s) for s in takeover["slots"]))
        adopt = msg.payload.get("adopt")
        if adopt is not None:
            self._adopt(adopt.get("holdings") or [])
        self.server.trace.emit(self.server.sim.now, "cluster.map_update",
                               self.server.name, epoch=new_map.epoch,
                               owned=len(self.owned))
        return ("ack", {"epoch": new_map.epoch})

    def h_release(self, msg: Message) -> Tuple[str, Dict[str, Any]]:
        """Coordinator-ordered slot release (failback / rebalancing).

        Stops serving the slots immediately and exports the live lock
        holdings on their files so the coordinator can forward them to
        the next owner — a graceful ownership transfer."""
        slots = set(int(s) for s in msg.payload["slots"])
        self.owned -= slots
        for win in self.windows:
            win.slots -= slots
        fids = [fid for fid, s in self.fid_slot.items() if s in slots]
        holdings = [[obj, client, int(mode)]
                    for obj, client, mode
                    in self.server.locks.export_holdings(fids)]
        self.server.trace.emit(self.server.sim.now, "cluster.release",
                               self.server.name, slots=len(slots),
                               holdings=len(holdings))
        return ("ack", {"holdings": holdings})

    def _begin_takeover(self, origin: str, slots: Set[int]) -> None:
        """Acquire a dead server's slots: open the wait + grace window."""
        wait_local = (self.server.contract.tau + self.map_lease) \
            * (1.0 + self.server.contract.epsilon)
        now_l = self._local_now()
        win = TakeoverWindow(slots=set(slots), origin=origin,
                             wait_until_local=now_l + wait_local,
                             grace_until_local=now_l + wait_local + self.grace)
        self.windows.append(win)
        self.takeovers += 1
        self.server.trace.emit(self.server.sim.now, "cluster.takeover_begin",
                               self.server.name, origin=origin,
                               slots=len(slots), wait_local=wait_local,
                               grace=self.grace)
        obs = self.server.obs
        if obs.spans_enabled:
            span = obs.begin_span(self.server.sim.now, "cluster.takeover",
                                  self.server.name, origin=origin,
                                  slots=len(slots))
            self._takeover_span = span

            def close() -> Generator[Event, Any, None]:
                yield self.server.endpoint.local_timeout(
                    wait_local + self.grace)
                if self._takeover_span is span:
                    span.end(self.server.sim.now)
                    self._takeover_span = None

            self.server.sim.process(
                close(), name=f"{self.server.name}:takeover-span")

    def _adopt(self, holdings: Sequence[Sequence[Any]]) -> None:
        """Install holdings handed over gracefully (failback/rebalance)."""
        entries = [(int(obj), str(client), LockMode(int(mode)))
                   for obj, client, mode in holdings]
        self.server.locks.import_holdings(entries)
        self.server.trace.emit(self.server.sim.now, "cluster.adopt",
                               self.server.name, holdings=len(entries))

    # ------------------------------------------------------------------
    # grant deferral during takeover
    # ------------------------------------------------------------------
    def _active_window(self, obj: int) -> Optional[TakeoverWindow]:
        slot = self.fid_slot.get(obj)
        now_l = self._local_now()
        self.windows = [w for w in self.windows
                        if now_l < w.grace_until_local and w.slots]
        if slot is None:
            return None
        for win in self.windows:
            if slot in win.slots:
                return win
        return None

    def _waiter_until(self, until_local: float,
                      ) -> Generator[Event, Any, None]:
        remaining = until_local - self._local_now()
        yield self.server.endpoint.local_timeout(max(remaining, 0.0))

    def defer_fresh(self, obj: int) -> Optional[Generator[Event, Any, None]]:
        """Defer a fresh acquisition to the end of the grace window."""
        win = self._active_window(obj)
        if win is None:
            return None
        return self._waiter_until(win.grace_until_local)

    def defer_reassert(self, obj: int) -> Optional[Generator[Event, Any, None]]:
        """Defer a displaced client's reassert to the end of the wait.

        Granting earlier would be unsafe: the reasserter's *new* claim
        could coexist with a different displaced client's still-valid
        lease on a conflicting mode.  The request parks as a deferred
        transaction (pending ticket), and the client's periodic re-polls
        keep its new lease with this server renewed through the wait.
        """
        win = self._active_window(obj)
        if win is None or self._local_now() >= win.wait_until_local:
            return None
        return self._waiter_until(win.wait_until_local)
