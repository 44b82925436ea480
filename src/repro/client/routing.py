"""Which server a request goes to, and what to do when it moved.

One server needs no map.  Under a cluster (:mod:`repro.cluster`) the
:class:`Router` holds the last shard map this client saw and each
file's ring slot, retries a request refused as ``WRONG_OWNER`` /
``map_stale`` after refetching the map, and tells its owner which files
changed hands when a newer map arrives (pushed or pulled).
"""

from __future__ import annotations

from typing import (Any, Callable, Dict, Generator, List, Optional, Sequence,
                    Tuple, Union)

from repro.cluster.shardmap import ShardMap, slot_of_path
from repro.net.control import Endpoint, HandlerResult
from repro.net.message import (DeliveryError, MapUpdate, Message, MsgKind,
                               NackError, Null)
from repro.sim.events import Event

#: What a request addresses: ``("path", p)`` or ``("file", fid)``.
Route = Tuple[str, Any]


def _routing_refusal(exc: NackError) -> bool:
    """Whether a NACK is a cluster routing refusal (retry elsewhere).

    Matches by substring because a refusal raised inside a deferred
    transaction surfaces as ``repr(exc)`` in the error field."""
    err = str(exc.nack.payload.get("error", ""))
    return "wrong_owner" in err or "map_stale" in err


class Router:
    """Server selection and shard-map state of one client."""

    def __init__(self, endpoint: Endpoint, servers: Union[str, Sequence[str]],
                 on_map_change: Callable[[int, List[Tuple[int, str]]], None],
                 ) -> None:
        """``on_map_change(epoch, moved)`` is told, once a newer map is
        adopted, the ``(file_id, new_owner)`` of every file that moved."""
        self.endpoint = endpoint
        self.servers: Tuple[str, ...] = (
            (servers,) if isinstance(servers, str) else tuple(servers))
        if not self.servers:
            raise ValueError("need at least one server")
        self.server = self.servers[0]  # primary (routing fallback)
        self._on_map_change = on_map_change
        # file_id -> owning server (populated at create/open).
        self._file_server: Dict[int, str] = {}
        # Cluster rerouting state (wired by ``attach_cluster``): the
        # coordinator's node name, the last shard map we saw, and
        # file_id -> ring slot so fid-routed requests follow slot moves.
        self.coordinator: Optional[str] = None
        self.shard_map: Optional[ShardMap] = None
        self._file_slot: Dict[int, int] = {}
        self.rerouted_ops = 0
        self.shard_migrations = 0

    def attach_cluster(self, coordinator: str, shard_map: ShardMap) -> None:
        """Enable shard-map routing (called by ``build_system``)."""
        self.coordinator = coordinator
        self.shard_map = shard_map
        self.endpoint.register(MsgKind.CLUSTER_MAP_UPDATE, self._on_map_push)

    # -- ownership -----------------------------------------------------------
    def server_for_path(self, path: str) -> str:
        """The metadata server owning a path: the shard map's owner, or
        the one server of an installation that needs no map."""
        if self.shard_map is not None:
            return self.shard_map.owner_of_path(path)
        return self.server

    def server_for_file(self, file_id: int) -> str:
        """The server owning a file id (primary if unknown)."""
        if self.shard_map is not None:
            slot = self._file_slot.get(file_id)
            if slot is not None:
                return self.shard_map.owner_of_slot(slot)
        return self._file_server.get(file_id, self.server)

    def note_file_owner(self, file_id: int, path: str) -> str:
        """Record a file's owner and (when clustered) ring slot; returns
        the owner."""
        if self.shard_map is not None:
            self._file_slot[file_id] = slot_of_path(path)
        owner = self._file_server[file_id] = self.server_for_path(path)
        return owner

    def forget_file(self, file_id: int) -> None:
        """The file is gone (unlink)."""
        self._file_server.pop(file_id, None)
        self._file_slot.pop(file_id, None)

    def files_of_server(self, server: str) -> List[int]:
        """Every known file the server owns."""
        return [fid for fid, srv in self._file_server.items() if srv == server]

    # -- requests ------------------------------------------------------------
    def rpc(self, kind: str, payload: Any,
            server: Optional[str] = None,
            route: Optional[Route] = None,
            ) -> Generator[Event, Any, Message]:
        """One request, with cluster rerouting.

        ``route`` names what the request addresses — ``("path", p)`` or
        ``("file", fid)`` — so a ``WRONG_OWNER`` or ``map_stale`` NACK
        (slot moved, or the target silenced itself after losing the
        coordinator) can be retried: refetch the shard map, re-derive
        the owner, and resend.  Bounded, and inert without a cluster.
        Without ``server`` the request goes to whoever ``route`` names.
        """
        target = server or self._route_target(route, self.server)
        reroutes = 0
        while True:
            try:
                return (yield from self.endpoint.request(target, kind, payload))
            except NackError as exc:
                if reroutes == 3:
                    raise
                new_target = yield from self.follow_refusal(exc, route, target)
                if new_target is None:
                    raise
                reroutes += 1
                if new_target == target:
                    # Map unchanged (e.g. the owner is silenced but not
                    # yet reassigned): back off before asking again.
                    yield self.endpoint.local_timeout(0.5)
                target = new_target

    def follow_refusal(self, exc: NackError, route: Optional[Route],
                       current: str) -> Generator[Event, Any, Optional[str]]:
        """After a NACK from ``current``: if it is a routing refusal,
        refetch the shard map and return the server ``route`` names now
        (possibly ``current`` again); None for any other NACK."""
        if self.shard_map is None or not _routing_refusal(exc):
            return None
        self.rerouted_ops += 1
        yield from self.refresh_map()
        return self._route_target(route, current)

    def _route_target(self, route: Optional[Route], current: str) -> str:
        if route is None or self.shard_map is None:
            return current
        what, key = route
        if what == "path":
            return self.server_for_path(key)
        return self.server_for_file(int(key))

    # -- the shard map ---------------------------------------------------------
    def refresh_map(self) -> Generator[Event, Any, None]:
        """Pull the current shard map from the coordinator."""
        if self.coordinator is None:
            return
        try:
            reply = yield from self.endpoint.request(
                self.coordinator, MsgKind.CLUSTER_MAP_FETCH, Null())
        except (DeliveryError, NackError):
            return
        self._apply_map(ShardMap.from_payload(reply.payload["map"]))

    def _on_map_push(self, msg: Message) -> HandlerResult:
        """Coordinator-pushed map update (takeover/failback broadcast)."""
        body: MapUpdate = msg.payload
        self._apply_map(ShardMap.from_payload(body.map))
        return ("ack", {})

    def _apply_map(self, new_map: ShardMap) -> None:
        """Adopt a newer shard map: re-point every file whose slot moved
        at its new owner, then tell the owner of this router."""
        if self.shard_map is None or new_map.epoch <= self.shard_map.epoch:
            return
        self.shard_map = new_map
        moved: List[Tuple[int, str]] = []
        for fid, slot in self._file_slot.items():
            owner = new_map.owner_of_slot(slot)
            if self._file_server.get(fid) != owner:
                self._file_server[fid] = owner
                self.shard_migrations += 1
                moved.append((fid, owner))
        self._on_map_change(new_map.epoch, moved)
