"""The cluster coordinator: failure detection and shard-map publication.

A small process on the control network that (1) pings every metadata
server each ``ping_interval``, (2) declares a server dead when a ping
exhausts its retry policy, reassigns the dead server's slots to a
survivor and pushes the bumped map — takeover info first to the new
owner, then to the other servers, then (optionally) to clients — and
(3) on the dead server's return performs *failback*: asks the interim
owners to release the slots (collecting their live lock holdings), then
pushes a map restoring the home assignment, handing the holdings to the
returning server as a graceful adopt.

The coordinator publishes state; it never holds locks and is not on the
data path.  Safety does not depend on its timing: a wrong death verdict
merely triggers a takeover whose (τ + map_lease)(1+ε) wait still
outlasts every lease the (possibly alive but partitioned) old owner
could have renewed before silencing itself — see
:mod:`repro.cluster.takeover`.

Map pushes are best-effort: a partitioned server simply misses updates,
keeps NACKing ``wrong_owner``/``map_stale``, and resynchronises from the
next push (or a client-triggered fetch) once healed.
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    Generator,
    List,
    Optional,
    Sequence,
    Tuple,
    TYPE_CHECKING,
)

from repro.cluster.shardmap import ShardMap
from repro.net.control import ControlNetwork, Endpoint, RetryPolicy
from repro.net.message import (DeliveryError, MapUpdate, Message, MsgKind,
                               NackError, Null, ReleaseSlots)
from repro.sim.clock import LocalClock
from repro.sim.events import Event
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceRecorder

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a cycle via
    from repro.client.pool import ClientPool
    from repro.core.config import ClusterConfig  # repro.core.__init__)

#: Control-network node name of the coordinator process.
COORDINATOR_NAME = "coord"


class ClusterCoordinator:
    """Membership monitor and shard-map publisher."""

    #: The ``KIND_GROUPS`` it serves, checked when it is built.
    HANDLES = ("cluster-coordinator",)

    def __init__(self, sim: Simulator, net: ControlNetwork, name: str,
                 server_names: Sequence[str], clock: LocalClock,
                 config: "ClusterConfig", trace: TraceRecorder, obs: Any,
                 pool: "ClientPool") -> None:
        self.sim = sim
        self.name = name
        self.config = config
        self.trace = trace
        self.obs = obs
        self.server_names: Tuple[str, ...] = tuple(server_names)
        self.pool = pool
        self.endpoint = Endpoint(
            sim, net, name, clock, trace=trace,
            default_policy=RetryPolicy(timeout=config.ping_timeout,
                                       retries=config.ping_retries))
        self.endpoint.obs = obs
        self.endpoint.register(MsgKind.CLUSTER_MAP_FETCH, self._h_fetch)
        self.endpoint.check_handles(self.HANDLES)

        self.map = ShardMap.initial(self.server_names)
        #: Home (epoch-1) slot assignment, the failback target.
        self.home: Dict[str, Tuple[int, ...]] = {
            s: self.map.slots_of(s) for s in self.server_names}
        self.alive: Dict[str, bool] = {s: True for s in self.server_names}
        self.takeovers = 0
        self.failbacks = 0
        obs.registry.gauge(
            "cluster.map_epoch",
            "Current shard-map epoch published by the coordinator",
            labels=("node",),
        ).labels(node=name).set_function(lambda: self.map.epoch)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn one monitor process per server."""
        for srv in self.server_names:
            self.sim.process(self._monitor(srv),
                             name=f"{self.name}:monitor:{srv}")

    def _monitor(self, srv: str) -> Generator[Event, Any, None]:
        """Ping one server forever; drive takeover/failback on edges."""
        while True:
            yield self.endpoint.local_timeout(self.config.ping_interval)
            try:
                yield from self.endpoint.request(srv, MsgKind.CLUSTER_PING,
                                                 Null())
            except (DeliveryError, NackError):
                if self.alive[srv]:
                    self.alive[srv] = False
                    self.trace.emit(self.sim.now, "cluster.server_dead",
                                    self.name, srv)
                    yield from self._takeover(srv)
                continue
            if not self.alive[srv]:
                self.alive[srv] = True
                self.trace.emit(self.sim.now, "cluster.server_alive",
                                self.name, srv)
                yield from self._failback(srv)

    # ------------------------------------------------------------------
    # map evolution
    # ------------------------------------------------------------------
    def _survivor_for(self, dead: str) -> Optional[str]:
        """Next alive server after ``dead`` in ring order."""
        names = self.server_names
        start = names.index(dead)
        for off in range(1, len(names)):
            cand = names[(start + off) % len(names)]
            if self.alive.get(cand):
                return cand
        return None

    def _takeover(self, dead: str) -> Generator[Event, Any, None]:
        """Reassign a dead server's slots to a survivor and publish."""
        slots = self.map.slots_of(dead)
        target = self._survivor_for(dead)
        if not slots or target is None:
            return
        self.map = self.map.reassign(slots, target)
        self.takeovers += 1
        self.trace.emit(self.sim.now, "cluster.takeover", self.name,
                        dead, target, len(slots), self.map.epoch)
        # The new owner learns first (it starts its safety wait from the
        # moment of receipt), then everyone else.
        yield from self._push(target, takeover={"origin": dead,
                                                "slots": list(slots)})
        yield from self._broadcast(exclude=(dead, target))

    def _failback(self, srv: str) -> Generator[Event, Any, None]:
        """Restore a returned server's home slots via graceful handoff."""
        wanted = [s for s in self.home[srv]
                  if self.map.owner_of_slot(s) != srv]
        if not wanted:
            # Nothing moved (e.g. the blip healed before a takeover) —
            # still push the current map so a restarted server unsuspends.
            yield from self._push(srv)
            return
        # An unreachable interim owner's grants may still be live, so
        # the returning server must then take over the hard way (full
        # wait) instead of adopting.
        adopt, clean = yield from self._release(wanted)
        self.map = self.map.reassign(wanted, srv)
        self.failbacks += 1
        self.trace.emit(self.sim.now, "cluster.failback", self.name,
                        srv, len(wanted), clean, self.map.epoch)
        if clean:
            yield from self._push(srv, adopt=adopt)
        else:
            yield from self._push(srv, takeover={"origin": srv,
                                                 "slots": list(wanted)})
        yield from self._broadcast(exclude=(srv,))

    def move_slots(self, slots: Sequence[int], target: str,
                   ) -> Generator[Event, Any, None]:
        """Administrative rebalancing: graceful handoff of live slots.

        Used by tests to exercise rerouting without killing a server."""
        slots = [s for s in slots if self.map.owner_of_slot(s) != target]
        if not slots:
            return
        adopt, _clean = yield from self._release(slots)
        self.map = self.map.reassign(slots, target)
        self.trace.emit(self.sim.now, "cluster.move_slots", self.name,
                        target, len(slots), self.map.epoch)
        yield from self._push(target, adopt=adopt)
        yield from self._broadcast(exclude=(target,))

    def _release(self, slots: Sequence[int],
                 ) -> Generator[Event, Any, Tuple[Dict[str, List[Any]], bool]]:
        """Release ``slots`` from their owners: the adopt payload of
        their live holdings, and whether every owner answered."""
        adopt: Dict[str, List[Any]] = {"holdings": []}
        clean = True
        by_owner: Dict[str, List[int]] = {}
        for s in slots:
            by_owner.setdefault(self.map.owner_of_slot(s), []).append(s)
        for owner, owner_slots in by_owner.items():
            try:
                ack = yield from self.endpoint.request(
                    owner, MsgKind.CLUSTER_RELEASE, ReleaseSlots(owner_slots))
            except (DeliveryError, NackError):
                clean = False
                continue
            for key in ("holdings", "ranges"):
                if ack.payload.get(key):
                    adopt.setdefault(key, []).extend(ack.payload[key])
        return adopt, clean

    # ------------------------------------------------------------------
    # publication
    # ------------------------------------------------------------------
    def _push(self, dst: str, **extra: Any) -> Generator[Event, Any, None]:
        """Push the current map to one node (best-effort); ``extra`` is
        the update's ``takeover`` or ``adopt``."""
        try:
            yield from self.endpoint.request(
                dst, MsgKind.CLUSTER_MAP_UPDATE,
                MapUpdate(self.map.to_payload(), **extra))
        except (DeliveryError, NackError):
            pass

    def _broadcast(self, exclude: Sequence[str] = (),
                   ) -> Generator[Event, Any, None]:
        """Push the current map to remaining servers, then clients."""
        for srv in self.server_names:
            if srv not in exclude:
                yield from self._push(srv)
        if self.config.push_to_clients:
            # Live clients only, re-checked at each push: a datagram to a
            # parked name wakes it, so one takeover would materialize the
            # whole population.  A client built later starts on the
            # current map and needs no push.
            for cli in self.pool.live_names():
                if self.pool.peek(cli) is not None:
                    yield from self._push(cli)

    # ------------------------------------------------------------------
    # handlers
    # ------------------------------------------------------------------
    def _h_fetch(self, msg: Message) -> Tuple[str, Dict[str, Any]]:
        """CLUSTER_MAP_FETCH: hand out the current map (client pull)."""
        return ("ack", {"map": self.map.to_payload()})
