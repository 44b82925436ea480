"""Lease-coherent in-network metadata cache nodes.

A :class:`MetadataCacheNode` is a simulated per-rack middlebox on the
control network.  The route-through-cache attachment
(:meth:`repro.net.control.ControlNetwork.set_cache_router`) delivers a
client's cacheable read-path requests (lookup / getattr-by-path /
readdir) to its assigned cache node *instead of* the addressed server;
``msg.dst`` is left untouched, so the cache reads it as the upstream to
forward misses to, and the sender's retries reach the server directly
whenever the cache is dead (crash degrades to forwarding, never to
wrong answers).

Why a hit is never stale (the coherence argument, DESIGN.md §15):

- Every entry is *lease-scoped*: the cache holds an ordinary
  four-phase client lease with each upstream server (renewed
  opportunistically by forwarded traffic and by keep-alives), an entry
  is only installed and only served while the covering lease is
  usable, and lease expiry/NACK flushes the server's entries.  A server
  that cannot reach this cache therefore only has to perform the
  paper's τ(1+ε) suspect wait (Theorem 3.1) to know the entries died.
- Every mutation at the server is *invalidate-before-apply*: the
  server claims a barrier, pushes ``CACHE_INVALIDATE`` to every cache
  that may hold a key it names and waits for the ACKs (or for lease
  resolution on delivery failure), and only then applies the
  mutation.  A hit can thus never observe a value the server has
  already replaced.  "May hold" is the server's holder table
  (``repro.server.barrier``): every reply this node could install
  made it a holder of the reply's keys, and it stays one until a
  mutation naming the key has invalidated it *and applied*.  A node
  that is no holder either never got an installable reply for the key
  or has since processed an invalidation of it, which dropped the
  entry and raised a floor that rejects every older reply still in
  flight.  Where the table cannot be trusted (an open reassertion
  window after a crash or takeover, any cluster) every node is
  invalidated.
- Install races are closed by three guards: a reply executed while any
  mutation was pending at the server is stamped uninstallable
  (watermark -1); a reply that executed before a mutation but
  arrives after its invalidation carries a watermark below the
  barrier floor the invalidation raised; and a reply that predates a
  flush (crash, lease lapse, epoch change, WRONG_OWNER) fails the
  per-server generation check snapshotted when the miss was forwarded.

Everything here is crash-safe soft state: ``crash()`` drops the entry
store; correctness never depends on an entry being present.  Entries
whose covering lease is no longer usable are also swept every
:data:`SWEEP_INTERVAL` local seconds, by one kernel timeout the node
re-arms after each sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (TYPE_CHECKING, Any, Dict, FrozenSet, Generator, List,
                    Mapping, Optional, Set, Tuple)

from repro.lease.agent import LeaseAgent
from repro.lease.contract import LeaseContract
from repro.net.control import (ControlNetwork, Endpoint, HandlerResult,
                               RetryPolicy)
from repro.net.message import (DeliveryError, Invalidate, Message, MsgKind,
                               NackError)
from repro.sim.clock import LocalClock
from repro.sim.events import Event, Timeout
from repro.sim.kernel import Simulator
from repro.sim.rng import _stable_hash
from repro.sim.trace import TraceRecorder

if TYPE_CHECKING:  # pragma: no cover - import only for annotations
    from repro.core.config import NetCacheConfig
    from repro.obs import Observability
    from repro.obs.registry import Metric

__all__ = ["CACHEABLE_KINDS", "MetadataCacheNode", "install_cache_router"]

#: Read-path kinds the tier intercepts; everything else goes direct.
CACHEABLE_KINDS: FrozenSet[str] = frozenset(
    {MsgKind.LOOKUP, MsgKind.GETATTR, MsgKind.READDIR})

#: (entry kind tag, upstream server, path)
CacheKey = Tuple[str, str, str]
#: The entry kind tag of each cacheable kind.
_KEY_KINDS = {MsgKind.LOOKUP: "lookup", MsgKind.GETATTR: "attrs",
              MsgKind.READDIR: "readdir"}

#: Upstream (cache → server) per-attempt timeout and retries before a
#: miss is failed back to the client.
UPSTREAM_POLICY = RetryPolicy(timeout=1.0, retries=3)
#: Local seconds between lease-lapse sweeps of the entry store.
SWEEP_INTERVAL = 1.0


@dataclass
class _Entry:
    """One cached reply: the payload plus its coherence pedigree."""

    __slots__ = ("payload", "server", "fingerprint", "mseq", "learned_at",
                 "file_id")

    payload: Dict[str, Any]
    server: str
    fingerprint: Any
    mseq: int
    learned_at: float        # global sim time of install
    file_id: Optional[int]


class MetadataCacheNode:
    """Soft-state metadata cache for one rack's clients."""

    #: The ``KIND_GROUPS`` it serves (it answers some ``fs-core`` reads
    #: too, but not that whole group), checked when it is built.
    HANDLES = ("cache-invalidate",)

    def __init__(self, sim: Simulator, net: ControlNetwork, name: str,
                 upstreams: Tuple[str, ...], clock: LocalClock,
                 contract: LeaseContract, config: "NetCacheConfig",
                 trace: Optional[TraceRecorder] = None,
                 obs: Optional["Observability"] = None) -> None:
        self.sim = sim
        self.name = name
        self.upstreams = upstreams
        self.contract = contract
        self.config = config
        self.obs = obs
        self.endpoint = Endpoint(
            sim, net, name, clock, trace=trace,
            default_policy=UPSTREAM_POLICY)
        self.endpoint.obs = obs
        self.trace = self.endpoint.trace

        self._entries: Dict[CacheKey, _Entry] = {}
        self._by_server: Dict[str, Set[CacheKey]] = {u: set() for u in upstreams}
        self._by_fid: Dict[int, Set[CacheKey]] = {}
        #: per-server barrier floor raised by CACHE_INVALIDATE
        self._floor: Dict[str, int] = {}
        #: per-server flush generation; bumped by every flush so replies
        #: forwarded before the flush can never install after it
        self._gen: Dict[str, int] = {}
        #: global invalidation generation; any CACHE_INVALIDATE receipt
        #: bumps it, fencing installs of replies that raced the round
        #: (a cluster peer's invalidation must kill a stale reply from
        #: the shard's *previous* owner, whose per-server floor it
        #: cannot raise)
        self._inval_gen = 0

        self.hits = 0
        self.misses = 0
        self.installs = 0
        self.installs_rejected = 0
        self.invalidations = 0
        self.entries_dropped = 0
        self.flushes = 0

        #: one ordinary four-phase client lease per upstream server —
        #: the cache is just another lease-holding tenant of §3, and all
        #: it does with the agent's reports is flush: whatever this node
        #: learned from a server whose lease lapsed, which NACKed the
        #: lease (we may have missed invalidations) or which restarted
        #: (anything learned under the old epoch is untrustworthy).
        self.lease_agent = LeaseAgent(
            sim, self.endpoint, upstreams, contract,
            on_expired=lambda srv: self.flush_server(srv, "lease-expired"),
            on_lease_nack=lambda srv: self.flush_server(srv, "lease-nack"),
            on_epoch_change=lambda srv: self.flush_server(srv,
                                                          "epoch-change"),
            request=self._lease_request, trace=trace, obs=obs)
        self.leases = self.lease_agent.leases

        for kind in (MsgKind.LOOKUP, MsgKind.GETATTR, MsgKind.READDIR):
            self.endpoint.register(kind, self._h_read)
        self.endpoint.register(MsgKind.CACHE_INVALIDATE, self._h_invalidate)
        self.endpoint.check_handles(self.HANDLES)

        self._stale_hist: Optional["Metric"] = None
        if obs is not None:
            self._bind_obs(obs)
        self._arm_sweep()

    # -- observability -----------------------------------------------------
    def _bind_obs(self, obs: "Observability") -> None:
        reg = obs.registry
        node = self.name
        reg.gauge("netcache.hits", "Cache hits served from soft state",
                  labels=("node",)).labels(node=node).set_function(
                      lambda: self.hits)
        reg.gauge("netcache.misses", "Misses forwarded upstream",
                  labels=("node",)).labels(node=node).set_function(
                      lambda: self.misses)
        reg.gauge("netcache.invalidations", "CACHE_INVALIDATE rounds seen",
                  labels=("node",)).labels(node=node).set_function(
                      lambda: self.invalidations)
        reg.gauge("netcache.flushes", "Whole-server entry flushes",
                  labels=("node",)).labels(node=node).set_function(
                      lambda: self.flushes)
        reg.gauge("netcache.entries", "Live entries in the store",
                  labels=("node",)).labels(node=node).set_function(
                      lambda: len(self._entries))
        self._stale_hist = reg.histogram(
            "netcache.staleness_window_s",
            "Entry age at invalidation-driven drop (simulated s)",
            labels=("node",))

    def _lease_request(self, server: str, kind: str, payload: Any,
                       ) -> Generator[Event, Any, None]:
        """The lease agent's keep-alives.  A dead node sends none: the
        kernel cannot kill its lease daemons, and a request started
        while dead would retransmit after the restart."""
        if self.endpoint.alive:
            yield from self.endpoint.request(server, kind, payload)

    # -- request handling --------------------------------------------------
    def _key_for(self, msg: Message) -> Optional[CacheKey]:
        # Only path-addressed getattr is cacheable; by-file-id requests
        # forward uncached (invalidation names paths).
        path = msg.payload.path
        if not isinstance(path, str):
            return None
        return (_KEY_KINDS[msg.kind], msg.dst, path)

    def _usable(self, entry: _Entry) -> bool:
        lease = self.leases.get(entry.server)
        if lease is None or not lease.active or not lease.phase().cache_usable:
            return False
        ttl = self.config.entry_ttl
        if ttl > 0.0:
            age = self.sim.now - entry.learned_at
            if age > self.endpoint.clock.to_global_interval(ttl):
                return False
        return True

    def _h_read(self, msg: Message) -> Any:
        key = self._key_for(msg)
        if key is not None:
            entry = self._entries.get(key)
            if entry is not None and self._usable(entry):
                self.hits += 1
                trace = self.trace
                if not trace._noop:
                    trace.emit(self.sim.now, "netcache.hit", self.name,
                               key[0], key[1], key[2], entry.fingerprint)
                return ("ack", dict(entry.payload))
        return self._miss(msg, key)

    def _miss(self, msg: Message,
              key: Optional[CacheKey]) -> Generator[Event, Any, HandlerResult]:
        upstream = msg.dst
        self.misses += 1
        trace = self.trace
        if not trace._noop:
            trace.emit(self.sim.now, "netcache.miss", self.name,
                       msg.kind, upstream, msg.src)
        gen0 = self._gen.get(upstream, 0)
        inval0 = self._inval_gen
        try:
            # Forwarded under this node's name, with its own lapse
            # attestation: the server tracks generations per *sender*.
            reply = yield from self.endpoint.request(upstream, msg.kind,
                                                     msg.payload)
        except NackError as exc:
            payload = exc.nack.payload
            error = str(payload.get("error", ""))
            if "wrong_owner" in error or "map_stale" in error:
                # Shard-map epoch change: this server no longer owns the
                # shard, so everything learned from it for it is suspect.
                self.flush_server(upstream, "wrong-owner")
            return ("nack", payload)
        except DeliveryError:
            # The client's own retries will reach the server directly
            # once the router sees this node dead; an alive-but-cut-off
            # cache reports the failure as an application-level error.
            return ("nack", {"error": "upstream_unreachable",
                             "server": upstream})
        out = reply.payload
        stamp = reply.stamp
        raw_mseq = stamp[1] if stamp is not None else None
        mseq = int(raw_mseq) if raw_mseq is not None else 0
        if key is not None:
            self._maybe_install(key, msg.kind, out, upstream, mseq, gen0,
                                inval0)
        return ("ack", out)

    def _maybe_install(self, key: CacheKey, kind: str,
                       payload: Mapping[str, Any], server: str, mseq: int,
                       gen0: int, inval0: int) -> None:
        if not self.endpoint.alive:
            return
        if mseq < 0:
            # Executed while a mutation was mid-barrier at the server.
            self.installs_rejected += 1
            return
        if mseq < self._floor.get(server, 0):
            # Executed before a mutation whose invalidation already
            # passed through here.
            self.installs_rejected += 1
            return
        if gen0 != self._gen.get(server, 0):
            # A flush (crash/lease lapse/epoch change) happened while
            # this reply was in flight.
            self.installs_rejected += 1
            return
        if inval0 != self._inval_gen:
            # *Some* invalidation round landed while this reply was in
            # flight — possibly from a different server that now owns
            # the shard.  Per-server floors cannot see that; refuse.
            self.installs_rejected += 1
            return
        lease = self.leases.get(server)
        if lease is None or not lease.active or not lease.phase().cache_usable:
            return  # nothing to scope the entry's lifetime to
        file_id, fingerprint = self._fingerprint(kind, payload)
        old = self._entries.get(key)
        if old is not None:
            self._drop_keys([key], "replace", count=False)
        entry = _Entry(payload=dict(payload), server=server,
                       fingerprint=fingerprint, mseq=mseq,
                       learned_at=self.sim.now, file_id=file_id)
        self._entries[key] = entry
        self._by_server.setdefault(server, set()).add(key)
        if file_id is not None:
            self._by_fid.setdefault(file_id, set()).add(key)
        self.installs += 1

    @staticmethod
    def _fingerprint(kind: str,
                     payload: Mapping[str, Any]) -> Tuple[Optional[int], Any]:
        """(file_id, served-value fingerprint) for the stale-entry oracle."""
        if kind == MsgKind.LOOKUP:
            fid = int(payload["file_id"])
            return fid, fid
        if kind == MsgKind.GETATTR:
            fid = int(payload["file_id"])
            attrs = payload.get("attrs") or {}
            return fid, (fid, int(attrs.get("size", 0)))
        entries = payload.get("entries") or ()
        return None, tuple(entries)

    # -- invalidation ------------------------------------------------------
    def _h_invalidate(self, msg: Message) -> HandlerResult:
        body: Invalidate = msg.payload
        server = msg.src
        self.invalidations += 1
        self._inval_gen += 1
        barrier = int(body.barrier)
        if barrier > self._floor.get(server, 0):
            self._floor[server] = barrier
        # Drop the named keys under *every* upstream, not just the
        # sender: after a shard-map change the stale entry may be keyed
        # to the shard's previous owner.
        keys: List[CacheKey] = []
        for path in body.paths:
            for srv in self.upstreams:
                keys.append(("lookup", srv, path))
                keys.append(("attrs", srv, path))
        for dirname in body.dirs:
            for srv in self.upstreams:
                keys.append(("readdir", srv, dirname))
        for fid in body.file_ids:
            # Sorted: set order is hash-seed dependent and the drops are
            # trace-visible, which would break replay determinism.
            keys.extend(sorted(self._by_fid.get(int(fid), ())))
        self._drop_keys(keys, "invalidate")
        return ("ack", {})

    def _drop_keys(self, keys: List[CacheKey], reason: str,
                   count: bool = True) -> None:
        entries = self._entries
        for key in list(keys):
            entry = entries.pop(key, None)
            if entry is None:
                continue
            srv_keys = self._by_server.get(entry.server)
            if srv_keys is not None:
                srv_keys.discard(key)
            if entry.file_id is not None:
                fid_keys = self._by_fid.get(entry.file_id)
                if fid_keys is not None:
                    fid_keys.discard(key)
                    if not fid_keys:
                        del self._by_fid[entry.file_id]
            if count:
                self.entries_dropped += 1
                if self._stale_hist is not None:
                    self._stale_hist.labels(node=self.name).observe(
                        self.sim.now - entry.learned_at)
                trace = self.trace
                if not trace._noop:
                    trace.emit(self.sim.now, "netcache.drop", self.name,
                               key[0], key[1], key[2], reason)

    def flush_server(self, server: str, reason: str) -> None:
        """Drop every entry learned from ``server`` and fence in-flight
        installs for it (generation bump)."""
        self._gen[server] = self._gen.get(server, 0) + 1
        # Sorted for replay determinism: the per-entry drop events are
        # trace-visible and set order varies with the process hash seed.
        keys = sorted(self._by_server.get(server, ()))
        if keys:
            self._drop_keys(keys, reason)
        self.flushes += 1
        trace = self.trace
        if not trace._noop:
            trace.emit(self.sim.now, "netcache.flush", self.name,
                       server, reason, len(keys))

    def flush_all(self, reason: str = "flush") -> None:
        """Administrative full flush (fault-injection step)."""
        for server in self.upstreams:
            self.flush_server(server, reason)

    # -- lease-lapse sweep -------------------------------------------------
    def _arm_sweep(self) -> None:
        """Arm the one kernel timeout of the periodic lease-lapse sweep."""
        when = self.sim.now + self.endpoint.clock.to_global_interval(
            SWEEP_INTERVAL)
        # The delay is taken back from the absolute deadline, not passed
        # as the interval: ``now + (when - now)`` can differ from ``when``
        # in the last bit, and the pinned traces fire on the former.
        Timeout(self.sim, when - self.sim.now)._add_callback(self._sweep)

    def _sweep(self, _event: Event) -> None:
        if self.endpoint.alive and self._entries:
            dead = [key for key, entry in self._entries.items()
                    if not self._usable(entry)]
            if dead:
                self._drop_keys(dead, "sweep")
        self._arm_sweep()

    # -- fault-injection surface -------------------------------------------
    def crash(self) -> None:
        """Kill the node: transport state and the entry store both die.

        In-flight installs are fenced by the generation bump, so a reply
        forwarded before the crash can never populate the store after a
        restart.
        """
        for server in self.upstreams:
            self._gen[server] = self._gen.get(server, 0) + 1
        self.endpoint.crash()
        self._entries.clear()
        self._by_fid.clear()
        for keys in self._by_server.values():
            keys.clear()
        self._floor.clear()
        trace = self.trace
        if not trace._noop:
            trace.emit(self.sim.now, "netcache.crash", self.name)

    def restart(self) -> None:
        """Resume service with an empty (cold) store."""
        self.endpoint.restart()
        trace = self.trace
        if not trace._noop:
            trace.emit(self.sim.now, "netcache.restart", self.name)

    # -- inspection --------------------------------------------------------
    @property
    def entry_count(self) -> int:
        """Live entries in the store."""
        return len(self._entries)

    def hit_rate(self) -> float:
        """Hits over handled read requests (0.0 when idle)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def install_cache_router(net: ControlNetwork,
                         caches: Mapping[str, MetadataCacheNode],
                         upstreams: Tuple[str, ...]) -> None:
    """Attach the route-through-cache mode for a built cache tier.

    Client-originated cacheable reads addressed to a server are handed
    to the client's assigned cache node (stable hash of the client
    name → per-rack assignment).  The router returns None — falling
    back to direct delivery — for non-cacheable kinds, for traffic from
    servers or cache nodes themselves, and whenever the assigned cache
    is dead (crash degrades to forwarding).
    """
    ordered = [caches[name] for name in sorted(caches)]
    n = len(ordered)
    if n == 0:
        raise ValueError("install_cache_router needs at least one cache node")
    upstream_set = frozenset(upstreams)
    not_clients = upstream_set | frozenset(caches)
    cacheable = CACHEABLE_KINDS
    assignment: Dict[str, MetadataCacheNode] = {}

    def route(msg: Message) -> Optional[Endpoint]:
        if (msg.kind not in cacheable or msg.dst not in upstream_set
                or msg.src in not_clients):
            return None
        node = assignment.get(msg.src)
        if node is None:
            node = ordered[_stable_hash(msg.src) % n]
            assignment[msg.src] = node
        if not node.endpoint.alive:
            return None
        return node.endpoint

    net.set_cache_router(route)
