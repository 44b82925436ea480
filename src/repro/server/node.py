"""The Storage Tank server node.

Wires together the metadata store, the lock manager and a pluggable
*safety authority* (the lease authority by default) behind a control
network endpoint.  All transactions are small and synchronous except
lock acquisition, which may demand locks back from other clients and
therefore runs as a deferred handler.

The server never touches file data: clients get extent maps and do
their own SAN I/O (paper §1.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, Set, Tuple

from repro.cluster.takeover import SlotOwnershipError
from repro.lease.contract import LeaseContract
from repro.lease.server_lease import ServerLeaseAuthority
from repro.locks.manager import GrantPolicy, LockManager, grant_policy
from repro.locks.modes import LockMode, compatible
from repro.locks.ranges import ByteRange, RangeLockManager
from repro.metadata.directory import NamespaceError
from repro.metadata.inode import Inode
from repro.metadata.store import MetadataStore
from repro.net.control import ControlNetwork, Endpoint, RetryPolicy
from repro.net.message import DeliveryError, Message, MsgKind, NackError
from repro.net.san import SanFabric
from repro.obs import Observability
from repro.server.recovery import RecoveryManager
from repro.sim.clock import LocalClock
from repro.sim.events import Event
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceRecorder
from repro.storage.blockmap import extents_to_payload


def _settled(result: Any) -> Generator[Event, Any, Tuple[str, Dict[str, Any]]]:
    """Resolve a transaction body's result: a reply tuple, or a
    generator of one (netcache barrier) to drive first."""
    if not isinstance(result, tuple):
        result = yield from result
    return result


@dataclass
class ServerConfig:
    """Server tunables."""

    fence_on_steal: bool = True       # construct a fence when stealing (§6)
    fence_scope: str = "device"       # "device" | "fabric"
    demand_patience: float = 2.0      # local secs to await a demanded release
    demand_timeout: float = 1.0       # per-datagram timeout for demands
    demand_retries: int = 3
    # §6 containment: a holder that keeps ACKing demands without ever
    # releasing is treated as failed after this many patience rounds
    # (suspect -> resolution -> steal+fence).  0 disables escalation.
    demand_escalate_rounds: int = 6
    # When the pump re-grants a freed lock, demand it from the *new*
    # holder on behalf of the waiters still queued (clients cache locks
    # until demanded, so without this the rest of the queue can starve
    # behind a holder that never releases).  Off by default to preserve
    # replay of the blessed fail-stop corpus; the simtest runner turns
    # it on for adversarial schedules, where a Byzantine holder makes
    # the starvation unbounded.
    demand_chain: bool = False
    # Local secs reassertions win over fresh locks after a restart.
    # build_system derives this from the lease contract (tau(1+eps)) so
    # the window out-waits every pre-crash lease; the bare default here
    # is only for directly-constructed servers in unit tests.
    recovery_grace: float = 5.0
    # Which GrantPolicy shapes byte-range grants (see repro.locks.manager):
    # "as-asked" | "batch-adjacent" | "widen-to-extent".
    grant_policy: str = "widen-to-extent"


class StorageTankServer:
    """One metadata/lock server."""

    def __init__(self, sim: Simulator, net: ControlNetwork, san: SanFabric,
                 name: str, clock: LocalClock, contract: LeaseContract,
                 config: Optional[ServerConfig] = None,
                 trace: Optional[TraceRecorder] = None,
                 authority_factory: Optional[Callable[["StorageTankServer"], Any]] = None,
                 id_base: int = 0,
                 alloc_share: Tuple[int, int] = (0, 1),
                 obs: Optional[Observability] = None):
        """``id_base`` makes this server's file ids globally unique and
        ``alloc_share = (index, total)`` gives it a disjoint slice of
        every shared disk's block space (multi-server clusters)."""
        self.sim = sim
        self.san = san
        self.name = name
        self.contract = contract
        self.config = config or ServerConfig()
        self.trace = trace if trace is not None else net.trace
        self.obs = obs if obs is not None else Observability()

        self.endpoint = Endpoint(
            sim, net, name, clock, trace=self.trace,
            default_policy=RetryPolicy(timeout=self.config.demand_timeout,
                                       retries=self.config.demand_retries))
        self.endpoint.obs = self.obs
        san.attach_initiator(name)
        self.metadata = MetadataStore(id_base=id_base)
        share_idx, share_total = alloc_share
        for dev_name, disk in san.devices.items():
            slice_blocks = disk.n_blocks // share_total
            self.metadata.allocator.add_device(
                dev_name, slice_blocks, base_lba=share_idx * slice_blocks)
        self.locks = LockManager(now_fn=lambda: sim.now)
        # Byte-range locks for sub-file sharing (acquire→I/O→release;
        # clients do not cache these, so no demand machinery is needed —
        # waiters simply queue until the holder releases or is stolen from).
        self.range_locks = RangeLockManager(now_fn=lambda: sim.now)

        self.locks.bind_obs(self.obs, name)

        if authority_factory is None:
            authority_factory = lambda srv: ServerLeaseAuthority(
                srv.sim, srv.endpoint, srv.contract,
                on_steal=srv.steal_client, trace=srv.trace, obs=srv.obs)
        self.authority = authority_factory(self)

        self.grant_policy: GrantPolicy = grant_policy(self.config.grant_policy)
        self.intent_ops = 0          # sub-operations executed under intents

        self.recovery = RecoveryManager(self, grace=self.config.recovery_grace)
        self.endpoint.reply_stamp = self._stamp
        # Cluster shard role (ownership gating / takeover); attached by
        # build_system when the installation runs with cluster membership.
        self.cluster = None
        self.transactions = 0
        self.data_bytes_served = 0   # file data moved through this server (E1)
        self.closes_by_file: Dict[int, int] = {}  # per-file close census
        self._fenced: Set[str] = set()
        self._active_demands: Set[Tuple[str, int, LockMode]] = set()
        # §6 attested rejoin: highest lease-lapse generation each client
        # has attested (``__lapse_gen__`` request stamp), and the value
        # snapshotted when the client was fenced.  A fence lifts only
        # after the client attests a *newer* lapse — proof it observed
        # its lease expire and discarded stale cache and locks.  A
        # possessed client that never runs its expiry path never attests
        # and stays fenced.
        self._lapse_seen: Dict[str, int] = {}
        self._lapse_at_fence: Dict[str, int] = {}
        self.rejected_releases = 0   # RELEASE/DOWNGRADE from a non-holder
        self.rejected_reasserts = 0  # REASSERT refused (fenced/theft evidence)

        # In-network metadata cache tier (repro.netcache).  Empty by
        # default: the barrier machinery then adds zero branches to the
        # mutation handlers and zero payload keys to replies, keeping
        # golden traces bit-identical.  ``_cache_mseq`` counts claimed
        # mutation barriers; ``_cache_pending`` holds barriers claimed
        # but not yet applied — replies executed while it is non-empty
        # are stamped uninstallable (__mseq__ = -1).
        self._cache_nodes: Tuple[str, ...] = ()
        self._cache_set: frozenset = frozenset()
        self._cache_mseq = 0
        self._cache_pending: Set[int] = set()

        # The server's full transaction surface.  RPL006 checks these
        # registrations against the KIND_GROUPS partition: adding a kind
        # to a declared group without a handler fails static analysis.
        # repro-lint: handles[fs-core, locking, intent, lease-null, data-ship, cluster-owner]
        self._register(MsgKind.CREATE, self._h_create)
        self._register(MsgKind.OPEN, self._h_open)
        self._register(MsgKind.GETATTR, self._h_getattr)
        self._register(MsgKind.SETATTR, self._h_setattr)
        self._register(MsgKind.LOOKUP, self._h_lookup)
        self._register(MsgKind.UNLINK, self._h_unlink)
        self._register(MsgKind.READDIR, self._h_readdir)
        self._register(MsgKind.LOCK_ACQUIRE, self._h_lock_acquire)
        self._register(MsgKind.LOCK_RELEASE, self._h_lock_release)
        self._register(MsgKind.LOCK_DOWNGRADE, self._h_lock_downgrade)
        self._register(MsgKind.LOCK_INTENT, self._h_lock_intent)
        self._register(MsgKind.LOCK_BATCH, self._h_lock_batch)
        self._register(MsgKind.KEEPALIVE, self._h_keepalive)
        self._register(MsgKind.DATA_READ, self._h_data_read)
        self._register(MsgKind.DATA_WRITE, self._h_data_write)

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def attach_cluster(self, role: Any) -> None:
        """Install the shard role and its control-plane handlers.

        The cluster kinds register on the raw endpoint (not through
        ``_register``): coordinator traffic is not a client transaction —
        it must bypass the ownership gate and the transaction counter."""
        self.cluster = role
        self.endpoint.register(MsgKind.CLUSTER_PING, role.h_ping)
        self.endpoint.register(MsgKind.CLUSTER_MAP_UPDATE, role.h_map_update)
        self.endpoint.register(MsgKind.CLUSTER_RELEASE, role.h_release)

    def attach_cache_nodes(self, names: Tuple[str, ...]) -> None:
        """Enroll the netcache tier: replies to these nodes carry a
        mutation watermark and metadata mutations run the
        invalidate-before-apply barrier against them."""
        self._cache_nodes = tuple(names)
        self._cache_set = frozenset(names)

    def _register(self, kind: str, fn: Callable[[Message], Any]) -> None:
        def wrapped(msg: Message):
            if self.cluster is not None:
                refusal = self.cluster.gate(msg)
                if refusal is not None:
                    # WRONG_OWNER / map-stale NACK: a routing refusal,
                    # not a transaction (and never a lease NACK).
                    return refusal
            self.transactions += 1
            gen = msg.payload.get("__lapse_gen__")
            if gen is not None and int(gen) > self._lapse_seen.get(msg.src, 0):
                self._lapse_seen[msg.src] = int(gen)
            if (msg.src in self._fenced
                    and not self.authority.is_suspect(msg.src)
                    and self._attested_since_fence(msg.src)):
                # A stolen client is back in contact *and* has attested a
                # lease lapse newer than the fence: it observed the expiry,
                # ran the §3.2 cleanup and dropped its stale cache, so it
                # is safe to re-admit to the SAN.  Without the attestation
                # the fence stays up (§6): an incarnation that never saw
                # its lease die may still hold — and write — stale data.
                self.unfence_client(msg.src)
            return fn(msg)

        self.endpoint.register(kind, wrapped)

    def _stamp(self, msg: Message) -> Dict[str, Any]:
        """What every ACK this server decides carries (the endpoint's
        ``reply_stamp``), however its handler was registered —
        ``CLUSTER_*`` and ``LOCK_REASSERT`` included.

        ``__epoch__`` lets clients detect a restart and reassert their
        locks (§6).  An ACK to a cache node adds the mutation watermark
        ``__mseq__``, taken when the decision is produced (for the
        cacheable read kinds, their execution instant); ``-1`` while a
        mutation barrier is pending marks the reply uninstallable: the
        value may predate a mutation whose invalidation the cache has
        already processed."""
        stamp = {"__epoch__": self.recovery.epoch}
        if msg.src in self._cache_set:
            stamp["__mseq__"] = -1 if self._cache_pending else self._cache_mseq
        return stamp

    # ------------------------------------------------------------------
    # netcache coherence barrier
    # ------------------------------------------------------------------
    @staticmethod
    def _ancestor_dirs(path: str) -> List[str]:
        """Every directory whose listing names ``path`` or a prefix of
        it, root included — the namespace has implicit directories, so a
        create/unlink can change any ancestor's readdir answer."""
        dirs: List[str] = []
        p = path.rsplit("/", 1)[0]
        while True:
            dirs.append(p or "/")
            if not p or p == "/":
                break
            p = p.rsplit("/", 1)[0]
        return dirs

    def _claim_barrier(self) -> int:
        """Claim the next mutation barrier (reads stamp -1 until release)."""
        self._cache_mseq += 1
        barrier = self._cache_mseq
        self._cache_pending.add(barrier)
        return barrier

    def _invalidate_caches(self, barrier: int, payload: Dict[str, Any],
                           ) -> Generator[Event, Any, None]:
        """Push one invalidation round to every cache node and wait.

        A cache that ACKs has dropped the named entries and raised its
        barrier floor.  A cache that cannot be reached is handled by the
        lease machinery: the delivery failure marked it suspect, so we
        wait for the authority's resolution (the τ(1+ε) suspect timer of
        Theorem 3.1) — after which the cache's own clock has expired the
        covering lease and its entries are unusable.  Only then may the
        mutation apply."""
        body = dict(payload)
        body["barrier"] = barrier
        for cname in self._cache_nodes:
            try:
                yield from self.endpoint.request(
                    cname, MsgKind.CACHE_INVALIDATE, dict(body))
            except NackError:
                pass  # cache refused: it holds nothing it will serve
            except DeliveryError:
                res = self.authority.resolution(cname)
                if res is not None:
                    yield res
                else:
                    yield self.endpoint.local_timeout(
                        self.contract.server_wait_local())

    def _trace_mutate(self, op: str, **fields: Any) -> None:
        """Record a namespace mutation at apply time (cache tier only):
        the authoritative timeline the stale-entry oracle replays."""
        trace = self.trace
        if not trace._noop:
            trace.emit(self.sim.now, "meta.mutate", self.name, op=op,
                       **fields)

    def local_now(self) -> float:
        """Server local-clock reading."""
        return self.endpoint.local_now()

    def crash(self) -> None:
        """Fail the server (volatile lock state lost, metadata kept)."""
        self.recovery.crash()

    def restart(self) -> None:
        """Recover with a new epoch; clients will reassert locks."""
        self.recovery.restart()
        if self.cluster is not None:
            # The pre-crash shard map is stale: serve nothing until the
            # coordinator's next map update says what we own.
            self.cluster.on_restart()

    def _meta_for_path(self, path: str) -> MetadataStore:
        """The store serving a path (home-owner's store under a cluster)."""
        if self.cluster is not None:
            return self.cluster.store_for_path(path)
        return self.metadata

    def _meta_for_file(self, file_id: int) -> MetadataStore:
        """The store serving a file id (decoded from its id base)."""
        if self.cluster is not None:
            return self.cluster.store_for_file(file_id)
        return self.metadata

    # ------------------------------------------------------------------
    # steal & fence
    # ------------------------------------------------------------------
    def steal_client(self, client: str) -> None:
        """Stop honoring every lock the client holds (authority callback)."""
        if self.config.fence_on_steal:
            self.fence_client(client)
        # The resolution declares the client's old incarnation dead: its
        # replay-cached results must not answer a restarted incarnation
        # that reuses sequence numbers (stale grants served verbatim).
        self.endpoint.forget_peer(client)
        stolen = self.locks.steal_all(client)
        stolen_ranges = self.range_locks.steal_all(client)
        self.trace.emit(self.sim.now, "server.steal", self.name,
                        client=client,
                        n_locks=len(stolen) + len(stolen_ranges))

    def _attested_since_fence(self, client: str) -> bool:
        """Whether the client attested a lease lapse newer than its fence."""
        return (self._lapse_seen.get(client, 0)
                > self._lapse_at_fence.get(client, 0))

    def fence_client(self, client: str) -> None:
        """Construct a fence between the client and shared storage (§6)."""
        if client in self._fenced:
            return
        self._fenced.add(client)
        self._lapse_at_fence[client] = self._lapse_seen.get(client, 0)
        if self.config.fence_scope == "fabric":
            self.san.fence_at_fabric(client)
        else:
            for disk in self.san.devices.values():
                disk.fence_table.fence(client, self.sim.now)
        self.trace.emit(self.sim.now, "server.fence", self.name, client=client,
                        scope=self.config.fence_scope)

    def unfence_client(self, client: str) -> None:
        """Lift a previously constructed fence."""
        if client not in self._fenced:
            return
        self._fenced.discard(client)
        if self.config.fence_scope == "fabric":
            self.san.unfence_at_fabric(client)
        else:
            for disk in self.san.devices.values():
                disk.fence_table.unfence(client, self.sim.now)
        self.trace.emit(self.sim.now, "server.unfence", self.name, client=client)

    @property
    def fenced_clients(self) -> Set[str]:
        """Clients currently fenced by this server."""
        return set(self._fenced)

    # ------------------------------------------------------------------
    # lock granting with demand/revocation
    # ------------------------------------------------------------------
    def _grant_lock(self, client: str, obj: int, mode: LockMode,
                    ) -> Generator[Event, Any, LockMode]:
        waiter = self.recovery.defer_if_recovering()
        if waiter is not None:
            # Post-restart grace: reassertions claim their objects first.
            yield self.sim.process(waiter)
        if self.cluster is not None:
            cw = self.cluster.defer_fresh(obj)
            if cw is not None:
                # Takeover in progress on this object's slot: fresh
                # acquisitions wait out the displaced-lease horizon and
                # the reassertion grace window.
                yield self.sim.process(cw)
            if not self.cluster.owns_obj(obj):
                # The slot moved away while we were parked (failback
                # racing a deferred grant): refuse, client re-routes.
                raise SlotOwnershipError("wrong_owner")
        granted, conflicts = self.locks.try_acquire(client, obj, mode)
        if granted:
            return mode
        wait_ev = self.sim.event()
        self.locks.enqueue_waiter(
            client, obj, mode,
            lambda o, m, ev=wait_ev: ev.succeed((o, m)) if not ev.triggered else None)
        for holder, _held in conflicts:
            self._spawn_demand(holder, obj, mode)
        yield wait_ev
        if self.config.demand_chain:
            # The pump granted us the lock, making *us* the holder the
            # rest of the queue conflicts with.  Clients cache locks
            # until demanded, so without a demand against the new holder
            # every remaining waiter would starve behind our (lazily
            # kept) grant.
            for _waiter, wmode in self.locks.waiting(obj):
                if not compatible(mode, wmode):
                    self._spawn_demand(client, obj, wmode)
        return mode

    def _lock_activity(self, holder: str, obj: int) -> float:
        """Time of the latest lock-history record for (holder, obj).

        The demand loop uses this to tell a complying-but-contended
        holder (its record moves: release, re-grant, downgrade) from a
        wedged or protocol-violating one (record frozen across rounds).
        """
        latest = -1.0
        for rec in self.locks.history:
            if rec.client == holder and rec.obj == obj:
                latest = rec.time
        return latest

    def _spawn_demand(self, holder: str, obj: int, needed: LockMode) -> None:
        key = (holder, obj, needed)
        if key in self._active_demands:
            return
        self._active_demands.add(key)
        self.sim.process(self._demand_loop(holder, obj, needed),
                         name=f"{self.name}:demand:{holder}:{obj}")

    def _demand_loop(self, holder: str, obj: int, needed: LockMode,
                     ) -> Generator[Event, Any, None]:
        """Demand a lock back until the holder yields or is stolen from.

        A holder that keeps acknowledging demands without ever releasing
        gets ``demand_escalate_rounds`` patience rounds, then is marked
        suspect: the ACKs prove the computer is reachable, so the only
        remaining explanations are a wedged client or one that fails to
        respect the protocol — either way the §6 backstop (resolution,
        steal, fence) is the way forward, and honest waiters stop
        starving behind it.
        """
        acked_rounds = 0
        try:
            while True:
                held = self.locks.mode_of(holder, obj)
                if held == LockMode.NONE or compatible(held, needed):
                    return
                if self.authority.is_suspect(holder):
                    res = self.authority.resolution(holder)
                    if res is not None:
                        yield res
                    else:
                        # Suspect but no steal scheduled yet (e.g. a
                        # heartbeat authority between expiry and its next
                        # scan): poll instead of spinning.
                        yield self.endpoint.local_timeout(
                            min(self.config.demand_patience, 0.5))
                    continue
                try:
                    yield from self.endpoint.request(
                        holder, MsgKind.LOCK_DEMAND,
                        {"file_id": obj, "needed_mode": int(needed)})
                except DeliveryError:
                    # The endpoint hook already told the authority; wait for
                    # the steal (or for an immediate-steal baseline, which
                    # resolves synchronously).
                    res = self.authority.resolution(holder)
                    if res is not None:
                        yield res
                    continue
                except NackError:
                    return
                # Holder acknowledged; give it time to flush and release.
                activity0 = self._lock_activity(holder, obj)
                yield self.endpoint.local_timeout(self.config.demand_patience)
                if self._lock_activity(holder, obj) != activity0:
                    # The holder's lock record moved (release, downgrade,
                    # re-grant under contention): it IS complying with
                    # the protocol, so the stuck-holder clock restarts.
                    acked_rounds = 0
                    continue
                acked_rounds += 1
                rounds = self.config.demand_escalate_rounds
                if (rounds > 0 and acked_rounds >= rounds
                        and not self.authority.is_suspect(holder)):
                    mark = getattr(self.authority, "mark_suspect", None)
                    if mark is not None:
                        self.trace.emit(self.sim.now, "server.demand_escalate",
                                        self.name, client=holder, obj=obj,
                                        rounds=acked_rounds)
                        mark(holder)
        finally:
            self._active_demands.discard((holder, obj, needed))

    # ------------------------------------------------------------------
    # transaction handlers
    # ------------------------------------------------------------------
    def _h_create(self, msg: Message):
        return self._create(msg.payload["path"],
                            int(msg.payload.get("size", 0)))

    def _create(self, path: str, size: int):
        """CREATE body (also the create intent's): a reply tuple, or a
        generator of one when the netcache barrier must run first."""
        store = self._meta_for_path(path)
        if store.exists(path):
            return ("nack", {"error": "exists"})
        if self._cache_nodes:
            return self._create_with_barrier(path, size, store)
        ino = store.create_file(path, size, now=self.sim.now)
        if self.cluster is not None:
            self.cluster.note_create(ino.file_id, path)
        return ("ack", {"file_id": ino.file_id, **self._meta_reply(ino)})

    def _create_with_barrier(self, path: str, size: int,
                             store: MetadataStore,
                             ) -> Generator[Event, Any, Tuple[str, Dict[str, Any]]]:
        barrier = self._claim_barrier()
        try:
            yield from self._invalidate_caches(
                barrier, {"paths": [path],
                          "dirs": self._ancestor_dirs(path)})
            if store.exists(path):
                # Raced another create while the barrier ran.
                return ("nack", {"error": "exists"})
            ino = store.create_file(path, size, now=self.sim.now)
            if self.cluster is not None:
                self.cluster.note_create(ino.file_id, path)
            self._trace_mutate("create", path=path, file_id=ino.file_id,
                               size=ino.attrs.size)
            return ("ack", {"file_id": ino.file_id, **self._meta_reply(ino)})
        finally:
            self._cache_pending.discard(barrier)

    def _h_open(self, msg: Message):
        """NFS-style open: no coherence lock, the caller polls
        attributes.  Locking opens are ``open`` intents."""
        if not msg.payload.get("nolock"):
            return ("nack", {"error": "open: a locking open is a LOCK_INTENT"})
        path = msg.payload["path"]
        try:
            ino = self._meta_for_path(path).lookup(path)
        except NamespaceError as exc:
            return ("nack", {"error": str(exc)})
        return ("ack", {"file_id": ino.file_id,
                        **self._meta_reply(ino, msg.payload.get("have_layout")),
                        "lock": int(LockMode.NONE)})

    @staticmethod
    def _meta_reply(ino: Inode, have: Any = None) -> Dict[str, Any]:
        """The ``attrs`` and layout fields of every reply that returns a
        file's metadata: the one place a block map goes on the wire.

        ``have`` is the requester's ``have_layout`` hint ``(file_id,
        layout_gen, n_extents)``, the map it already holds.  When that
        map provably is a prefix of the current one (same file, same
        append-only lineage, not longer) the reply carries only the runs
        past it, ``extents_from = n_extents``; in every other case all
        of them, ``extents_from = 0``.  The hint is untrusted input
        (DESIGN §17): anything but three plain ints naming this inode's
        current lineage gets the full list, never an exception.
        """
        layout = ino.extents
        start = 0
        if type(have) in (tuple, list) and len(have) == 3:
            fid, gen, count = have
            if (type(fid) is int and type(gen) is int and type(count) is int
                    and fid == ino.file_id and gen == layout.layout_gen
                    and 0 <= count <= len(layout.extents)):
                start = count
        return {"attrs": ino.attrs.to_payload(),
                "layout_gen": layout.layout_gen, "extents_from": start,
                "extents": extents_to_payload(layout, start)}

    def _h_getattr(self, msg: Message):
        return self._getattr(msg.payload.get("path"),
                             msg.payload.get("file_id"))

    def _getattr(self, path: Optional[str], file_id: Optional[Any]):
        """GETATTR body (also the getattr intent's), by path or id."""
        try:
            if path is not None:
                ino = self._meta_for_path(path).lookup(path)
            elif file_id is not None:
                ino = self._meta_for_file(int(file_id)).inode(int(file_id))
            else:
                return ("nack", {"error": "getattr: no path or file_id"})
        except (NamespaceError, KeyError) as exc:
            return ("nack", {"error": str(exc)})
        return ("ack", {"file_id": ino.file_id, "attrs": ino.attrs.to_payload()})

    def _h_setattr(self, msg: Message):
        return self._setattr(int(msg.payload["file_id"]),
                             msg.payload.get("size"), msg.payload.get("mode"),
                             msg.payload.get("have_layout"))

    def _setattr(self, file_id: int, size: Any, mode: Any, have: Any = None):
        """SETATTR body (also the setattr intent's): a reply tuple, or a
        generator of one when the netcache barrier must run first."""
        store = self._meta_for_file(file_id)
        if self._cache_nodes:
            return self._setattr_with_barrier(file_id, size, mode, have,
                                              store)
        try:
            if size is not None:
                ino = store.ensure_size(file_id, int(size), now=self.sim.now)
            else:
                ino = store.set_attrs(file_id, now=self.sim.now, mode=mode)
        except NamespaceError as exc:
            return ("nack", {"error": str(exc)})
        return ("ack", self._meta_reply(ino, have))

    def _setattr_with_barrier(self, file_id: int, size: Any, mode: Any,
                              have: Any, store: MetadataStore,
                              ) -> Generator[Event, Any, Tuple[str, Dict[str, Any]]]:
        barrier = self._claim_barrier()
        try:
            yield from self._invalidate_caches(barrier,
                                               {"file_ids": [file_id]})
            try:
                if size is not None:
                    ino = store.ensure_size(file_id, int(size),
                                            now=self.sim.now)
                else:
                    ino = store.set_attrs(file_id, now=self.sim.now,
                                          mode=mode)
            except NamespaceError as exc:
                return ("nack", {"error": str(exc)})
            self._trace_mutate("setattr", file_id=file_id,
                               size=ino.attrs.size)
            return ("ack", self._meta_reply(ino, have))
        finally:
            self._cache_pending.discard(barrier)

    def _h_lookup(self, msg: Message):
        try:
            path = msg.payload["path"]
            ino = self._meta_for_path(path).lookup(path)
        except NamespaceError as exc:
            return ("nack", {"error": str(exc)})
        return ("ack", {"file_id": ino.file_id})

    def _h_unlink(self, msg: Message):
        """Remove a file.  The caller must first win an EXCLUSIVE lock
        (demanding it from cachers), so no one holds stale pages when the
        extents are freed; the lock dies with the file."""
        path = msg.payload["path"]
        store = self._meta_for_path(path)
        try:
            ino = store.lookup(path)
        except NamespaceError as exc:
            return ("nack", {"error": str(exc)})
        fid = ino.file_id

        def run() -> Generator[Event, Any, Tuple[str, Dict[str, Any]]]:
            yield from self._grant_lock(msg.src, fid, LockMode.EXCLUSIVE)
            barrier = 0
            if self._cache_nodes:
                barrier = self._claim_barrier()
            try:
                if barrier:
                    yield from self._invalidate_caches(
                        barrier, {"paths": [path], "file_ids": [fid],
                                  "dirs": self._ancestor_dirs(path)})
                try:
                    store.unlink(path)
                except NamespaceError as exc:
                    self.locks.release(msg.src, fid)
                    return ("nack", {"error": str(exc)})
                if barrier:
                    self._trace_mutate("unlink", path=path, file_id=fid)
            finally:
                if barrier:
                    self._cache_pending.discard(barrier)
            self.locks.release(msg.src, fid)
            return ("ack", {"file_id": fid})
        return run()

    def _h_readdir(self, msg: Message):
        """List the entries directly under a directory prefix.

        Under a cluster only the slots this server *owns* are listed
        (clients fan readdir out to every map owner and merge), so a
        mid-handoff slot appears in exactly one server's answer."""
        path = msg.payload.get("path", "/")
        if self.cluster is not None:
            try:
                return ("ack", {"entries": self.cluster.list_entries(path)})
            except NamespaceError as exc:
                return ("nack", {"error": str(exc)})
        try:
            entries = self.metadata.namespace.listdir(path)
        except NamespaceError as exc:
            return ("nack", {"error": str(exc)})
        return ("ack", {"entries": entries})

    def _h_lock_acquire(self, msg: Message):
        file_id = int(msg.payload["file_id"])
        mode = LockMode(int(msg.payload["mode"]))

        def run() -> Generator[Event, Any, Tuple[str, Dict[str, Any]]]:
            granted = yield from self._grant_lock(msg.src, file_id, mode)
            try:
                extra = self._meta_reply(
                    self._meta_for_file(file_id).inode(file_id),
                    msg.payload.get("have_layout"))
            except NamespaceError:
                extra = {}
            return ("ack", {"mode": int(granted), **extra})
        return run()

    def _h_lock_release(self, msg: Message):
        # ``msg.src`` is validated against lock ownership: a release can
        # only ever drop *the sender's own* holding.  A release naming an
        # object the sender does not hold — a replayed pre-steal release,
        # or one raced by a steal — is a counted no-op, never a way to
        # forfeit another holder's lock.  Still ACKed: release is
        # idempotent, and the §6 resolution already voided the holding.
        fid = int(msg.payload["file_id"])
        if self.locks.mode_of(msg.src, fid) == LockMode.NONE:
            self.rejected_releases += 1
            return ("ack", {"status": "not_holder"})
        self.locks.release(msg.src, fid)
        return ("ack", {})

    def _h_lock_downgrade(self, msg: Message):
        # Same ownership validation as release (see above).
        fid = int(msg.payload["file_id"])
        if self.locks.mode_of(msg.src, fid) == LockMode.NONE:
            self.rejected_releases += 1
            return ("ack", {"status": "not_holder"})
        self.locks.downgrade(msg.src, fid, LockMode(int(msg.payload["to"])))
        return ("ack", {})

    # ------------------------------------------------------------------
    # intent locking (Lustre DLM style)
    # ------------------------------------------------------------------
    def _file_size(self, file_id: int) -> int:
        """Current size of a file, 0 if unknown (widen-policy input)."""
        try:
            return int(self._meta_for_file(file_id).inode(file_id).attrs.size)
        except (NamespaceError, KeyError):
            return 0

    def _intent_exec(self, client: str, body: Dict[str, Any],
                     ) -> Generator[Event, Any, Tuple[str, Dict[str, Any]]]:
        """Execute one intent sub-operation (any but ``range_acquire``,
        which ``_run_intents`` coalesces) under the lock it grants.

        This is the server half of the one-round-trip contract: the
        request names the operation, the server wins the covering lock
        (demanding it from conflicting holders) and performs the
        operation while still holding it, so the reply carries
        op-result *and* grant together.
        """
        op = body.get("op")
        self.intent_ops += 1
        if op == "open":
            path = body["path"]
            mode = body.get("mode", "r")
            try:
                ino = self._meta_for_path(path).lookup(path)
            except NamespaceError as exc:
                return ("nack", {"error": str(exc)})
            wanted = (LockMode.EXCLUSIVE if mode == "w" else LockMode.SHARED)
            granted = yield from self._grant_lock(client, ino.file_id, wanted)
            return ("ack", {"file_id": ino.file_id,
                            **self._meta_reply(ino, body.get("have_layout")),
                            "lock": int(granted)})
        if op == "create":
            decision, payload = yield from _settled(
                self._create(body["path"], int(body.get("size", 0))))
            if decision == "ack":
                granted = yield from self._grant_lock(
                    client, int(payload["file_id"]), LockMode.EXCLUSIVE)
                payload = {**payload, "lock": int(granted)}
            return (decision, payload)
        if op == "getattr":
            decision, payload = self._getattr(body.get("path"),
                                              body.get("file_id"))
            if decision == "ack":
                fid = int(payload["file_id"])
                granted = yield from self._grant_lock(client, fid,
                                                      LockMode.SHARED)
                # Re-read under the lock: the wait may have outlasted a
                # writer's setattr.
                decision, payload = self._getattr(None, fid)
                if decision == "ack":
                    payload = {**payload, "lock": int(granted)}
            return (decision, payload)
        if op == "setattr":
            file_id = int(body["file_id"])
            granted = yield from self._grant_lock(client, file_id,
                                                  LockMode.EXCLUSIVE)
            decision, payload = yield from _settled(
                self._setattr(file_id, body.get("size"), body.get("mode"),
                              body.get("have_layout")))
            if decision == "ack":
                payload = {**payload, "lock": int(granted)}
            return (decision, payload)
        if op == "range_release":
            file_id = int(body["file_id"])
            rng = None
            if "start" in body:
                rng = ByteRange(int(body["start"]), int(body["end"]))
            self.range_locks.release(client, file_id, rng)
            return ("ack", {})
        if op == "close":
            # Locks are cached past close (§3.1); closing is bookkeeping
            # only: the per-file close census the client reports, so
            # session accounting can see open/close churn per file.
            fid = int(body["file_id"])
            if self.cluster is not None and not self.cluster.owns_obj(fid):
                # The slot moved since the close was deferred.  Advisory,
                # so it fails alone and never refuses the batch it rides.
                return ("nack", {"error": "wrong_owner"})
            self.closes_by_file[fid] = self.closes_by_file.get(fid, 0) + 1
            return ("ack", {})
        return ("nack", {"error": f"unknown intent op {op!r}"})

    def _h_lock_intent(self, msg: Message,
                       ) -> Generator[Event, Any, Tuple[str, Dict[str, Any]]]:
        """One intent: a degenerate batch, answered as a plain reply."""
        [result] = yield from self._run_intents(msg.src, [msg.payload])
        return ("ack" if result.pop("ok") else "nack", result)

    def _h_lock_batch(self, msg: Message,
                      ) -> Generator[Event, Any, Tuple[str, Dict[str, Any]]]:
        """Batched intents: several sub-requests in one datagram.  Sub-op
        failures do not abort the batch — each result carries its own
        ``ok``."""
        results = yield from self._run_intents(
            msg.src, list(msg.payload.get("ops", [])))
        return ("ack", {"results": results})

    def _run_intents(self, client: str, ops: List[Dict[str, Any]],
                     ) -> Generator[Event, Any, List[Dict[str, Any]]]:
        """Execute intent descriptors in order; one result per op.

        Runs of ``range_acquire`` sub-ops on the same file are coalesced
        through the grant policy before acquisition (one lock-table walk
        per merged span), then every sub-op gets its own result slot so
        the client can map grants back to its requests.
        """
        results: List[Dict[str, Any]] = []
        i = 0
        while i < len(ops):
            body = ops[i]
            if body.get("op") != "range_acquire":
                decision, payload = yield from self._intent_exec(client, body)
                results.append({"ok": decision == "ack", **payload})
                i += 1
                continue
            # Collect the contiguous run of range acquisitions on this
            # file and coalesce it through the policy.
            fid = int(body["file_id"])
            j = i
            while (j < len(ops)
                   and ops[j].get("op") == "range_acquire"
                   and int(ops[j]["file_id"]) == fid):
                j += 1
            requests = [(ByteRange(int(b["start"]), int(b["end"])),
                         LockMode(int(b["mode"]))) for b in ops[i:j]]
            size = self._file_size(fid)
            spans: List[ByteRange] = []
            for rng, mode_l in self.grant_policy.coalesce(requests):
                self.intent_ops += 1
                wide = self.grant_policy.widen_range(
                    self.range_locks, client, fid, rng, mode_l, size)
                yield from self._acquire_range(client, fid, wide, mode_l)
                spans.append(wide)
            for req_rng, req_mode in requests:
                span = next((s for s in spans if s.contains(req_rng)),
                            req_rng)
                results.append({"ok": True, "mode": int(req_mode),
                                "start": span.start, "end": span.end})
            i = j
        return results

    def _h_data_read(self, msg: Message):
        """Server-marshalled read: the traditional client/server data path
        (experiment E1's baseline).  The server performs the SAN I/O on
        the client's behalf and ships the data over the control network.
        """
        file_id = int(msg.payload["file_id"])
        block = int(msg.payload["block"])

        def run() -> Generator[Event, Any, Tuple[str, Dict[str, Any]]]:
            try:
                ino = self._meta_for_file(file_id).inode(file_id)
                device, lba = ino.extents.resolve(block)
            except (NamespaceError, IndexError) as exc:
                return ("nack", {"error": str(exc)})
            recs = yield from self.san.read(self.name, device, lba, 1)
            from repro.storage.blockmap import BLOCK_SIZE
            self.data_bytes_served += BLOCK_SIZE
            return ("ack", {"tag": recs[0].tag, "version": recs[0].version,
                            "data_bytes": BLOCK_SIZE})
        return run()

    def _h_data_write(self, msg: Message):
        """Server-marshalled write (E1 baseline): data arrives over the
        control network and the server hardens it to the SAN."""
        file_id = int(msg.payload["file_id"])
        block = int(msg.payload["block"])
        tag = msg.payload["tag"]
        # The client reports how much data rode the control network;
        # account for what actually arrived rather than assuming a block.
        data_bytes = int(msg.payload["data_bytes"])

        def run() -> Generator[Event, Any, Tuple[str, Dict[str, Any]]]:
            try:
                ino = self._meta_for_file(file_id).inode(file_id)
                device, lba = ino.extents.resolve(block)
            except (NamespaceError, IndexError) as exc:
                return ("nack", {"error": str(exc)})
            versions = yield from self.san.write(self.name, device, {lba: tag})
            self.data_bytes_served += data_bytes
            return ("ack", {"version": versions.get(lba, -1)})
        return run()

    def _acquire_range(self, client: str, file_id: int, rng: ByteRange,
                       mode: LockMode) -> Generator[Event, Any, None]:
        """Win a byte-range lock (queues behind conflicting holders; a
        dead holder's ranges free when its lease is stolen)."""
        if self.cluster is not None:
            cw = self.cluster.defer_fresh(file_id)
            if cw is not None:
                yield self.sim.process(cw)
            if not self.cluster.owns_obj(file_id):
                raise SlotOwnershipError("wrong_owner")
        granted, conflicts = self.range_locks.try_acquire(
            client, file_id, rng, mode)
        if not granted:
            ev = self.sim.event()
            self.range_locks.enqueue_waiter(
                client, file_id, rng, mode,
                lambda r, m, ev=ev: ev.succeed((r, m)) if not ev.triggered else None)
            # Probe the conflicting holders: an unreachable holder
            # must be detected (delivery failure -> suspect -> lease
            # steal frees its ranges) or the waiter starves.
            for g in conflicts:
                self._spawn_range_probe(g.client, file_id)
            yield ev

    def _spawn_range_probe(self, holder: str, obj: int) -> None:
        key = ("__range__", holder, obj)
        if key in self._active_demands:
            return
        self._active_demands.add(key)
        self.sim.process(self._range_probe_loop(key, holder, obj),
                         name=f"{self.name}:range-probe:{holder}:{obj}")

    def _range_probe_loop(self, key, holder: str, obj: int,
                          ) -> Generator[Event, Any, None]:
        """Keep probing a range holder while waiters queue behind it."""
        try:
            while True:
                if (not self.range_locks.holdings(holder, obj)
                        or self.range_locks.waiter_count(obj) == 0):
                    return
                if self.authority.is_suspect(holder):
                    res = self.authority.resolution(holder)
                    if res is not None:
                        yield res
                    else:
                        yield self.endpoint.local_timeout(
                            min(self.config.demand_patience, 0.5))
                    continue
                try:
                    yield from self.endpoint.request(
                        holder, MsgKind.RANGE_DEMAND, {"file_id": obj})
                except DeliveryError:
                    res = self.authority.resolution(holder)
                    if res is not None:
                        yield res
                    continue
                except NackError:
                    return
                yield self.endpoint.local_timeout(self.config.demand_patience)
        finally:
            self._active_demands.discard(key)

    def _h_keepalive(self, msg: Message):
        # The NULL message (§3.2): no file system or lock function at all.
        # The gatekeeper has already vetoed suspect clients; an ACK is the
        # entire processing cost.
        return ("ack", {})
