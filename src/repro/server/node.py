"""The Storage Tank server node.

Wires together the metadata store, a pluggable *safety authority* (the
lease authority by default) and the server's layers behind a control
network endpoint:

- :class:`repro.server.lockservice.LockService` — granting, demanding
  back, stealing and fencing (§2, §6);
- :class:`repro.server.intents.IntentExecutor` — the lock request that
  carries its operation, the client↔server lock path;
- :class:`repro.server.barrier.CacheBarrier` — invalidate-before-apply
  for the in-network cache tier;
- :class:`repro.server.recovery.RecoveryManager` — epochs and lock
  reassertion after a restart (§6).

This module keeps what every transaction passes through — the
``_register`` gate and census, the reply stamp — and the namespace and
data-ship handlers.  All transactions are small and synchronous; one
that may wait for a lock or a barrier is a generator handler, which the
endpoint answers directly unless it really waits.

The server never touches file data: clients get extent maps and do
their own SAN I/O (paper §1.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, Optional, Set, Tuple

from repro.lease.contract import LeaseContract
from repro.lease.server_lease import ServerLeaseAuthority
from repro.locks.modes import LockMode
from repro.metadata.directory import NamespaceError
from repro.metadata.inode import Inode
from repro.metadata.store import MetadataStore
from repro.net.control import (ControlNetwork, Endpoint, HandlerResult,
                               RetryPolicy)
from repro.net.message import Message, MsgKind
from repro.net.san import SanFabric
from repro.obs import Observability
from repro.server.barrier import CacheBarrier, ancestor_dirs
from repro.server.intents import IntentExecutor
from repro.server.lockservice import LockService
from repro.server.recovery import RecoveryManager
from repro.sim.clock import LocalClock
from repro.sim.events import Event
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceRecorder
from repro.storage.blockmap import BLOCK_SIZE, extents_to_payload

#: What a transaction body decides: ``("ack" | "nack", payload)``.
Reply = Tuple[str, Dict[str, Any]]


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
        # Cluster shard role (ownership gating / takeover); attached by
        # build_system when the installation runs with cluster membership.
        self.cluster: Optional[Any] = None
        self.transactions = 0
        self.data_bytes_served = 0   # file data moved through this server (E1)
        self.rejected_reasserts = 0  # REASSERT refused (fenced/theft evidence)

        # The layers.  Each registers the transactions it handles through
        # the ``_register`` gate; RPL006 checks every module's
        # registrations against the KIND_GROUPS partition (adding a kind
        # to a declared group without a handler fails static analysis).
        self.lock_service = LockService(self)
        self.locks = self.lock_service.locks
        self.range_locks = self.lock_service.range_locks

        if authority_factory is None:
            authority_factory = lambda srv: ServerLeaseAuthority(
                srv.sim, srv.endpoint, srv.contract,
                on_steal=srv.lock_service.steal_client, trace=srv.trace,
                obs=srv.obs)
        self.authority = authority_factory(self)

        self.intents = IntentExecutor(self)
        self.closes_by_file = self.intents.closes_by_file
        self.recovery = RecoveryManager(self, grace=self.config.recovery_grace)
        self.endpoint.reply_stamp = self._stamp
        # In-network metadata cache tier (repro.netcache).  No node is
        # enrolled by default: the barrier then adds zero waits to the
        # mutation handlers and zero payload keys to replies, keeping
        # golden traces bit-identical.
        self.barrier = CacheBarrier(self.endpoint, self.authority, contract,
                                    self.trace)

        # repro-lint: handles[fs-core, lease-null, data-ship, cluster-owner]
        self._register(MsgKind.CREATE, self._h_create)
        self._register(MsgKind.OPEN, self._h_open)
        self._register(MsgKind.GETATTR, self._h_getattr)
        self._register(MsgKind.SETATTR, self._h_setattr)
        self._register(MsgKind.LOOKUP, self._h_lookup)
        self._register(MsgKind.UNLINK, self._h_unlink)
        self._register(MsgKind.READDIR, self._h_readdir)
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

    def _register(self, kind: str, fn: Callable[[Message], Any]) -> None:
        """Install a client-transaction handler behind the gate every
        transaction passes: the cluster's ownership check, the census,
        and the lock service's look at who is back in contact."""
        def wrapped(msg: Message):
            if self.cluster is not None:
                refusal = self.cluster.gate(msg)
                if refusal is not None:
                    # WRONG_OWNER / map-stale NACK: a routing refusal,
                    # not a transaction (and never a lease NACK).
                    return refusal
            self.transactions += 1
            self.lock_service.note_contact(msg)
            return fn(msg)

        self.endpoint.register(kind, wrapped)

    def _stamp(self, msg: Message) -> Dict[str, Any]:
        """What every ACK this server decides carries (the endpoint's
        ``reply_stamp``), however its handler was registered —
        ``CLUSTER_*`` and ``LOCK_REASSERT`` included.

        ``__epoch__`` lets clients detect a restart and reassert their
        locks (§6).  An ACK to a cache node adds the mutation watermark
        ``__mseq__`` (:meth:`CacheBarrier.watermark`)."""
        stamp = {"__epoch__": self.recovery.epoch}
        if msg.src in self.barrier.enrolled:
            stamp["__mseq__"] = self.barrier.watermark()
        return stamp

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

    # -- counters and tables owned by a layer ---------------------------------
    @property
    def fenced_clients(self) -> Set[str]:
        """Clients currently fenced by this server."""
        return set(self.lock_service._fenced)

    @property
    def rejected_releases(self) -> int:
        """RELEASE/DOWNGRADE requests from a client that held nothing."""
        return self.lock_service.rejected_releases

    @property
    def intent_ops(self) -> int:
        """Sub-operations executed under intents."""
        return self.intents.intent_ops

    # ------------------------------------------------------------------
    # transaction handlers
    # ------------------------------------------------------------------
    def _h_create(self, msg: Message) -> Generator[Event, Any, Reply]:
        return self._create(msg.payload["path"],
                            int(msg.payload.get("size", 0)))

    def _create(self, path: str, size: int,
                ) -> Generator[Event, Any, Reply]:
        """CREATE body (also the create intent's), bracketed by the
        cache barrier."""
        store = self._meta_for_path(path)
        if store.exists(path):
            return ("nack", {"error": "exists"})
        barrier = self.barrier._claim_barrier()
        try:
            if barrier:
                yield from self.barrier._invalidate_caches(
                    barrier, {"paths": [path], "dirs": ancestor_dirs(path)})
                if store.exists(path):
                    # Raced another create while the barrier ran.
                    return ("nack", {"error": "exists"})
            ino = store.create_file(path, size, now=self.sim.now)
            if self.cluster is not None:
                self.cluster.note_create(ino.file_id, path)
            if barrier:
                self.barrier.note_mutation("create", path=path,
                                           file_id=ino.file_id,
                                           size=ino.attrs.size)
            return ("ack", {"file_id": ino.file_id, **self._meta_reply(ino)})
        finally:
            self.barrier._cache_pending.discard(barrier)

    def _h_open(self, msg: Message) -> HandlerResult:
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

    def _h_getattr(self, msg: Message) -> HandlerResult:
        return self._getattr(msg.payload.get("path"),
                             msg.payload.get("file_id"))

    def _getattr(self, path: Optional[str], file_id: Optional[Any],
                 ) -> Reply:
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

    def _h_setattr(self, msg: Message) -> Generator[Event, Any, Reply]:
        return self._setattr(
            int(msg.payload["file_id"]), msg.payload.get("size"),
            msg.payload.get("mode"), msg.payload.get("have_layout"))

    def _setattr(self, file_id: int, size: Any, mode: Any, have: Any = None,
                 ) -> Generator[Event, Any, Reply]:
        """SETATTR body (also the setattr intent's), bracketed by the
        cache barrier."""
        store = self._meta_for_file(file_id)
        barrier = self.barrier._claim_barrier()
        try:
            if barrier:
                yield from self.barrier._invalidate_caches(
                    barrier, {"file_ids": [file_id]})
            try:
                if size is not None:
                    ino = store.ensure_size(file_id, int(size),
                                            now=self.sim.now)
                else:
                    ino = store.set_attrs(file_id, now=self.sim.now,
                                          mode=mode)
            except NamespaceError as exc:
                return ("nack", {"error": str(exc)})
            if barrier:
                self.barrier.note_mutation("setattr", file_id=file_id,
                                           size=ino.attrs.size)
            return ("ack", self._meta_reply(ino, have))
        finally:
            self.barrier._cache_pending.discard(barrier)

    def _h_lookup(self, msg: Message) -> HandlerResult:
        try:
            path = msg.payload["path"]
            ino = self._meta_for_path(path).lookup(path)
        except NamespaceError as exc:
            return ("nack", {"error": str(exc)})
        return ("ack", {"file_id": ino.file_id})

    def _h_unlink(self, msg: Message) -> Any:
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

        def run() -> Generator[Event, Any, HandlerResult]:
            yield from self.lock_service.grant_lock(msg.src, fid,
                                                    LockMode.EXCLUSIVE)
            barrier = self.barrier._claim_barrier()
            try:
                if barrier:
                    yield from self.barrier._invalidate_caches(
                        barrier, {"paths": [path], "file_ids": [fid],
                                  "dirs": ancestor_dirs(path)})
                try:
                    store.unlink(path)
                except NamespaceError as exc:
                    self.locks.release(msg.src, fid)
                    return ("nack", {"error": str(exc)})
                if barrier:
                    self.barrier.note_mutation("unlink", path=path,
                                               file_id=fid)
            finally:
                self.barrier._cache_pending.discard(barrier)
            self.locks.release(msg.src, fid)
            return ("ack", {"file_id": fid})
        return run()

    def _h_readdir(self, msg: Message) -> HandlerResult:
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

    def _h_data_read(self, msg: Message) -> Any:
        """Server-marshalled read: the traditional client/server data path
        (experiment E1's baseline).  The server performs the SAN I/O on
        the client's behalf and ships the data over the control network.
        """
        file_id = int(msg.payload["file_id"])
        block = int(msg.payload["block"])

        def run() -> Generator[Event, Any, HandlerResult]:
            try:
                ino = self._meta_for_file(file_id).inode(file_id)
                device, lba = ino.extents.resolve(block)
            except (NamespaceError, IndexError) as exc:
                return ("nack", {"error": str(exc)})
            recs = yield from self.san.read(self.name, device, lba, 1)
            self.data_bytes_served += BLOCK_SIZE
            return ("ack", {"tag": recs[0].tag, "version": recs[0].version,
                            "data_bytes": BLOCK_SIZE})
        return run()

    def _h_data_write(self, msg: Message) -> Any:
        """Server-marshalled write (E1 baseline): data arrives over the
        control network and the server hardens it to the SAN."""
        file_id = int(msg.payload["file_id"])
        block = int(msg.payload["block"])
        tag = msg.payload["tag"]
        # The client reports how much data rode the control network;
        # account for what actually arrived rather than assuming a block.
        data_bytes = int(msg.payload["data_bytes"])

        def run() -> Generator[Event, Any, HandlerResult]:
            try:
                ino = self._meta_for_file(file_id).inode(file_id)
                device, lba = ino.extents.resolve(block)
            except (NamespaceError, IndexError) as exc:
                return ("nack", {"error": str(exc)})
            versions = yield from self.san.write(self.name, device, {lba: tag})
            self.data_bytes_served += data_bytes
            return ("ack", {"version": versions.get(lba, -1)})
        return run()

    def _h_keepalive(self, msg: Message) -> HandlerResult:
        # The NULL message (§3.2): no file system or lock function at all.
        # The gatekeeper has already vetoed suspect clients; an ACK is the
        # entire processing cost.
        return ("ack", {})
