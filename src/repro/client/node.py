"""The Storage Tank client node.

Combines the page cache, cached locks, open-file table and the
four-phase lease state machine into the POSIX-flavoured API local
applications call.  All methods that touch the network or the SAN are
process generators (``yield from client.read(...)``).

Failure semantics the audit relies on:

- every application write that is acknowledged gets a unique *tag* and
  an ``app.write.ack`` trace record;
- a tag either reaches shared storage (``san.write`` + disk history) or
  the client emits ``app.error`` for it — silent loss is a protocol
  violation (invariant I2), not an accepted outcome;
- every application read emits ``app.read`` with the tags it returned,
  so stale reads are detectable offline (invariant I3).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional, Set, Tuple

from repro.client.cache import Page, PageCache, lost_to_failed_flush
from repro.client.openfile import FdTable, OpenFile
from repro.lease.client_lease import ClientLeaseManager, LeaseCallbacks
from repro.lease.contract import LeaseContract
from repro.lease.phases import LeasePhase
from repro.locks.client_table import ClientLockTable
from repro.locks.modes import LockMode
from repro.metadata.inode import FileAttributes
from repro.net.control import (ControlNetwork, Endpoint, ReplyObserver,
                               RetryPolicy)
from repro.net.message import DeliveryError, Message, MsgKind, Nack, NackError
from repro.net.san import SanFabric, SanUnreachableError
from repro.obs import Observability
from repro.sim.clock import LocalClock
from repro.sim.events import Event
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceRecorder
from repro.storage.blockmap import (
    BLOCK_SIZE,
    ExtentMap,
    byte_range_to_blocks,
)
from repro.storage.disk import FencedIoError


class ClientQuiescedError(Exception):
    """The lease is suspect/expired; new requests are not admitted (§3.2)."""


class ClientDisconnectedError(Exception):
    """No valid lease with the server; operation refused."""


class ClientIOError(Exception):
    """A data I/O failed at the SAN (fence or SAN partition) — the EIO
    the application sees.  Reported, never silent."""


def _routing_refusal(exc: NackError) -> bool:
    """Whether a NACK is a cluster routing refusal (retry elsewhere).

    Matches by substring because a refusal raised inside a deferred
    transaction surfaces as ``repr(exc)`` in the error field."""
    err = str(exc.nack.payload.get("error", ""))
    return "wrong_owner" in err or "map_stale" in err


def _layout_hint(file_id: Optional[int],
                 held: Optional[ExtentMap]) -> Dict[str, Any]:
    """Request fields naming the block map the client already holds, so
    the server may answer with only the runs past it."""
    if held is None:
        return {}
    return {"have_layout": (file_id, held.layout_gen, len(held.extents))}


@dataclass
class ClientConfig:
    """Tunables for one client node."""

    writeback_interval: float = 5.0     # local seconds between write-back scans
    cache_capacity_pages: int = 65536
    rpc_timeout: float = 1.0            # local seconds per datagram attempt
    rpc_retries: int = 3
    use_leases: bool = True             # False for baseline clients
    data_path: str = "direct"           # "direct" (SAN) | "server" (function ship)
    # Metadata is only weakly consistent (paper §3, footnote 1): with a
    # positive TTL, getattr serves a cached copy for up to that many
    # local seconds before re-fetching.  0 disables attribute caching.
    attr_cache_ttl: float = 0.0


class StorageTankClient(ReplyObserver):
    """One client computer."""

    def __init__(self, sim: Simulator, net: ControlNetwork, san: SanFabric,
                 name: str, server, clock: LocalClock,
                 contract: LeaseContract,
                 config: Optional[ClientConfig] = None,
                 trace: Optional[TraceRecorder] = None,
                 obs: Optional[Observability] = None):
        """``server`` may be one name or a sequence of names: a client
        must hold a valid lease with *every* server it holds locks from
        (paper §3), so each server gets its own lease state machine."""
        self.sim = sim
        self.obs = obs if obs is not None else Observability()
        self.san = san
        self.name = name
        if isinstance(server, str):
            self.servers: Tuple[str, ...] = (server,)
        else:
            self.servers = tuple(server)
        if not self.servers:
            raise ValueError("need at least one server")
        self.server = self.servers[0]  # primary (routing fallback)
        self.config = config or ClientConfig()
        self.trace = trace if trace is not None else net.trace
        self.contract = contract

        policy = RetryPolicy(timeout=self.config.rpc_timeout,
                             retries=self.config.rpc_retries)
        self.endpoint = Endpoint(sim, net, name, clock, trace=self.trace,
                                 default_policy=policy)
        self.endpoint.obs = self.obs
        san.attach_initiator(name)

        self.cache = PageCache(self.config.cache_capacity_pages)
        self.locks = ClientLockTable()
        self.fds = FdTable()
        self._write_seq = itertools.count(1)
        self._in_flight = 0
        self._drained: Event = sim.event()
        self._drained.succeed()
        self._quiesced = False
        # Lock pinning: a demand compliance must not release a lock out
        # from under an operation that already validated it (TOCTOU).
        self._file_inflight: Dict[int, int] = {}
        self._file_drain_evs: Dict[int, Event] = {}
        self._revoking: set = set()
        # A reply that carries a lock mode (OPEN, LOCK_ACQUIRE) reflects
        # server state at *execution* time, not delivery time.  Under
        # message loss the at-most-once layer re-delivers cached replies
        # arbitrarily late, so a grant executed before a demand-driven
        # release can arrive after it — and must not resurrect the lock.
        # sim-time of the last revocation, per file.
        self._lock_revoked_at: Dict[int, float] = {}

        # Application-visible counters.
        self.ops_completed = 0
        self.ops_rejected = 0
        self.app_errors = 0
        self.keepalives_sent = 0
        self.reasserts_sent = 0
        # Range-lock demands received, per file (contention census).
        self.range_demands_seen: Dict[int, int] = {}
        self._m_lease_msgs = self.obs.registry.counter(
            "lease.client.msgs_sent", "Client-originated lease messages",
            labels=("node",)).labels(node=name)

        # §6 server recovery: every server ACK carries an epoch; a change
        # means that server restarted and lost its lock table — reassert.
        self._server_epoch: Dict[str, int] = {}
        self.endpoint.observers.append(self)

        # file_id -> owning server (populated at create/open).
        self._file_server: Dict[int, str] = {}
        # Cluster rerouting state (wired by ``attach_cluster``): the
        # coordinator's node name, the last shard map we saw, and
        # file_id -> ring slot so fid-routed requests follow slot moves.
        self.coordinator: Optional[str] = None
        self.shard_map = None
        self._file_slot: Dict[int, int] = {}
        self.rerouted_ops = 0
        self.shard_migrations = 0
        # Weakly consistent attribute cache: path -> (attrs, local fetch time).
        self._attr_cache: Dict[str, Tuple[FileAttributes, float]] = {}
        self.attr_cache_hits = 0
        # Parsed block maps, one per file and shared by its open
        # instances: file_id -> map, and path -> file_id so an open can
        # name what it holds.  Never trusted on its own: every use
        # follows a reply that names the generation and position the
        # map must have (``_apply_meta_reply``).  Dropped with the file's
        # pages (``_drop_file``) and with the lease.
        self._layouts: Dict[int, ExtentMap] = {}
        self._path_fid: Dict[str, int] = {}
        # Deferred closes: per-server file ids whose close census rides
        # the next LOCK_BATCH instead of its own datagram.
        self._pending_closes: Dict[str, List[int]] = {}

        self.leases: Dict[str, ClientLeaseManager] = {}
        if self.config.use_leases:
            for srv in self.servers:
                self.leases[srv] = ClientLeaseManager(
                    sim, self.endpoint, srv, contract,
                    callbacks=LeaseCallbacks(
                        send_keepalive=self._keepalive_sender(srv),
                        on_enter_suspect=self._quiesce,
                        on_enter_flush=self._flush_all_spawner(srv),
                        on_expired=self._expiry_handler(srv),
                        on_resume_service=self._unquiesce,
                        on_reconnected=self._unquiesce,
                    ),
                    trace=self.trace, obs=self.obs)

        # Server-initiated requests.
        # repro-lint: handles[client-demands]
        self.endpoint.register(MsgKind.LOCK_DEMAND, self._on_lock_demand)
        self.endpoint.register(MsgKind.RANGE_DEMAND, self._on_range_demand)
        self.endpoint.register(MsgKind.CACHE_INVALIDATE, self._on_cache_invalidate)

        # Optional external admission gate (baseline agents install one:
        # e.g. Frangipani checks its heartbeat lease before every op).
        self.admission_check = None

        # A non-positive interval disables the standing write-back timer
        # entirely (scale path: materialized facades flush explicitly, so
        # a short-lived wake does not leave a daemon ticking behind it).
        self._writeback_proc = (
            sim.process(self._writeback_daemon(), name=f"{name}:writeback")
            if self.config.writeback_interval > 0 else None)

    # ------------------------------------------------------------------
    # cluster attachment
    # ------------------------------------------------------------------
    def attach_cluster(self, coordinator: str, shard_map: Any) -> None:
        """Enable shard-map routing (called by ``build_system``)."""
        self.coordinator = coordinator
        self.shard_map = shard_map
        self.endpoint.register(MsgKind.CLUSTER_MAP_UPDATE, self._on_map_push)

    # ------------------------------------------------------------------
    # application API (process generators)
    # ------------------------------------------------------------------
    def create(self, path: str, size: int = 0) -> Generator[Event, Any, int]:
        """Create a file on its owning server; returns its file id."""
        srv = self.server_for_path(path)
        self._admit(srv)
        self._enter()
        try:
            reply = yield from self._rpc(MsgKind.CREATE,
                                         {"path": path, "size": size}, srv,
                                         route=("path", path))
            fid = int(reply.payload["file_id"])
            self._note_file_owner(fid, path)
            return fid
        finally:
            self._exit()

    def open_file(self, path: str, mode: str = "r") -> Generator[Event, Any, int]:
        """Open a file, acquiring its data lock; returns a descriptor."""
        if mode not in ("r", "w"):
            raise ValueError(f"mode must be 'r' or 'w', got {mode!r}")
        srv = self.server_for_path(path)
        self._admit(srv)
        self._enter()
        try:
            sent_at = self.sim.now
            held_fid = self._path_fid.get(path)
            held = self._layouts.get(held_fid)
            p = yield from self._intent_open(
                {"op": "open", "path": path, "mode": mode,
                 **_layout_hint(held_fid, held)}, srv)
            lock = LockMode(int(p["lock"]))
            fid = int(p["file_id"])
            self._note_file_owner(fid, path)
            stale_grant = self._lock_reply_stale(fid, sent_at)
            if not stale_grant:
                self.locks.note_granted(fid, lock)
            of = self.fds.install(path, fid, mode, FileAttributes(),
                                  ExtentMap(),
                                  LockMode.NONE if stale_grant else lock,
                                  server=self._file_server[fid])
            self._apply_meta_reply(of, p, held if fid == held_fid else None)
            if stale_grant:
                # The lock was revoked while the open was in flight; the
                # first operation revalidates via a fresh acquire.
                of.stale = True
            self.ops_completed += 1
            return of.fd
        finally:
            self._exit()

    def _intent_open(self, op: Dict[str, Any], srv: str,
                     ) -> Generator[Event, Any, Dict[str, Any]]:
        """One-round-trip open: the lock request carries the operation
        (``op``, the open descriptor).

        Deferred closes for this server ride the same datagram as a
        LOCK_BATCH, so an open→close→open cycle costs one message."""
        path = op["path"]
        closes = self._pending_closes.pop(srv, None)
        if not closes:
            reply = yield from self._rpc(MsgKind.LOCK_INTENT, op, srv,
                                         route=("path", path))
            return reply.payload
        ops: List[Dict[str, Any]] = [{"op": "close", "file_id": fid}
                                     for fid in closes]
        ops.append(op)
        try:
            reply = yield from self._rpc(MsgKind.LOCK_BATCH, {"ops": ops},
                                         srv, route=("path", path))
        except (DeliveryError, NackError):
            # The piggybacked closes may not have landed: re-queue them
            # so the census rides a later batch.
            self._pending_closes.setdefault(srv, [])[:0] = closes
            raise
        res = dict(reply.payload["results"][-1])
        if not res.pop("ok", False):
            # Surface the failed open sub-op as a lone open intent
            # would: a NackError carrying the server's error (read out
            # of a delivered batch ACK, never a datagram: RPL013-exempt).
            req = Message(src=self.name, dst=srv, kind=MsgKind.LOCK_INTENT,
                          payload={"op": "open", "path": path})
            raise NackError(req, Nack(  # repro-lint: ignore[RPL013]
                src=srv, dst=self.name, reply_to=req.msg_id,
                payload={"error": res.get("error", "")}))
        return res

    def read(self, fd: int, offset: int, nbytes: int,
             ) -> Generator[Event, Any, List[Tuple[int, Optional[str]]]]:
        """Read a byte range; returns ``(logical_block, tag)`` pairs.

        Serves from cache under a SHARED-or-better lock; misses go
        directly to the SAN.
        """
        of = self.fds.get(fd)
        self._admit(of.server)
        self._enter()
        pinned = False
        try:
            yield from self._ensure_lock(of, LockMode.SHARED)
            self._pin_file(of.file_id)
            pinned = True
            first, count = byte_range_to_blocks(offset, nbytes)
            out: List[Tuple[int, Optional[str]]] = []
            missing: List[int] = []
            for lb in range(first, first + count):
                page = self.cache.get(of.file_id, lb)
                if page is not None:
                    out.append((lb, page.tag))
                else:
                    missing.append(lb)
            if missing:
                fetched = yield from self._fetch_blocks(of, missing)
                out.extend(fetched)
            out.sort(key=lambda t: t[0])
            for lb, tag in out:
                device, lba = of.resolve(lb)
                self.trace.emit(self.sim.now, "app.read", self.name,
                                file_id=of.file_id, block=lb, tag=tag,
                                device=device, lba=lba)
            self.ops_completed += 1
            return out
        finally:
            if pinned:
                self._unpin_file(of.file_id)
            self._exit()

    def write(self, fd: int, offset: int, nbytes: int,
              ) -> Generator[Event, Any, str]:
        """Write a byte range into the cache (write-back); returns the tag.

        The acknowledgment to the application happens when this returns
        — durability is the write-back machinery's job, and losing the
        tag silently afterwards is an audit violation.
        """
        of = self.fds.get(fd)
        self._admit(of.server)
        if of.mode != "w":
            raise PermissionError(f"fd {fd} not open for writing")
        self._enter()
        pinned = False
        try:
            yield from self._ensure_lock(of, LockMode.EXCLUSIVE)
            self._pin_file(of.file_id)
            pinned = True
            end = offset + nbytes
            if end > of.extents.size_bytes:
                # Growth folds into a setattr intent: the reply is
                # op-result + (idempotent) grant in one round trip.
                sent_at = self.sim.now
                held = self._layouts.get(of.file_id)
                reply = yield from self._rpc(
                    MsgKind.LOCK_INTENT,
                    {"op": "setattr", "file_id": of.file_id, "size": end,
                     **_layout_hint(of.file_id, held)},
                    of.server, route=("file", of.file_id))
                lock = reply.payload.get("lock")
                if (lock is not None
                        and not self._lock_reply_stale(of.file_id, sent_at)):
                    self.locks.note_granted(of.file_id, LockMode(int(lock)))
                    of.lock = LockMode(int(lock))
                self._apply_meta_reply(of, reply.payload, held)
            tag = f"{self.name}:w{next(self._write_seq)}"
            first, count = byte_range_to_blocks(offset, nbytes)
            phys = []
            for lb in range(first, first + count):
                device, lba = of.resolve(lb)
                self.cache.write_dirty(of.file_id, lb, device, lba, tag)
                phys.append((device, lba))
            self.trace.emit(self.sim.now, "app.write.ack", self.name,
                            file_id=of.file_id, tag=tag,
                            blocks=list(range(first, first + count)),
                            phys=phys)
            self.ops_completed += 1
            return tag
        finally:
            if pinned:
                self._unpin_file(of.file_id)
            self._exit()

    def flush(self, fd: Optional[int] = None) -> Generator[Event, Any, int]:
        """Write dirty pages (of one file, or all) to the SAN; returns the
        number of pages hardened."""
        file_id = self.fds.get(fd).file_id if fd is not None else None
        return (yield from self._flush_dirty(file_id))

    def close(self, fd: int) -> Generator[Event, Any, None]:
        """Close a descriptor.  Flushes that file's dirty pages first;
        the data lock stays cached (lock caching, §3.1)."""
        of = self.fds.get(fd)
        yield from self._flush_dirty(of.file_id)
        self._enter()
        try:
            # Close is advisory bookkeeping (§3.1), so it need not cost
            # a datagram: the census update rides the next LOCK_BATCH to
            # this server.
            self._pending_closes.setdefault(of.server, []).append(of.file_id)
            self.fds.close(fd)
            self.ops_completed += 1
        finally:
            self._exit()

    def read_range_locked(self, fd: int, offset: int, nbytes: int,
                          ) -> Generator[Event, Any, List[Tuple[int, Optional[str]]]]:
        """Read one range under a SHARED byte-range lock: a one-element
        ``read_ranges_locked``."""
        return (yield from self.read_ranges_locked(fd, [(offset, nbytes)]))[0]

    def write_range_locked(self, fd: int, offset: int, nbytes: int,
                           ) -> Generator[Event, Any, str]:
        """Write one range under an EXCLUSIVE byte-range lock: a
        one-element ``write_ranges_locked``."""
        return (yield from self.write_ranges_locked(fd, [(offset, nbytes)]))[0]

    def read_ranges_locked(self, fd: int, ranges: List[Tuple[int, int]],
                           ) -> Generator[Event, Any, List[List[Tuple[int, Optional[str]]]]]:
        """Read several ``(offset, nbytes)`` ranges under SHARED
        byte-range locks (sub-file sharing).

        Acquire→I/O→release: the range locks are held only for the
        duration of the operation and the data is read from the SAN, so
        concurrent writers of *other* ranges proceed in parallel.  The
        acquisitions ride one LOCK_BATCH (adjacent ranges merge into
        one grant) and the releases another — 2 round trips for any
        number of ranges.  The open instance needs no whole-file lock
        (`open_file` with ``mode='r'`` still takes S; use this for
        files opened by a range-locking application).
        """
        of = self.fds.get(fd)
        self._admit(of.server)
        self._enter()
        try:
            spans = yield from self._batch_acquire(of, ranges,
                                                   LockMode.SHARED)
            try:
                out = []
                for offset, nbytes in ranges:
                    first, count = byte_range_to_blocks(offset, nbytes)
                    got = yield from self._fetch_blocks(
                        of, list(range(first, first + count)))
                    for lb, tag in got:
                        device, lba = of.resolve(lb)
                        self.trace.emit(self.sim.now, "app.read", self.name,
                                        file_id=of.file_id, block=lb, tag=tag,
                                        device=device, lba=lba)
                    self.ops_completed += 1
                    out.append(sorted(got))
                return out
            finally:
                yield from self._batch_release(of, spans)
        finally:
            self._exit()

    def write_ranges_locked(self, fd: int, ranges: List[Tuple[int, int]],
                            ) -> Generator[Event, Any, List[str]]:
        """Write several ``(offset, nbytes)`` ranges under EXCLUSIVE
        byte-range locks, write-*through*: one LOCK_BATCH acquires, one
        releases.

        The data is hardened to the SAN before the range locks are
        released, so the lock hand-off is also the visibility hand-off —
        no write-back state outlives the lock.
        """
        of = self.fds.get(fd)
        self._admit(of.server)
        self._enter()
        try:
            spans = yield from self._batch_acquire(of, ranges,
                                                   LockMode.EXCLUSIVE)
            try:
                tags = []
                for offset, nbytes in ranges:
                    tag = f"{self.name}:w{next(self._write_seq)}"
                    first, count = byte_range_to_blocks(offset, nbytes)
                    by_device: Dict[str, Dict[int, str]] = {}
                    phys = []
                    for lb in range(first, first + count):
                        device, lba = of.resolve(lb)
                        by_device.setdefault(device, {})[lba] = tag
                        phys.append((device, lba))
                    for device, block_tags in by_device.items():
                        yield from self.san.write(self.name, device,
                                                  block_tags)
                    self.trace.emit(self.sim.now, "app.write.ack", self.name,
                                    file_id=of.file_id, tag=tag,
                                    blocks=list(range(first, first + count)),
                                    phys=phys)
                    self.ops_completed += 1
                    tags.append(tag)
                return tags
            finally:
                yield from self._batch_release(of, spans)
        finally:
            self._exit()

    def _batch_acquire(self, of: OpenFile, ranges: List[Tuple[int, int]],
                       mode: LockMode,
                       ) -> Generator[Event, Any, List[Tuple[int, int]]]:
        """Acquire range locks for every ``(offset, nbytes)`` in one
        LOCK_BATCH; returns the distinct granted spans (the server may
        have coalesced or widened them) for the paired release."""
        ops = [{"op": "range_acquire", "file_id": of.file_id,
                "start": offset, "end": offset + nbytes, "mode": int(mode)}
               for offset, nbytes in ranges]
        reply = yield from self._rpc(MsgKind.LOCK_BATCH, {"ops": ops},
                                     of.server, route=("file", of.file_id))
        spans = {(int(r["start"]), int(r["end"]))
                 for r in reply.payload["results"] if r.get("ok")}
        return sorted(spans)

    def _batch_release(self, of: OpenFile, spans: List[Tuple[int, int]],
                       ) -> Generator[Event, Any, None]:
        """Release the granted spans in one LOCK_BATCH."""
        if not spans:
            return
        ops = [{"op": "range_release", "file_id": of.file_id,
                "start": start, "end": end} for start, end in spans]
        yield from self._rpc(MsgKind.LOCK_BATCH, {"ops": ops}, of.server,
                             route=("file", of.file_id))

    def unlink(self, path: str) -> Generator[Event, Any, None]:
        """Remove a file.  The server demands the data lock from any
        cacher first; this client's own pages and lock are dropped."""
        srv = self.server_for_path(path)
        self._admit(srv)
        self._enter()
        try:
            reply = yield from self._rpc(MsgKind.UNLINK, {"path": path}, srv,
                                         route=("path", path))
            fid = int(reply.payload["file_id"])
            self._drop_file(fid)
            self._path_fid.pop(path, None)
            self.locks.note_released(fid)
            self._file_server.pop(fid, None)
            self._file_slot.pop(fid, None)
            for of in self.fds.by_file_id(fid):
                of.stale = True
                of.lock = LockMode.NONE
            self.ops_completed += 1
        finally:
            self._exit()

    def readdir(self, path: str = "/") -> Generator[Event, Any, List[str]]:
        """List entries under a directory, merged across all servers.

        This replaces a single-RPC implementation that asked exactly one
        server — the path's owner on a single-server installation, else
        the primary — and therefore silently listed only that server's
        slice of a sharded namespace.  The RPC now fans out to every
        namespace owner (the shard map's owners under a cluster, every
        configured server otherwise) and merges the slices; a server
        that is down or quiesced just drops out of the merge rather than
        failing the whole listing, unless *no* server answers.
        """
        if len(self.servers) == 1:
            targets: List[str] = [self.servers[0]]
        elif self.shard_map is not None:
            targets = list(self.shard_map.owners())
        else:
            targets = list(self.servers)
        entries: set = set()
        answered = False
        last_exc: Optional[Exception] = None
        for srv in targets:
            try:
                self._admit(srv)
                self._enter()
                try:
                    reply = yield from self._rpc(MsgKind.READDIR,
                                                 {"path": path}, srv)
                finally:
                    self._exit()
            except (ClientQuiescedError, ClientDisconnectedError,
                    DeliveryError, NackError) as exc:
                last_exc = exc
                continue
            answered = True
            entries.update(reply.payload["entries"])
        if not answered and last_exc is not None:
            raise last_exc
        self.ops_completed += 1
        return sorted(entries)

    def getattr(self, path: str) -> Generator[Event, Any, FileAttributes]:
        """Fetch a file's attributes from its owning server.

        With ``attr_cache_ttl > 0`` a cached copy may be served — the
        weak metadata consistency the paper allows (footnote 1):
        modifications propagate eventually, never instantaneously.
        """
        srv = self.server_for_path(path)
        ttl = self.config.attr_cache_ttl
        if ttl > 0:
            cached = self._attr_cache.get(path)
            if cached is not None and                     self.endpoint.local_now() - cached[1] < ttl:
                lease = self.leases.get(srv)
                if lease is None or lease.phase().cache_usable:
                    self.attr_cache_hits += 1
                    self.ops_completed += 1
                    return cached[0]
        self._admit(srv)
        self._enter()
        try:
            reply = yield from self._rpc(MsgKind.GETATTR, {"path": path}, srv,
                                         route=("path", path))
            self.ops_completed += 1
            attrs = FileAttributes.from_payload(reply.payload["attrs"])
            if ttl > 0:
                self._attr_cache[path] = (attrs, self.endpoint.local_now())
            return attrs
        finally:
            self._exit()

    def lookup(self, path: str) -> Generator[Event, Any, int]:
        """Resolve a path to its file id without opening or locking it.

        The lightest metadata read the server offers — and the bread and
        butter of the in-network cache tier, which serves repeats of it
        without a server transaction.
        """
        srv = self.server_for_path(path)
        self._admit(srv)
        self._enter()
        try:
            reply = yield from self._rpc(MsgKind.LOOKUP, {"path": path}, srv,
                                         route=("path", path))
            self.ops_completed += 1
            return int(reply.payload["file_id"])
        finally:
            self._exit()

    # -- introspection ------------------------------------------------------
    @property
    def lease(self) -> Optional[ClientLeaseManager]:
        """Lease manager for the primary server (None when disabled)."""
        return self.leases.get(self.server)

    def lease_for(self, server: str) -> Optional[ClientLeaseManager]:
        """Lease manager for a specific server."""
        return self.leases.get(server)

    @property
    def phase(self) -> LeasePhase:
        """Current primary-lease phase (VALID when leases are disabled)."""
        lease = self.lease
        return lease.phase() if lease else LeasePhase.VALID

    @property
    def connected(self) -> bool:
        """Whether a valid primary lease is held (True without leases)."""
        lease = self.lease
        return lease.active if lease else True

    # -- flyweight parking (scale path) ---------------------------------
    def park_blockers(self) -> List[str]:
        """Why this client cannot park right now (empty when clean).

        Parking folds the client back into its flyweight record, so it
        must hold nothing the protocol obliges it to resolve first: no
        dirty pages (§3.2 flush duty), no held locks, no open files and
        no in-flight operations.
        """
        blockers = []
        if self._in_flight:
            blockers.append(f"{self._in_flight} operations in flight")
        if self.cache.dirty_count:
            blockers.append("dirty pages in cache")
        if self.locks.all_held():
            blockers.append("locks held")
        if self.fds.all_open():
            blockers.append("open files")
        return blockers

    def shutdown_for_park(self) -> None:
        """Tear down every standing resource this facade owns.

        Interrupts the write-back daemon and each lease daemon (their
        pending timers become inert and drain as no-ops), detaches the
        endpoint from the control network and the initiator from the
        SAN.  After this the object is garbage; the pooled record and
        the :class:`~repro.lease.pooled.PooledLeaseService` carry
        everything that outlives it.
        """
        if self._writeback_proc is not None and self._writeback_proc.is_alive:
            self._writeback_proc.interrupt()
            self._writeback_proc = None
        for mgr in self.leases.values():
            if mgr._daemon.is_alive:
                mgr._daemon.interrupt()
        self.endpoint.net.detach(self.name)
        self.san.detach_initiator(self.name)

    def overhead_snapshot(self) -> Dict[str, float]:
        """Client-side counters for E7/E9 (``ClientAgent`` conformance)."""
        return {
            "ops_completed": float(self.ops_completed),
            "ops_rejected": float(self.ops_rejected),
            "app_errors": float(self.app_errors),
            "keepalives_sent": float(self.keepalives_sent),
            "lease_msgs_sent": float(self.keepalives_sent),
            "cache_hit_rate": float(self.cache.stats.hit_rate),
            "messages_per_op": self.messages_per_op(),
        }

    def rpc_by_kind(self) -> Dict[str, int]:
        """RPC round trips this client initiated, by message kind."""
        return dict(self.endpoint.rpc_sent)

    def messages_per_op(self, exclude_keepalives: bool = True) -> float:
        """Client-originated RPCs per completed application op.

        Keep-alives are excluded by default: they are the lease
        protocol's fixed-rate background (§3.2), not per-op traffic, and
        the E-intent comparison is about the per-op message count."""
        sent = self.endpoint.rpc_sent
        total = sum(n for k, n in sent.items()
                    if not (exclude_keepalives and k == MsgKind.KEEPALIVE))
        return total / self.ops_completed if self.ops_completed else 0.0

    # -- routing ---------------------------------------------------------
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

    def _note_file_owner(self, fid: int, path: str) -> None:
        """Record a file's name, owner and (when clustered) ring slot."""
        self._path_fid[path] = fid
        if self.shard_map is not None:
            from repro.cluster.shardmap import slot_of_path
            self._file_slot[fid] = slot_of_path(path)
        self._file_server[fid] = self.server_for_path(path)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _rpc(self, kind: str, payload: Dict[str, Any],
             server: Optional[str] = None,
             route: Optional[Tuple[str, Any]] = None,
             ) -> Generator[Event, Any, Message]:
        """One request, with cluster rerouting.

        ``route`` names what the request addresses — ``("path", p)`` or
        ``("file", fid)`` — so a ``WRONG_OWNER`` or ``map_stale`` NACK
        (slot moved, or the target silenced itself after losing the
        coordinator) can be retried: refetch the shard map, re-derive
        the owner, and resend.  Bounded, and inert without a cluster.
        """
        target = server or self.server
        attempts = 0
        while True:
            try:
                return (yield from self.endpoint.request(target, kind, payload))
            except NackError as exc:
                if self.shard_map is None or not _routing_refusal(exc):
                    raise
                attempts += 1
                if attempts > 3:
                    raise
                self.rerouted_ops += 1
                yield from self._refresh_map()
                new_target = self._route_target(route, target)
                if new_target == target:
                    # Map unchanged (e.g. the owner is silenced but not
                    # yet reassigned): back off before asking again.
                    yield self.endpoint.local_timeout(0.5)
                target = new_target

    def _route_target(self, route: Optional[Tuple[str, Any]],
                      current: str) -> str:
        if route is None or self.shard_map is None:
            return current
        what, key = route
        if what == "path":
            return self.server_for_path(key)
        return self.server_for_file(int(key))

    def _refresh_map(self) -> Generator[Event, Any, None]:
        """Pull the current shard map from the coordinator."""
        if self.coordinator is None:
            return
        from repro.cluster.shardmap import ShardMap
        try:
            reply = yield from self.endpoint.request(
                self.coordinator, MsgKind.CLUSTER_MAP_FETCH, {})
        except (DeliveryError, NackError):
            return
        self._apply_map(ShardMap.from_payload(reply.payload["map"]))

    def _on_map_push(self, msg: Message):
        """Coordinator-pushed map update (takeover/failback broadcast)."""
        from repro.cluster.shardmap import ShardMap
        self._apply_map(ShardMap.from_payload(msg.payload["map"]))
        return ("ack", {})

    def _apply_map(self, new_map: Any) -> None:
        """Adopt a newer shard map and migrate per-file bookkeeping.

        Every file whose slot moved is re-pointed at its new owner
        (``_file_server`` and open instances), and for each server that
        gained files we hold locks from, a reassertion pass re-claims
        them there — the same client-driven recovery as a restart, §6.
        """
        if self.shard_map is None:
            return
        if new_map.epoch <= self.shard_map.epoch:
            return
        self.shard_map = new_map
        gained: set = set()
        for fid, slot in self._file_slot.items():
            owner = new_map.owner_of_slot(slot)
            if self._file_server.get(fid) != owner:
                self._file_server[fid] = owner
                self.shard_migrations += 1
                if self.locks.mode_of(fid) != LockMode.NONE:
                    gained.add(owner)
        for of in self.fds.all_open():
            owner = self.server_for_file(of.file_id)
            if of.server != owner:
                of.server = owner
        self.trace.emit(self.sim.now, "client.map_update", self.name,
                        epoch=new_map.epoch, migrated=len(gained))
        for srv in sorted(gained):
            self.sim.process(self._reassert_locks(srv),
                             name=f"{self.name}:reassert:{srv}")

    def on_reply(self, reply: Message, renewal_time: Optional[float]) -> None:
        """Every reply to one of our requests: learn the server's epoch
        from an ACK (§6), then let it renew the lease (§3.1); a lease
        NACK invalidates the lease (§3.3)."""
        lease = self.leases.get(reply.src)
        if reply.kind == MsgKind.NACK:
            # Only the transport-level lease NACK invalidates the lease;
            # ordinary error replies ("exists", "no such file",
            # "reassert_conflict") are application outcomes.
            if lease is not None and reply.payload.get("__lease_nack__"):
                lease.on_nack()
            return
        self._on_epoch(reply)
        if lease is not None and renewal_time is not None:
            lease.renew(renewal_time)

    def _admit(self, server: Optional[str] = None) -> None:
        """Gate new application requests on the target server's lease
        phase (§3.2): past phase 2 they are refused, not queued."""
        if self.admission_check is not None and not self.admission_check():
            self.ops_rejected += 1
            self.trace.emit(self.sim.now, "app.rejected", self.name, phase=-1)
            raise ClientDisconnectedError(f"{self.name}: agent lease invalid")
        lease = self.leases.get(server or self.server)
        if lease is None:
            return
        ph = lease.phase()
        if ph.serves_new_requests:
            return
        if not lease.active and not lease._ever_active:
            return  # first contact bootstraps the lease
        self.ops_rejected += 1
        self.trace.emit(self.sim.now, "app.rejected", self.name, phase=int(ph))
        if ph == LeasePhase.EXPIRED:
            raise ClientDisconnectedError(f"{self.name}: no valid lease")
        raise ClientQuiescedError(f"{self.name}: lease phase {ph.name}")

    def _enter(self) -> None:
        self._in_flight += 1
        if self._drained.triggered:
            self._drained = self.sim.event()

    def _exit(self) -> None:
        self._in_flight -= 1
        if self._in_flight == 0 and not self._drained.triggered:
            self._drained.succeed()

    def _pin_file(self, file_id: int) -> None:
        """Mark an operation as actively using this file's lock."""
        self._file_inflight[file_id] = self._file_inflight.get(file_id, 0) + 1

    def _unpin_file(self, file_id: int) -> None:
        n = self._file_inflight.get(file_id, 1) - 1
        if n <= 0:
            self._file_inflight.pop(file_id, None)
            ev = self._file_drain_evs.pop(file_id, None)
            if ev is not None and not ev.triggered:
                ev.succeed()
        else:
            self._file_inflight[file_id] = n

    def _wait_file_drain(self, file_id: int) -> Generator[Event, Any, None]:
        """Wait until no operation is using the file's lock."""
        while self._file_inflight.get(file_id, 0) > 0:
            ev = self._file_drain_evs.get(file_id)
            if ev is None or ev.triggered:
                ev = self.sim.event()
                self._file_drain_evs[file_id] = ev
            yield ev

    def _note_lock_revoked(self, file_id: int) -> None:
        """Record that this client gave up (or lost) the file's lock now."""
        self._lock_revoked_at[file_id] = self.sim.now

    def _lock_reply_stale(self, file_id: int, sent_at: float) -> bool:
        """True if a lock mode in a reply to a request sent at ``sent_at``
        must be discarded: the lock was (or is being) revoked since the
        request left, so the grant describes a lock we no longer hold."""
        return (file_id in self._revoking
                or self._lock_revoked_at.get(file_id, -1.0) >= sent_at)

    def _ensure_lock(self, of: OpenFile, mode: LockMode,
                     ) -> Generator[Event, Any, None]:
        """Make sure the open instance is covered by ``mode``.

        While a demand compliance is revoking this file's lock, new
        operations must not ride the dying lock: they go to the server,
        whose waiter queue serializes them behind the revocation.
        """
        while True:
            while of.file_id in self._revoking:
                yield self.sim.timeout(0.01)
            wanted = max(mode, of.wanted_lock) if not of.stale \
                else of.wanted_lock
            if not of.stale and self.locks.covers(of.file_id, mode):
                if of.lock < mode:
                    of.lock = self.locks.mode_of(of.file_id)
                return
            sent_at = self.sim.now
            held = self._layouts.get(of.file_id)
            reply = yield from self._rpc(MsgKind.LOCK_ACQUIRE,
                                         {"file_id": of.file_id,
                                          "mode": int(wanted),
                                          **_layout_hint(of.file_id, held)},
                                         of.server, route=("file", of.file_id))
            if not self._lock_reply_stale(of.file_id, sent_at):
                break
            # The grant was revoked while the reply was in flight (e.g.
            # a demand compliance released it): discard and re-acquire
            # against the server's current state.
            self._drop_file(of.file_id)
            of.stale = True
        granted = LockMode(int(reply.payload["mode"]))
        self.locks.note_granted(of.file_id, granted)
        if of.stale:
            # Revalidation after staleness: cached pages may be outdated.
            self._drop_file(of.file_id)
            of.stale = False
        # The grant's own payload carries fresh attrs/extents — adopt
        # them instead of re-fetching through a second parse path.
        self._apply_meta_reply(of, reply.payload, held)
        of.lock = granted

    def _apply_meta_reply(self, of: OpenFile, payload: Dict[str, Any],
                          held: Optional[ExtentMap]) -> None:
        """Adopt the attrs/layout a reply carried (missing keys keep the
        current view) — the single parse path for every reply that
        returns file metadata alongside its main result.

        ``held`` is the map object the *request* advertised
        (``_layout_hint``), or None.  The reply's runs are applied to
        that object by position (``ExtentMap.apply_runs``), never to
        whatever the cache holds by now: a duplicated, reordered or
        concurrent reply then adds what is missing and nothing else, and
        a map can only grow.  A reply that names another generation than
        ``held`` (or comes without one) is a full list and starts a new
        map."""
        attrs = payload.get("attrs")
        if attrs:
            of.attrs = FileAttributes.from_payload(attrs)
        if "extents" in payload:
            gen = int(payload["layout_gen"])
            if held is None or held.layout_gen != gen:
                held = ExtentMap(layout_gen=gen)
            held.apply_runs(int(payload["extents_from"]), payload["extents"])
            of.extents = self._layouts[of.file_id] = held

    def _drop_file(self, file_id: int) -> List[Page]:
        """Drop a file's cached pages and its cached block map; returns
        the dropped *dirty* pages (the caller reports them)."""
        self._layouts.pop(file_id, None)
        return self.cache.invalidate_file(file_id)

    def _fetch_blocks(self, of: OpenFile, blocks: List[int],
                      ) -> Generator[Event, Any, List[Tuple[int, Optional[str]]]]:
        """Read missing blocks (direct SAN, or function-shipped through
        the server for the E1 traditional baseline) into the cache."""
        out: List[Tuple[int, Optional[str]]] = []
        for lb in blocks:
            device, lba = of.resolve(lb)
            if self.config.data_path == "server":
                reply = yield from self._rpc(MsgKind.DATA_READ,
                                             {"file_id": of.file_id, "block": lb},
                                             of.server,
                                             route=("file", of.file_id))
                tag = reply.payload.get("tag")
                version = int(reply.payload.get("version", -1))
            else:
                try:
                    results = yield from self.san.read(self.name, device, lba, 1)
                except (FencedIoError, SanUnreachableError) as exc:
                    self.app_errors += 1
                    self.trace.emit(self.sim.now, "app.error", self.name,
                                    file_id=of.file_id, tag=None,
                                    reason=type(exc).__name__)
                    raise ClientIOError(str(exc)) from exc
                tag, version = results[0].tag, results[0].version
            self.cache.put_clean(Page(file_id=of.file_id, logical_block=lb,
                                      device=device, lba=lba, tag=tag,
                                      version=version))
            out.append((lb, tag))
        return out

    # -- write-back -----------------------------------------------------------
    def _writeback_daemon(self) -> Generator[Event, Any, None]:
        while True:
            yield self.endpoint.local_timeout(self.config.writeback_interval)
            yield from self._flush_dirty(None)

    def _flush_dirty(self, file_id: Optional[int],
                     report_errors: bool = True) -> Generator[Event, Any, int]:
        """Harden dirty pages to the SAN; returns pages flushed.

        SAN failures (fence, partition) emit ``app.error`` for every
        affected tag — the client *detects and reports*, which is the
        behaviour fencing-only cannot deliver before its first I/O.
        """
        dirty = self.cache.dirty_pages(file_id)
        if not dirty:
            return 0
        if self.config.data_path == "server":
            return (yield from self._flush_via_server(dirty, report_errors))
        by_device: Dict[str, List[Page]] = {}
        for p in dirty:
            by_device.setdefault(p.device, []).append(p)
        untried = set(map(id, dirty))
        flushed = 0
        for device, pages in by_device.items():
            untried.difference_update(map(id, pages))
            block_tags = {p.lba: p.tag for p in pages if p.tag is not None}
            try:
                versions = yield from self.san.write(self.name, device, block_tags)
            except (FencedIoError, SanUnreachableError) as exc:
                if report_errors:
                    self._report_failed_flush(pages, untried, exc)
                continue
            for p in pages:
                # The tag that went to disk, not ``p.tag``: the page may
                # have been rewritten while the write was in flight.
                tag = block_tags.get(p.lba)
                self.cache.mark_flushed(p, versions.get(p.lba, -1), tag)
                self.trace.emit(self.sim.now, "cache.flushed", self.name,
                                file_id=p.file_id, tag=tag,
                                block=p.logical_block, device=p.device, lba=p.lba)
                flushed += 1
        return flushed

    def _flush_via_server(self, dirty: List[Page], report_errors: bool,
                          ) -> Generator[Event, Any, int]:
        """Function-shipped write-back (E1 baseline): each dirty page goes
        to the server over the control network."""
        untried = set(map(id, dirty))
        flushed = 0
        for p in dirty:
            untried.discard(id(p))
            tag = p.tag  # what ships; the page may be rewritten meanwhile
            try:
                reply = yield from self._rpc(
                    MsgKind.DATA_WRITE,
                    {"file_id": p.file_id, "block": p.logical_block,
                     "tag": tag, "data_bytes": BLOCK_SIZE},
                    self.server_for_file(p.file_id),
                    route=("file", p.file_id))
            except (DeliveryError, NackError) as exc:
                if report_errors:
                    self._report_failed_flush([p], untried, exc)
                continue
            self.cache.mark_flushed(p, int(reply.payload.get("version", -1)),
                                    tag)
            self.trace.emit(self.sim.now, "cache.flushed", self.name,
                            file_id=p.file_id, tag=tag,
                            block=p.logical_block, device=p.device, lba=p.lba)
            flushed += 1
        return flushed

    def _report_failed_flush(self, pages: List[Page], untried: Set[int],
                             exc: Exception) -> None:
        """The write-back of ``pages`` failed: drop their files from the
        cache and emit ``app.error`` for every acknowledged write that
        is lost with them (``lost_to_failed_flush``: the pages, then
        whatever else the drop discarded)."""
        for p in lost_to_failed_flush(pages, untried, self._drop_file):
            self.app_errors += 1
            self.trace.emit(self.sim.now, "app.error", self.name,
                            file_id=p.file_id, tag=p.tag,
                            reason=type(exc).__name__)

    # -- lease callbacks -------------------------------------------------------
    def _keepalive_sender(self, server: str):
        def spawn() -> None:
            def send() -> Generator[Event, Any, None]:
                self.keepalives_sent += 1
                self._m_lease_msgs.inc()
                self.trace.emit(self.sim.now, "lease.keepalive", self.name,
                                server=server)
                try:
                    yield from self._rpc(MsgKind.KEEPALIVE, {}, server)
                except (DeliveryError, NackError):
                    pass  # listeners already informed the lease manager
            self.sim.process(send(), name=f"{self.name}:keepalive:{server}")
        return spawn

    def _quiesce(self) -> None:
        self._quiesced = True
        self.trace.emit(self.sim.now, "client.quiesce", self.name)

    def _unquiesce(self) -> None:
        if self._quiesced:
            self.trace.emit(self.sim.now, "client.resume", self.name)
        self._quiesced = False

    def _files_of_server(self, server: str) -> List[int]:
        return [fid for fid, srv in self._file_server.items() if srv == server]

    def _flush_all_spawner(self, server: str):
        def spawn() -> None:
            def run() -> Generator[Event, Any, None]:
                # Phase 3 ends before phase 4 begins: in-flight operations
                # have until the flush boundary to drain (§3.2); we start
                # flushing immediately but wait for stragglers too.
                if self._in_flight and not self._drained.triggered:
                    yield self._drained
                if len(self.servers) == 1:
                    yield from self._flush_dirty(None)
                else:
                    for fid in self._files_of_server(server):
                        yield from self._flush_dirty(fid)
            self.sim.process(run(), name=f"{self.name}:phase4-flush:{server}")
        return spawn

    def _expiry_handler(self, server: str):
        def on_expired() -> None:
            self._on_lease_expired(server)
        return on_expired

    def _on_lease_expired(self, server: Optional[str] = None) -> None:
        """Invalidate cache and cede locks — for one server's files in a
        multi-server installation, or everything otherwise."""
        # Attest the lapse: every subsequent RPC carries the bumped
        # generation, which is the server's evidence that this client
        # *observed* phase 4 and discarded its state — the precondition
        # for lifting a §6 fence.  A client that never quiesces (or a
        # pre-lapse retry) never carries a fresh generation.
        self.endpoint.lapse_gen += 1
        if server is None or len(self.servers) == 1:
            dropped = self.cache.invalidate_all()
            for fid, _mode in self.locks.all_held():
                self._note_lock_revoked(fid)
            self.locks.drop_all()
            self.fds.mark_all_stale()
            self._attr_cache.clear()
            self._layouts.clear()
        else:
            dropped = []
            fids = self._files_of_server(server)
            for fid in fids:
                dropped.extend(self._drop_file(fid))
                self._note_lock_revoked(fid)
                self.locks.note_released(fid)
            self.fds.mark_stale_for(fids)
        for p in dropped:
            # Dirty data that survived phase 4 could not be hardened;
            # report the loss to the application rather than hide it.
            self.app_errors += 1
            self.trace.emit(self.sim.now, "app.error", self.name,
                            file_id=p.file_id, tag=p.tag, reason="lease_expired")
        self.trace.emit(self.sim.now, "client.lease_lost", self.name,
                        server=server or self.server,
                        dirty_dropped=len(dropped),
                        in_flight=self._in_flight)

    # -- §6 server recovery: lock reassertion ---------------------------------
    def _on_epoch(self, msg: Message) -> None:
        epoch = msg.payload.get("__epoch__")
        if epoch is None:
            return
        known = self._server_epoch.get(msg.src)
        if known is None:
            self._server_epoch[msg.src] = int(epoch)
            return
        if int(epoch) != known:
            self._server_epoch[msg.src] = int(epoch)
            self.trace.emit(self.sim.now, "client.epoch_change", self.name,
                            server=msg.src, epoch=int(epoch))
            self.sim.process(self._reassert_locks(msg.src),
                             name=f"{self.name}:reassert:{msg.src}")

    def _reassert_locks(self, server: str) -> Generator[Event, Any, None]:
        """Re-claim every cached lock held from a restarted (or, under a
        cluster, newly owning) server.

        A refused reassertion (someone else claimed the object first)
        forfeits the lock and invalidates that file's cache.
        """
        pending = [(obj, mode) for obj, mode in self.locks.all_held()
                   if self.server_for_file(obj) == server]
        for i, (obj, mode) in enumerate(pending):
            try:
                yield from self._reassert_one(obj, mode, server)
            except DeliveryError:
                # Server unreachable again, and the epoch is already
                # recorded — no later ACK will restart this sweep.  A
                # lock the restarted server never re-learned is a lock
                # it will happily grant elsewhere once its grace window
                # closes, so forfeit everything not yet reasserted.
                for fobj, _fmode in pending[i:]:
                    self._note_lock_revoked(fobj)
                    self.locks.note_released(fobj)
                    dropped = self._drop_file(fobj)
                    for p in dropped:
                        self.app_errors += 1
                        self.trace.emit(self.sim.now, "app.error", self.name,
                                        file_id=fobj, tag=p.tag,
                                        reason="reassert_abandoned")
                    for of in self.fds.by_file_id(fobj):
                        of.lock = LockMode.NONE
                        of.stale = True
                return

    def _reassert_one(self, obj: int, mode: LockMode, server: str,
                      retried: bool = False) -> Generator[Event, Any, None]:
        self.reasserts_sent += 1
        try:
            yield from self.endpoint.request(server, MsgKind.LOCK_REASSERT,
                                             {"file_id": obj,
                                              "mode": int(mode)})
            self.trace.emit(self.sim.now, "client.reasserted", self.name,
                            file_id=obj, mode=int(mode))
        except NackError as exc:
            if _routing_refusal(exc) and self.shard_map is not None \
                    and not retried:
                # The slot moved again (e.g. failback raced us): follow
                # the map once rather than forfeiting a live lock.
                self.rerouted_ops += 1
                yield from self._refresh_map()
                new_owner = self.server_for_file(obj)
                if new_owner != server:
                    yield from self._reassert_one(obj, mode, new_owner,
                                                  retried=True)
                    return
            self._note_lock_revoked(obj)
            self.locks.note_released(obj)
            dropped = self._drop_file(obj)
            for p in dropped:
                self.app_errors += 1
                self.trace.emit(self.sim.now, "app.error", self.name,
                                file_id=obj, tag=p.tag,
                                reason="reassert_refused")
            for of in self.fds.by_file_id(obj):
                of.lock = LockMode.NONE
                of.stale = True

    def force_lease_expiry(self) -> None:
        """Invalidate the cache and cede all locks immediately.

        Used by baseline client agents (Frangipani heartbeats, V-leases)
        that manage lease lifetime outside the Storage Tank state machine.
        """
        self._on_lease_expired()

    # -- server-initiated handlers ----------------------------------------------
    def _on_lock_demand(self, msg: Message):
        """The server demands a lock back (conflict elsewhere).

        ACK immediately (receipt), then comply asynchronously: flush the
        file's dirty pages, then release or downgrade.
        """
        file_id = int(msg.payload["file_id"])
        needed = LockMode(int(msg.payload["needed_mode"]))
        self.sim.process(self._comply_demand(file_id, needed, msg.src),
                         name=f"{self.name}:comply:{file_id}")
        return ("ack", {"status": "demand_received"})

    def _on_range_demand(self, msg: Message):
        """A server probes a range-lock holder for liveness.

        Holders release ranges as part of the operation itself, so
        acknowledging receipt is the whole protocol; record which file
        drew the demand for the contention census.  Bare demands (no
        file named) are pure liveness pings and only need the ack.
        """
        file_id = msg.payload.get("file_id")
        if file_id is not None:
            fid = int(file_id)
            self.range_demands_seen[fid] = \
                self.range_demands_seen.get(fid, 0) + 1
        return ("ack", {})

    def _comply_demand(self, file_id: int, needed: LockMode, server: str,
                       ) -> Generator[Event, Any, None]:
        held = self.locks.mode_of(file_id)
        if held == LockMode.NONE:
            return
        # Stop new operations from riding the lock, drain current users,
        # then flush what they wrote — only then give the lock back.
        self._revoking.add(file_id)
        try:
            yield from self._wait_file_drain(file_id)
            yield from self._flush_dirty(file_id)
            yield from self._yield_lock(file_id, needed, server)
        finally:
            self._revoking.discard(file_id)

    def _yield_lock(self, file_id: int, needed: LockMode, server: str,
                    ) -> Generator[Event, Any, None]:
        held = self.locks.mode_of(file_id)
        if held == LockMode.NONE:
            return
        try:
            if needed == LockMode.SHARED and held == LockMode.EXCLUSIVE:
                yield from self._rpc(MsgKind.LOCK_DOWNGRADE,
                                     {"file_id": file_id,
                                      "to": int(LockMode.SHARED)}, server)
                self._note_lock_revoked(file_id)
                self.locks.note_downgraded(file_id, LockMode.SHARED)
                for of in self.fds.by_file_id(file_id):
                    of.lock = LockMode.SHARED
            else:
                self._drop_file(file_id)
                yield from self._rpc(MsgKind.LOCK_RELEASE,
                                     {"file_id": file_id}, server)
                self._note_lock_revoked(file_id)
                self.locks.note_released(file_id)
                for of in self.fds.by_file_id(file_id):
                    of.lock = LockMode.NONE
        except (NackError, DeliveryError):
            # Either every ACK was lost, or a retransmit was NACKed by
            # the suspect gatekeeper (which answers before the dedup
            # cache).  In both cases the server may well have executed
            # the release (at-most-once) and granted the lock elsewhere,
            # while our lease keeps renewing off other traffic, so
            # expiry will not save us.  Forfeit locally — dropping a
            # lock we might still own is always safe.
            self._drop_file(file_id)
            self._note_lock_revoked(file_id)
            self.locks.note_released(file_id)
            for of in self.fds.by_file_id(file_id):
                of.lock = LockMode.NONE
                of.stale = True

    def _on_cache_invalidate(self, msg: Message):
        """Server-pushed invalidation of a file's cached pages."""
        file_id = int(msg.payload["file_id"])
        self._drop_file(file_id)
        return ("ack", {})
