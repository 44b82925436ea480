"""The Storage Tank client node.

The paper's client is four small things stacked, and so is this one: a
lease interval per server (§3, :class:`~repro.lease.agent.LeaseAgent`),
cached locks that are demanded back and reasserted (§2, §6,
:class:`~repro.client.lockclient.LockClient`), a write-back data path
straight to the SAN (§1.1, :class:`~repro.client.datapath.DataPath`,
which states the audit contract) and, on top, the POSIX-flavoured API
local applications call: :class:`StorageTankClient`, the façade, with
:class:`~repro.client.routing.Router` picking each request's server.
The façade admits operations by lease phase, counts them in and out,
strings the layers together per operation and orchestrates what a lease
expiry discards.  All methods that touch the network or the SAN are
process generators (``yield from client.read(...)``).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Dict, Generator, Iterable, List, Optional, Tuple

from repro.client.datapath import Blocks, ClientIOError, DataPath
from repro.client.lockclient import LockClient
from repro.client.openfile import FdTable
from repro.client.routing import Router
from repro.lease.agent import LeaseAgent
from repro.lease.client_lease import ClientLeaseManager
from repro.lease.contract import LeaseContract
from repro.lease.phases import LeasePhase
from repro.locks.modes import LockMode
from repro.metadata.inode import FileAttributes
from repro.net.control import ControlNetwork, Endpoint, RetryPolicy
from repro.net.message import (Batch, Close, Create, DeliveryError, Getattr,
                               MsgKind, NackError, OpenIntent, PathOnly,
                               Setattr)
from repro.net.san import SanFabric
from repro.obs import Observability
from repro.sim.clock import LocalClock
from repro.sim.events import Event
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceRecorder
from repro.storage.blockmap import ExtentMap

__all__ = ["ClientConfig", "ClientDisconnectedError", "ClientIOError",
           "ClientQuiescedError", "StorageTankClient", "fleet_rpcs"]


class ClientQuiescedError(Exception):
    """The lease is suspect/expired; new requests are not admitted (§3.2)."""


class ClientDisconnectedError(Exception):
    """No valid lease with the server; operation refused."""


class _InFlight:
    """The client's operation bracket, one reusable ``with`` target:
    counts operations in and out.  ``drained`` is None until the
    phase-4 flush has to wait for in-flight operations (§3.2); only
    then is it made, and the last operation to leave succeeds it, so an
    operation nobody waits on schedules nothing."""

    __slots__ = ("sim", "in_flight", "drained", "_bound_exit")

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.in_flight = 0
        self.drained: Optional[Event] = None
        self._bound_exit = self._exit_op

    def __enter__(self) -> None:
        self.in_flight += 1

    # A ``with`` binds ``__exit__`` afresh and holds it for the whole
    # block, across every wait of the operation; serving the one bound
    # at construction (read in C, no Python call) keeps an operation
    # from allocating anything.
    __exit__ = property(attrgetter("_bound_exit"))

    def _exit_op(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.in_flight -= 1
        # GeneratorExit: the garbage collector is finalizing a dead
        # system's operation.  Scheduling now would revive its simulator.
        if exc_type is GeneratorExit:
            return
        if self.in_flight == 0 and self.drained is not None:
            self.drained.succeed()
            self.drained = None

    def wait_drained(self) -> Event:
        """The event the last in-flight operation succeeds on leaving."""
        if self.drained is None:
            self.drained = self.sim.event()
        return self.drained


@dataclass
class ClientConfig:
    """Tunables for one client node."""

    writeback_interval: float = 5.0     # local seconds between write-back scans
    rpc_timeout: float = 1.0            # local seconds per datagram attempt
    rpc_retries: int = 3
    use_leases: bool = True             # False for baseline clients
    data_path: str = "direct"           # "direct" (SAN) | "server" (function ship)


class StorageTankClient:
    """One client computer."""

    #: The ``KIND_GROUPS`` it serves (its lock layer registers them),
    #: checked when it is built.
    HANDLES = ("client-demands",)

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
        self.config = config or ClientConfig()
        self.trace = trace if trace is not None else net.trace
        self.contract = contract

        policy = RetryPolicy(timeout=self.config.rpc_timeout,
                             retries=self.config.rpc_retries)
        self.endpoint = Endpoint(sim, net, name, clock, trace=self.trace,
                                 default_policy=policy)
        self.endpoint.obs = self.obs
        san.attach_initiator(name)

        # The layers, bottom up.  Each owns its state; ``cache``,
        # ``locks`` and ``leases`` are their objects, not copies.
        self.routing = Router(self.endpoint, server, self._on_map_change)
        self.servers = self.routing.servers
        self.server = self.routing.server  # primary (routing fallback)
        self._rpc = self.routing.rpc
        self.data = DataPath(
            sim, san, name, self.trace,
            rpc=self._rpc if self.config.data_path == "server" else None)
        self.cache = self.data.cache
        self.fds = FdTable()
        self.lockclient = LockClient(sim, self.endpoint, self.routing,
                                     self.data, self.fds, self.trace)
        self.locks = self.lockclient.table
        self.endpoint.check_handles(self.HANDLES)

        self._busy = _InFlight(sim)
        # Application-visible counters.
        self.ops_completed = 0
        self.ops_rejected = 0
        # Deferred closes: per-server file ids whose close census rides
        # the next LOCK_BATCH instead of its own datagram.
        self._pending_closes: Dict[str, List[int]] = {}

        # Without leases (a baseline client) the agent still watches
        # server epochs: reassertion after a restart is not lease work.
        self.lease_agent = LeaseAgent(
            sim, self.endpoint,
            self.servers if self.config.use_leases else (), contract,
            on_expired=self._on_lease_expired,
            on_epoch_change=self._spawn_reassert,
            on_flush=self._spawn_phase4_flush,
            request=lambda srv, kind, payload: self._rpc(kind, payload, srv),
            trace=self.trace, obs=self.obs)
        self.leases = self.lease_agent.leases

        # Optional external admission gate (baseline agents install one:
        # e.g. Frangipani checks its heartbeat lease before every op).
        self.admission_check = None

        # A non-positive interval disables the standing write-back timer
        # entirely (for workloads that flush explicitly).
        if self.config.writeback_interval > 0:
            sim.process(self._writeback_daemon(), name=f"{name}:writeback")

    # ------------------------------------------------------------------
    # application API (process generators)
    # ------------------------------------------------------------------
    def create(self, path: str, size: int = 0) -> Generator[Event, Any, int]:
        """Create a file on its owning server; returns its file id."""
        srv = self.routing.server_for_path(path)
        self._admit(srv)
        with self._busy:
            reply = yield from self._rpc(MsgKind.CREATE, Create(path, size),
                                         srv, route=("path", path))
            fid = int(reply.payload["file_id"])
            self._note_file(fid, path)
            return fid

    def open_file(self, path: str, mode: str = "r") -> Generator[Event, Any, int]:
        """Open a file, acquiring its data lock; returns a descriptor."""
        if mode not in ("r", "w"):
            raise ValueError(f"mode must be 'r' or 'w', got {mode!r}")
        srv = self.routing.server_for_path(path)
        self._admit(srv)
        with self._busy:
            sent_at = self.sim.now
            held_fid = self.data.path_fid.get(path)
            held = self.data.layouts.get(held_fid)
            p = yield from self._intent_open(
                OpenIntent(path, mode,
                           self.data.layout_hint(held_fid, held)), srv)
            fid = int(p["file_id"])
            owner = self._note_file(fid, path)
            of = self.fds.install(path, fid, mode, FileAttributes(),
                                  ExtentMap(), LockMode.NONE, server=owner)
            if not self.lockclient.adopt_grant(
                    of, p, held if fid == held_fid else None, sent_at):
                # The lock was revoked while the open was in flight; the
                # first operation revalidates via a fresh acquire.
                of.stale = True
            self.ops_completed += 1
            return of.fd

    def _intent_open(self, op: OpenIntent, srv: str,
                     ) -> Generator[Event, Any, Dict[str, Any]]:
        """One-round-trip open: the lock request carries the operation
        (``op``, the open descriptor).

        Deferred closes for this server ride the same datagram as a
        LOCK_BATCH, so an open→close→open cycle costs one message."""
        path = op.path
        closes = self._pending_closes.pop(srv, None)
        if not closes:
            reply = yield from self._rpc(MsgKind.LOCK_INTENT, op, srv,
                                         route=("path", path))
            return reply.payload
        batch = Batch((*(Close(fid) for fid in closes), op))
        try:
            reply = yield from self._rpc(MsgKind.LOCK_BATCH, batch,
                                         srv, route=("path", path))
        except (DeliveryError, NackError):
            # The piggybacked closes may not have landed: re-queue them
            # so the census rides a later batch.
            self._pending_closes.setdefault(srv, [])[:0] = closes
            raise
        res = dict(reply.payload["results"][-1])
        if not res.pop("ok", False):
            # Surface the failed open sub-op as a lone open intent would.
            raise NackError.refused_in_batch(self.name, srv, op,
                                             res.get("error", ""))
        return res

    def read(self, fd: int, offset: int, nbytes: int,
             ) -> Generator[Event, Any, Blocks]:
        """Read a byte range; returns ``(logical_block, tag)`` pairs.

        Serves from cache under a SHARED-or-better lock; misses go
        directly to the SAN.
        """
        of = self.fds.get(fd)
        self._admit(of.server)
        with self._busy:
            yield from self.lockclient.ensure_lock(of, LockMode.SHARED)
            with self.lockclient.pin(of.file_id):
                out = yield from self.data.read(of, offset, nbytes)
                self.ops_completed += 1
                return out

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
        with self._busy:
            yield from self.lockclient.ensure_lock(of, LockMode.EXCLUSIVE)
            with self.lockclient.pin(of.file_id):
                end = offset + nbytes
                if end > of.extents.size_bytes:
                    # Growth folds into a setattr intent: the reply is
                    # op-result + (idempotent) grant in one round trip.
                    sent_at = self.sim.now
                    held = self.data.layouts.get(of.file_id)
                    hint = self.data.layout_hint(of.file_id, held)
                    reply = yield from self._rpc(
                        MsgKind.LOCK_INTENT,
                        Setattr(of.file_id, size=end, have_layout=hint),
                        of.server, route=("file", of.file_id))
                    self.lockclient.adopt_grant(of, reply.payload, held,
                                                sent_at)
                tag = self.data.write(of, offset, nbytes)
                self.ops_completed += 1
                return tag

    def flush(self, fd: Optional[int] = None) -> Generator[Event, Any, int]:
        """Write dirty pages (of one file, or all) to the SAN; returns the
        number of pages hardened."""
        file_id = self.fds.get(fd).file_id if fd is not None else None
        return (yield from self.data.flush(file_id))

    def close(self, fd: int) -> Generator[Event, Any, None]:
        """Close a descriptor.  Flushes that file's dirty pages first;
        the data lock stays cached (lock caching, §3.1)."""
        of = self.fds.get(fd)
        yield from self.data.flush(of.file_id)
        with self._busy:
            # Close is advisory bookkeeping (§3.1), so it need not cost
            # a datagram: the census update rides the next LOCK_BATCH to
            # this server.
            self._pending_closes.setdefault(of.server, []).append(of.file_id)
            self.fds.close(fd)
            self.ops_completed += 1

    def read_range_locked(self, fd: int, offset: int, nbytes: int,
                          ) -> Generator[Event, Any, Blocks]:
        """Read one range under a SHARED byte-range lock: a one-element
        ``read_ranges_locked``."""
        return (yield from self.read_ranges_locked(fd, [(offset, nbytes)]))[0]

    def write_range_locked(self, fd: int, offset: int, nbytes: int,
                           ) -> Generator[Event, Any, str]:
        """Write one range under an EXCLUSIVE byte-range lock: a
        one-element ``write_ranges_locked``."""
        return (yield from self.write_ranges_locked(fd, [(offset, nbytes)]))[0]

    def read_ranges_locked(self, fd: int, ranges: List[Tuple[int, int]],
                           ) -> Generator[Event, Any, List[Blocks]]:
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

        def read(offset: int, nbytes: int) -> Generator[Event, Any, Blocks]:
            out = yield from self.data.read(of, offset, nbytes,
                                            through_cache=False)
            self.ops_completed += 1
            return out
        with self._busy:
            return (yield from self.lockclient.ranges_locked(
                of, ranges, LockMode.SHARED, read))

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

        def write(offset: int, nbytes: int) -> Generator[Event, Any, str]:
            tag = yield from self.data.write_through(of, offset, nbytes)
            self.ops_completed += 1
            return tag
        with self._busy:
            return (yield from self.lockclient.ranges_locked(
                of, ranges, LockMode.EXCLUSIVE, write))

    def unlink(self, path: str) -> Generator[Event, Any, None]:
        """Remove a file.  The server demands the data lock from any
        cacher first; this client's own pages and lock are dropped."""
        srv = self.routing.server_for_path(path)
        self._admit(srv)
        with self._busy:
            reply = yield from self._rpc(MsgKind.UNLINK, PathOnly(path), srv,
                                         route=("path", path))
            fid = int(reply.payload["file_id"])
            self.data.drop_file(fid)
            self.data.path_fid.pop(path, None)
            self.locks.note_released(fid)
            self.routing.forget_file(fid)
            for of in self.fds.by_file_id(fid):
                of.stale = True
                of.lock = LockMode.NONE
            self.ops_completed += 1

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
                with self._busy:
                    reply = yield from self._rpc(MsgKind.READDIR,
                                                 PathOnly(path), srv)
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
        """Fetch a file's attributes from its owning server."""
        srv = self.routing.server_for_path(path)
        self._admit(srv)
        with self._busy:
            reply = yield from self._rpc(MsgKind.GETATTR, Getattr(path), srv,
                                         route=("path", path))
            self.ops_completed += 1
            return FileAttributes.from_payload(reply.payload["attrs"])

    def lookup(self, path: str) -> Generator[Event, Any, int]:
        """Resolve a path to its file id without opening or locking it.

        The lightest metadata read the server offers — and the bread and
        butter of the in-network cache tier, which serves repeats of it
        without a server transaction.
        """
        srv = self.routing.server_for_path(path)
        self._admit(srv)
        with self._busy:
            reply = yield from self._rpc(MsgKind.LOOKUP, PathOnly(path), srv,
                                         route=("path", path))
            self.ops_completed += 1
            return int(reply.payload["file_id"])

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

    @property
    def shard_map(self) -> Any:
        """The last shard map this client saw (None without a cluster)."""
        return self.routing.shard_map

    def server_for_path(self, path: str) -> str:
        """The metadata server owning a path."""
        return self.routing.server_for_path(path)

    def server_for_file(self, file_id: int) -> str:
        """The server owning a file id (primary if unknown)."""
        return self.routing.server_for_file(file_id)

    @property
    def app_errors(self) -> int:
        """Acknowledged writes and reads reported lost (``app.error``)."""
        return self.data.app_errors

    @property
    def keepalives_sent(self) -> int:
        """Phase-2 keep-alives sent, over all servers."""
        return self.lease_agent.keepalives_sent

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _note_file(self, fid: int, path: str) -> str:
        """Record a file's name and owner; returns the owner."""
        self.data.path_fid[path] = fid
        return self.routing.note_file_owner(fid, path)

    def _admit(self, server: Optional[str] = None) -> None:
        """Gate new application requests on the target server's lease
        phase (§3.2): past phase 2 they are refused, not queued."""
        if self.admission_check is not None and not self.admission_check():
            self.ops_rejected += 1
            self.trace.emit(self.sim.now, "app.rejected", self.name, -1)
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
        self.trace.emit(self.sim.now, "app.rejected", self.name, int(ph))
        if ph == LeasePhase.EXPIRED:
            raise ClientDisconnectedError(f"{self.name}: no valid lease")
        raise ClientQuiescedError(f"{self.name}: lease phase {ph.name}")

    def _writeback_daemon(self) -> Generator[Event, Any, None]:
        while True:
            yield self.endpoint.local_timeout(self.config.writeback_interval)
            yield from self.data.flush(None)

    # -- what the layers report upward ----------------------------------------
    def _spawn_phase4_flush(self, server: str) -> None:
        def run() -> Generator[Event, Any, None]:
            # Phase 3 ends before phase 4 begins: in-flight operations
            # have until the flush boundary to drain (§3.2); we start
            # flushing immediately but wait for stragglers too.
            if self._busy.in_flight:
                yield self._busy.wait_drained()
            if len(self.servers) == 1:
                yield from self.data.flush(None)
            else:
                for fid in self.routing.files_of_server(server):
                    yield from self.data.flush(fid)
        self.sim.process(run(), name=f"{self.name}:phase4-flush:{server}")

    def _on_lease_expired(self, server: Optional[str] = None) -> None:
        """Invalidate cache and cede locks — for one server's files in a
        multi-server installation, or everything otherwise."""
        if server is None or len(self.servers) == 1:
            dropped = self.data.drop_all()
            self.lockclient.drop_locks()
            self.fds.mark_all_stale()
        else:
            dropped = []
            fids = self.routing.files_of_server(server)
            for fid in fids:
                dropped.extend(self.data.drop_file(fid))
            self.lockclient.drop_locks(fids)
            self.fds.mark_stale_for(fids)
        for p in dropped:
            # Dirty data that survived phase 4 could not be hardened;
            # report the loss to the application rather than hide it.
            self.data.report_lost(p.file_id, p.tag, "lease_expired")
        self.trace.emit(self.sim.now, "client.lease_lost", self.name,
                        server or self.server, len(dropped),
                        self._busy.in_flight)

    def force_lease_expiry(self) -> None:
        """Invalidate the cache and cede all locks immediately.

        Used by baseline client agents (Frangipani heartbeats, V-leases)
        that manage lease lifetime outside the Storage Tank state machine.
        """
        self.lease_agent.expire()

    def _spawn_reassert(self, server: str) -> None:
        """§6: re-claim the locks held from a restarted (or newly
        owning) server."""
        self.sim.process(self.lockclient.reassert_locks(server),
                         name=f"{self.name}:reassert:{server}")

    def _on_map_change(self, epoch: int,
                       moved: List[Tuple[int, str]]) -> None:
        """A newer shard map moved files: re-point their open instances,
        and for each server that gained files we hold locks from,
        re-claim them there — the same client-driven recovery as a
        restart, §6."""
        gained = sorted({owner for fid, owner in moved
                         if self.locks.mode_of(fid) != LockMode.NONE})
        for of in self.fds.all_open():
            of.server = self.routing.server_for_file(of.file_id)
        self.trace.emit(self.sim.now, "client.map_update", self.name,
                        epoch, len(gained))
        for srv in gained:
            self._spawn_reassert(srv)


def fleet_rpcs(clients: Iterable[Any]) -> Dict[str, Any]:
    """Client-originated control messages per completed operation.

    The one definition of messages per op, summed over the Storage Tank
    clients among ``clients`` that completed an operation: ``ops``,
    round trips by kind (``by_kind``, :attr:`Endpoint.rpc_sent`) and
    those bar keep-alives (``rpcs``), which are the lease protocol's
    fixed-rate background (§3.2), not per-op traffic.  ``msgs_per_op``
    is ``rpcs / ops`` (0.0 without ops), so a polling client, or an idle
    client's heartbeats, count nothing.
    """
    ops = rpcs = 0
    by_kind: Dict[str, int] = {}
    for client in clients:
        if not isinstance(client, StorageTankClient) or not client.ops_completed:
            continue
        ops += client.ops_completed
        for kind, n in client.endpoint.rpc_sent.items():
            by_kind[kind] = by_kind.get(kind, 0) + n
            if kind != MsgKind.KEEPALIVE:
                rpcs += n
    return {"ops": ops, "rpcs": rpcs,
            "msgs_per_op": rpcs / ops if ops else 0.0,
            "by_kind": dict(sorted(by_kind.items()))}
