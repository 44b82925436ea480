"""NFS-style attribute polling (paper §5).

"Clients poll the server to find out when the file was last modified,
and determine whether the cached version is valid.  This scheme cannot
keep caches coherent.  However, it is simple in that servers keep no
lock state and do nothing when a failure occurs."

This client takes no locks at all.  Reads are served from cache while
the cached attributes are younger than ``attr_ttl`` (local clock); a
poll (GETATTR) revalidates, and a version change invalidates the file's
pages.  Writes are write-back with flush-on-close plus an attribute
touch so other pollers eventually notice (close-to-open-ish).

*Substitution note* (see DESIGN.md): real NFS ships data through the
server; to keep the E9 comparison about coherence traffic and staleness
on one substrate, this client still reads/writes the SAN directly.  The
polling cost and the staleness window — what the paper cites NFS for —
are preserved.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional

from repro.client.datapath import Blocks, DataPath
from repro.client.openfile import FdTable, OpenFile
from repro.locks.modes import LockMode
from repro.metadata.inode import FileAttributes
from repro.net.control import ControlNetwork, Endpoint, RetryPolicy
from repro.net.message import DeliveryError, MsgKind, NackError
from repro.net.san import SanFabric
from repro.obs import Observability
from repro.sim.clock import LocalClock
from repro.sim.events import Event
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceRecorder
from repro.storage.blockmap import ExtentMap


class NfsPollingClient:
    """A lock-less, polling client on the shared substrate."""

    def __init__(self, sim: Simulator, net: ControlNetwork, san: SanFabric,
                 name: str, server: str, clock: LocalClock,
                 attr_ttl: float = 3.0,
                 trace: Optional[TraceRecorder] = None,
                 obs: Optional[Observability] = None):
        self.sim = sim
        self.san = san
        self.name = name
        self.server = server
        self.attr_ttl = attr_ttl
        self.trace = trace if trace is not None else net.trace
        self.obs = obs if obs is not None else Observability()
        self.endpoint = Endpoint(sim, net, name, clock, trace=self.trace,
                                 default_policy=RetryPolicy(timeout=1.0, retries=3))
        self.endpoint.obs = self.obs
        san.attach_initiator(name)
        # The same data path as the Storage Tank client; what differs is
        # what makes a cached page valid (a poll, not a lock).
        self.data = DataPath(sim, san, name, self.trace)
        self.cache = self.data.cache
        self.fds = FdTable()
        self._checked_at: Dict[int, float] = {}   # file_id -> local poll time
        self.polls_sent = 0
        self.ops_completed = 0
        self._m_lease_msgs = self.obs.registry.counter(
            "lease.client.msgs_sent", "Client-originated lease messages",
            labels=("node",)).labels(node=name)

    @property
    def app_errors(self) -> int:
        """Acknowledged writes and reads reported lost (``app.error``)."""
        return self.data.app_errors

    @app_errors.setter
    def app_errors(self, value: int) -> None:
        self.data.app_errors = value

    def overhead_snapshot(self) -> Dict[str, float]:
        """Client-side counters for E7/E9 (``ClientAgent`` conformance)."""
        return {
            "ops_completed": float(self.ops_completed),
            "app_errors": float(self.app_errors),
            "polls_sent": float(self.polls_sent),
            "lease_msgs_sent": float(self.polls_sent),
        }

    # -- API (process generators) ---------------------------------------
    def create(self, path: str, size: int = 0) -> Generator[Event, Any, int]:
        """Create a file on the server."""
        reply = yield from self._rpc(MsgKind.CREATE, {"path": path, "size": size})
        return int(reply.payload["file_id"])

    def open_file(self, path: str, mode: str = "r") -> Generator[Event, Any, int]:
        """Open without any lock (``nolock``); returns a descriptor."""
        reply = yield from self._rpc(MsgKind.OPEN,
                                     {"path": path, "nolock": True})
        of = self.fds.install(path, int(reply.payload["file_id"]), mode,
                              FileAttributes(), ExtentMap(), LockMode.NONE)
        self.data.apply_meta_reply(of, reply.payload, None)
        self._checked_at[of.file_id] = self.endpoint.local_now()
        self.ops_completed += 1
        return of.fd

    def read(self, fd: int, offset: int, nbytes: int,
             ) -> Generator[Event, Any, Blocks]:
        """Read a byte range; revalidates attributes first if stale."""
        of = self.fds.get(fd)
        yield from self._revalidate(of)
        out = yield from self.data.read(of, offset, nbytes)
        self.ops_completed += 1
        return out

    def write(self, fd: int, offset: int, nbytes: int,
              ) -> Generator[Event, Any, str]:
        """Write into the cache; hardened on close/flush."""
        of = self.fds.get(fd)
        end = offset + nbytes
        if end > of.extents.size_bytes:
            reply = yield from self._rpc(MsgKind.SETATTR,
                                         {"file_id": of.file_id, "size": end})
            self.data.apply_meta_reply(of, reply.payload, None)
        tag = self.data.write(of, offset, nbytes)
        self.ops_completed += 1
        return tag

    def close(self, fd: int) -> Generator[Event, Any, None]:
        """Flush-on-close plus an attribute touch (close-to-open)."""
        of = self.fds.get(fd)
        yield from self.flush_file(of.file_id)
        try:
            yield from self._rpc(MsgKind.SETATTR, {"file_id": of.file_id})
        except (DeliveryError, NackError):
            pass
        self.fds.close(fd)
        self.ops_completed += 1

    def flush_file(self, file_id: int) -> Generator[Event, Any, int]:
        """Harden one file's dirty pages to the SAN."""
        return (yield from self.data.flush(file_id))

    # -- internals -----------------------------------------------------------
    def _rpc(self, kind: str, payload: Dict[str, Any]):
        return (yield from self.endpoint.request(self.server, kind, payload))

    def _revalidate(self, of: OpenFile) -> Generator[Event, Any, None]:
        now_local = self.endpoint.local_now()
        checked = self._checked_at.get(of.file_id)
        if checked is not None and now_local - checked < self.attr_ttl:
            return
        self.polls_sent += 1
        self._m_lease_msgs.inc()
        self.trace.emit(self.sim.now, "nfs.poll", self.name, file_id=of.file_id)
        try:
            reply = yield from self._rpc(MsgKind.OPEN,
                                         {"path": of.path, "nolock": True})
        except (DeliveryError, NackError):
            return  # keep serving the (possibly stale) cache, as NFS does
        changed = (FileAttributes.from_payload(reply.payload["attrs"]).version
                   != of.attrs.version)
        if changed:
            self.data.drop_file(of.file_id)
        self.data.apply_meta_reply(of, reply.payload,
                                   None if changed else of.extents)
        self._checked_at[of.file_id] = self.endpoint.local_now()
