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

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.client.cache import Page, PageCache, lost_to_failed_flush
from repro.client.openfile import FdTable, OpenFile
from repro.locks.modes import LockMode
from repro.metadata.inode import FileAttributes
from repro.net.control import ControlNetwork, Endpoint, RetryPolicy
from repro.net.message import DeliveryError, MsgKind, NackError
from repro.net.san import SanFabric, SanUnreachableError
from repro.obs import Observability
from repro.sim.clock import LocalClock
from repro.sim.events import Event
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceRecorder
from repro.storage.blockmap import byte_range_to_blocks, extents_from_payload
from repro.storage.disk import FencedIoError


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
        self.cache = PageCache()
        self.fds = FdTable()
        self._write_seq = itertools.count(1)
        self._checked_at: Dict[int, float] = {}   # file_id -> local poll time
        self.polls_sent = 0
        self.ops_completed = 0
        self.app_errors = 0
        self._m_lease_msgs = self.obs.registry.counter(
            "lease.client.msgs_sent", "Client-originated lease messages",
            labels=("node",)).labels(node=name)

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
        p = reply.payload
        of = self.fds.install(path, int(p["file_id"]), mode,
                              FileAttributes.from_payload(p["attrs"]),
                              extents_from_payload(p["extents"]),
                              LockMode.NONE)
        self._checked_at[of.file_id] = self.endpoint.local_now()
        self.ops_completed += 1
        return of.fd

    def read(self, fd: int, offset: int, nbytes: int,
             ) -> Generator[Event, Any, List[Tuple[int, Optional[str]]]]:
        """Read a byte range; revalidates attributes first if stale."""
        of = self.fds.get(fd)
        yield from self._revalidate(of)
        first, count = byte_range_to_blocks(offset, nbytes)
        out: List[Tuple[int, Optional[str]]] = []
        for lb in range(first, first + count):
            page = self.cache.get(of.file_id, lb)
            if page is not None:
                out.append((lb, page.tag))
                continue
            device, lba = of.resolve(lb)
            recs = yield from self.san.read(self.name, device, lba, 1)
            rec = recs[0]
            self.cache.put_clean(Page(file_id=of.file_id, logical_block=lb,
                                      device=device, lba=lba, tag=rec.tag,
                                      version=rec.version))
            out.append((lb, rec.tag))
        for lb, tag in out:
            device, lba = of.resolve(lb)
            self.trace.emit(self.sim.now, "app.read", self.name,
                            file_id=of.file_id, block=lb, tag=tag,
                            device=device, lba=lba)
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
            of.attrs = FileAttributes.from_payload(reply.payload["attrs"])
            of.extents = extents_from_payload(reply.payload["extents"])
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
        flushed = 0
        by_device: Dict[str, List[Page]] = {}
        dirty = self.cache.dirty_pages(file_id)
        for p in dirty:
            by_device.setdefault(p.device, []).append(p)
        untried = set(map(id, dirty))
        for device, pages in by_device.items():
            untried.difference_update(map(id, pages))
            block_tags = {p.lba: p.tag for p in pages if p.tag is not None}
            try:
                versions = yield from self.san.write(self.name, device, block_tags)
            except (FencedIoError, SanUnreachableError) as exc:
                for p in lost_to_failed_flush(pages, untried,
                                              self.cache.invalidate_file):
                    self.app_errors += 1
                    self.trace.emit(self.sim.now, "app.error", self.name,
                                    file_id=p.file_id, tag=p.tag,
                                    reason=type(exc).__name__)
                continue
            for p in pages:
                tag = block_tags.get(p.lba)  # what was written, not p.tag
                self.cache.mark_flushed(p, versions.get(p.lba, -1), tag)
                self.trace.emit(self.sim.now, "cache.flushed", self.name,
                                file_id=p.file_id, tag=tag,
                                block=p.logical_block, device=p.device, lba=p.lba)
                flushed += 1
        return flushed

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
        attrs = FileAttributes.from_payload(reply.payload["attrs"])
        if attrs.version != of.attrs.version:
            self.cache.invalidate_file(of.file_id)
            of.extents = extents_from_payload(reply.payload["extents"])
        of.attrs = attrs
        self._checked_at[of.file_id] = self.endpoint.local_now()
