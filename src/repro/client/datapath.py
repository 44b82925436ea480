"""The client's data path: a write-back page cache over the SAN (§1.1),
shared by every client kind that caches data (Storage Tank, NFS polling).

Failure semantics the audit relies on:

- every application write that is acknowledged gets a unique *tag* and
  an ``app.write.ack`` trace record;
- a tag either reaches shared storage (``san.write`` + disk history) or
  ``app.error`` is emitted for it (:meth:`DataPath.report_lost`, its
  only emitter) — silent loss is a protocol violation (invariant I2),
  not an accepted outcome;
- every application read emits ``app.read`` with the tags it returned,
  so stale reads are detectable offline (invariant I3).

The layer knows nothing of locks, leases or routing: its callers hold
what makes a cached page valid and tell it when that is lost.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.client.cache import Page, PageCache, lost_to_failed_flush
from repro.client.openfile import OpenFile
from repro.metadata.inode import FileAttributes
from repro.net.message import DeliveryError, Message, MsgKind, NackError
from repro.net.san import SanFabric, SanUnreachableError
from repro.sim.events import Event
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceRecorder
from repro.storage.blockmap import BLOCK_SIZE, ExtentMap, byte_range_to_blocks
from repro.storage.disk import FencedIoError

#: ``(logical_block, tag)`` pairs, what a read returns.
Blocks = List[Tuple[int, Optional[str]]]
#: ``Router.rpc``, called as ``rpc(kind, payload, route=("file", fid))``.
Rpc = Callable[..., Generator[Event, Any, Message]]

#: What hardening a batch can fail with: the SAN (direct path) or the
#: control network (function-shipped path).
_FLUSH_ERRORS = (FencedIoError, SanUnreachableError, DeliveryError, NackError)


class ClientIOError(Exception):
    """A data I/O failed at the SAN (fence or SAN partition) — the EIO
    the application sees.  Reported, never silent."""


class DataPath:
    """Page cache, cached block maps and SAN I/O of one client node."""

    def __init__(self, sim: Simulator, san: SanFabric, name: str,
                 trace: TraceRecorder, cache_capacity_pages: int = 65536,
                 rpc: Optional[Rpc] = None) -> None:
        """``rpc`` selects the traditional client/server data path (E1's
        baseline): block reads and write-back are function-shipped
        through it to the file's server instead of going to the SAN."""
        self.sim = sim
        self.san = san
        self.name = name
        self.trace = trace
        self._rpc = rpc
        self.cache = PageCache(cache_capacity_pages)
        self.app_errors = 0
        self._write_seq = itertools.count(1)
        # Parsed block maps, one per file and shared by its open
        # instances: file_id -> map, and path -> file_id so an open can
        # name what it holds.  Never trusted on its own: every use
        # follows a reply that names the generation and position the
        # map must have (``apply_meta_reply``).  Dropped with the file's
        # pages (``drop_file``) and with the lease (``drop_all``).
        self.layouts: Dict[int, ExtentMap] = {}
        self.path_fid: Dict[str, int] = {}

    # -- block maps ----------------------------------------------------------
    @staticmethod
    def layout_hint(file_id: Optional[int],
                    held: Optional[ExtentMap]) -> Dict[str, Any]:
        """Request fields naming the block map the client already holds,
        so the server may answer with only the runs past it."""
        if held is None:
            return {}
        return {"have_layout": (file_id, held.layout_gen, len(held.extents))}

    def apply_meta_reply(self, of: OpenFile, payload: Dict[str, Any],
                         held: Optional[ExtentMap]) -> None:
        """Adopt the attrs/layout a reply carried (missing keys keep the
        current view) — the single parse path for every reply that
        returns file metadata alongside its main result.

        ``held`` is the map object the *request* advertised
        (:meth:`layout_hint`), or None.  The reply's runs are applied to
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
            of.extents = self.layouts[of.file_id] = held

    # -- invalidation --------------------------------------------------------
    def drop_file(self, file_id: int) -> List[Page]:
        """Drop a file's cached pages and its cached block map; returns
        the dropped *dirty* pages (the caller reports them)."""
        self.layouts.pop(file_id, None)
        return self.cache.invalidate_file(file_id)

    def drop_all(self) -> List[Page]:
        """Drop every page and block map (lease expiry); returns the
        dropped *dirty* pages."""
        self.layouts.clear()
        return self.cache.invalidate_all()

    def report_lost(self, file_id: int, tag: Optional[str],
                    reason: str) -> None:
        """Tell the application that ``tag`` (None: a read) of a file is
        lost — detected and reported, which is what fencing alone cannot
        deliver (§2.1)."""
        self.app_errors += 1
        self.trace.emit(self.sim.now, "app.error", self.name,
                        file_id=file_id, tag=tag, reason=reason)

    # -- reads ---------------------------------------------------------------
    def read(self, of: OpenFile, offset: int, nbytes: int,
             through_cache: bool = True) -> Generator[Event, Any, Blocks]:
        """Read a byte range; returns ``(logical_block, tag)`` pairs.

        Hits are served from the cache — the caller holds the lock (or,
        NFS, a fresh enough poll) that makes cached pages valid — and
        misses fetched from storage.  ``through_cache=False`` fetches
        every block (the range-locked path: its lock covers only the
        operation, so nothing cached before it is known to be valid).
        """
        first, count = byte_range_to_blocks(offset, nbytes)
        out: Blocks = []
        if through_cache:
            missing: List[int] = []
            for lb in range(first, first + count):
                page = self.cache.get(of.file_id, lb)
                if page is not None:
                    out.append((lb, page.tag))
                else:
                    missing.append(lb)
        else:
            missing = list(range(first, first + count))
        if missing:
            out.extend((yield from self._fetch(of, missing)))
        out.sort(key=lambda t: t[0])
        for lb, tag in out:
            device, lba = of.resolve(lb)
            self.trace.emit(self.sim.now, "app.read", self.name,
                            file_id=of.file_id, block=lb, tag=tag,
                            device=device, lba=lba)
        return out

    def _fetch(self, of: OpenFile, blocks: List[int],
               ) -> Generator[Event, Any, Blocks]:
        """Read blocks from storage (the SAN, or function-shipped
        through the server) into the cache as clean pages."""
        out: Blocks = []
        for lb in blocks:
            device, lba = of.resolve(lb)
            if self._rpc is not None:
                reply = yield from self._rpc(
                    MsgKind.DATA_READ, {"file_id": of.file_id, "block": lb},
                    route=("file", of.file_id))
                tag = reply.payload.get("tag")
                version = int(reply.payload.get("version", -1))
            else:
                try:
                    results = yield from self.san.read(self.name, device, lba, 1)
                except (FencedIoError, SanUnreachableError) as exc:
                    self.report_lost(of.file_id, None, type(exc).__name__)
                    raise ClientIOError(str(exc)) from exc
                tag, version = results[0].tag, results[0].version
            self.cache.put_clean(Page(file_id=of.file_id, logical_block=lb,
                                      device=device, lba=lba, tag=tag,
                                      version=version))
            out.append((lb, tag))
        return out

    # -- writes --------------------------------------------------------------
    def write(self, of: OpenFile, offset: int, nbytes: int) -> str:
        """Write a byte range into the cache (write-back); returns the
        tag.  The acknowledgment to the application happens when this
        returns — durability is :meth:`flush`'s job, and losing the tag
        silently afterwards is an audit violation."""
        tag = f"{self.name}:w{next(self._write_seq)}"
        first, count = byte_range_to_blocks(offset, nbytes)
        phys = []
        for lb in range(first, first + count):
            device, lba = of.resolve(lb)
            self.cache.write_dirty(of.file_id, lb, device, lba, tag)
            phys.append((device, lba))
        self._ack_write(of, tag, first, count, phys)
        return tag

    def write_through(self, of: OpenFile, offset: int, nbytes: int,
                      ) -> Generator[Event, Any, str]:
        """Write a byte range straight to the SAN, acknowledged once it
        is hard (the range-locked path: no write-back state outlives
        the lock)."""
        tag = f"{self.name}:w{next(self._write_seq)}"
        first, count = byte_range_to_blocks(offset, nbytes)
        by_device: Dict[str, Dict[int, str]] = {}
        phys = []
        for lb in range(first, first + count):
            device, lba = of.resolve(lb)
            by_device.setdefault(device, {})[lba] = tag
            phys.append((device, lba))
        for device, block_tags in by_device.items():
            yield from self.san.write(self.name, device, block_tags)
        self._ack_write(of, tag, first, count, phys)
        return tag

    def _ack_write(self, of: OpenFile, tag: str, first: int, count: int,
                   phys: List[Tuple[str, int]]) -> None:
        self.trace.emit(self.sim.now, "app.write.ack", self.name,
                        file_id=of.file_id, tag=tag,
                        blocks=list(range(first, first + count)), phys=phys)

    # -- write-back ----------------------------------------------------------
    def flush(self, file_id: Optional[int] = None,
              report_errors: bool = True) -> Generator[Event, Any, int]:
        """Harden dirty pages (of one file, or all); returns pages
        flushed.  One batch per device on the SAN, one per page when
        function-shipped.

        A failed batch drops its files from the cache and emits
        ``app.error`` for every acknowledged write lost with them
        (``lost_to_failed_flush``: the pages, then whatever else the
        drop discarded) — the client *detects and reports*, which is
        the behaviour fencing-only cannot deliver before its first I/O.
        """
        dirty = self.cache.dirty_pages(file_id)
        if not dirty:
            return 0
        if self._rpc is not None:
            batches = [[p] for p in dirty]
        else:
            by_device: Dict[str, List[Page]] = {}
            for p in dirty:
                by_device.setdefault(p.device, []).append(p)
            batches = list(by_device.values())
        untried = set(map(id, dirty))
        flushed = 0
        for pages in batches:
            untried.difference_update(map(id, pages))
            # The tags that go out: a page may be rewritten while its
            # write is in flight, and what reached the disk is these.
            block_tags = {p.lba: p.tag for p in pages if p.tag is not None}
            try:
                versions = yield from self._harden(pages[0], block_tags)
            except _FLUSH_ERRORS as exc:
                if report_errors:
                    for p in lost_to_failed_flush(pages, untried,
                                                  self.drop_file):
                        self.report_lost(p.file_id, p.tag,
                                         type(exc).__name__)
                continue
            for p in pages:
                tag = block_tags.get(p.lba)
                self.cache.mark_flushed(p, versions.get(p.lba, -1), tag)
                self.trace.emit(self.sim.now, "cache.flushed", self.name,
                                file_id=p.file_id, tag=tag,
                                block=p.logical_block, device=p.device,
                                lba=p.lba)
                flushed += 1
        return flushed

    def _harden(self, page: Page, block_tags: Dict[int, Optional[str]],
                ) -> Generator[Event, Any, Dict[int, int]]:
        """Write one batch (``page``'s device, or ``page`` alone when
        function-shipped); returns lba -> new disk version."""
        if self._rpc is None:
            return (yield from self.san.write(self.name, page.device,
                                              block_tags))
        reply = yield from self._rpc(
            MsgKind.DATA_WRITE,
            {"file_id": page.file_id, "block": page.logical_block,
             "tag": block_tags.get(page.lba), "data_bytes": BLOCK_SIZE},
            route=("file", page.file_id))
        return {page.lba: int(reply.payload.get("version", -1))}

