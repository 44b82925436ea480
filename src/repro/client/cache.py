"""Write-back page cache.

Clients write into their local cache and harden the data to shared
storage later (paper §2.1) — which is precisely why fencing alone
strands dirty data.  Pages carry the application write *tag* so the
offline audit can follow a logical write from ``app.write.ack`` through
the cache to the disk history (or to an ``app.error`` report).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

PageKey = Tuple[int, int]  # (file_id, logical_block)


@dataclass
class Page:
    """One cached block."""

    file_id: int
    logical_block: int
    device: str
    lba: int
    tag: Optional[str]      # last content tag (None = pristine block)
    version: int            # disk version this content corresponds to
    dirty: bool = False
    # Set by the cache: when this page's key was installed (a key keeps
    # its number until it is dropped), the order write-back snapshots in.
    install_seq: int = field(default=0, compare=False, repr=False)

    @property
    def key(self) -> PageKey:
        """Cache key."""
        return (self.file_id, self.logical_block)


@dataclass
class CacheStats:
    """Hit/miss and write-back counters."""

    hits: int = 0
    misses: int = 0
    dirty_writes: int = 0
    flushes: int = 0
    invalidated_clean: int = 0
    discarded_dirty: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


_install_order = attrgetter("install_seq")


class PageCache:
    """Per-client block cache with clean-page LRU eviction.

    Dirty pages are never evicted: a cache full of dirty pages grows
    past ``capacity`` rather than drop acknowledged data.  What bounds
    the dirty set is the client's write-back (the periodic daemon, the
    flush on close and on lock demand, the phase-4 flush), not the cache.

    Every operation costs its own work, never the size of the cache:
    ``_pages`` is kept in recency order, ``_dirty`` indexes the dirty
    pages and ``_by_file`` each file's pages.  The orders a trace can
    observe are those of the plain scan these indexes replaced —
    *install order* (a key's first installation since it was last
    dropped) for ``dirty_pages``, ``invalidate_file`` and
    ``invalidate_all``, least-recent *clean* page first for eviction —
    because they fix flush batching and the order of ``cache.flushed`` /
    ``app.error`` records.
    """

    def __init__(self, capacity_pages: int = 65536):
        if capacity_pages <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity_pages
        # Least-recently used first, clean and dirty alike.
        self._pages: "OrderedDict[PageKey, Page]" = OrderedDict()
        self._dirty: Dict[PageKey, Page] = {}
        # file_id -> that file's pages, in install order.
        self._by_file: Dict[int, Dict[PageKey, Page]] = {}
        self._installs = 0
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._pages)

    @property
    def dirty_count(self) -> int:
        """Number of dirty pages."""
        return len(self._dirty)

    # -- lookup --------------------------------------------------------------
    def get(self, file_id: int, logical_block: int) -> Optional[Page]:
        """Cached page or None (counts hit/miss)."""
        key = (file_id, logical_block)
        page = self._pages.get(key)
        if page is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        self._pages.move_to_end(key)
        return page

    def peek(self, file_id: int, logical_block: int) -> Optional[Page]:
        """Lookup without statistics or LRU effects."""
        return self._pages.get((file_id, logical_block))

    # -- population -------------------------------------------------------------
    def put_clean(self, page: Page) -> None:
        """Install a page read from disk."""
        page.dirty = False
        self._install(page)

    def write_dirty(self, file_id: int, logical_block: int, device: str,
                    lba: int, tag: str) -> Page:
        """Apply an application write to the cache (write-back)."""
        key = (file_id, logical_block)
        page = self._pages.get(key)
        if page is None:
            page = Page(file_id=file_id, logical_block=logical_block,
                        device=device, lba=lba, tag=tag, version=-1, dirty=True)
            self._install(page)
        else:
            page.tag = tag
            page.dirty = True
            self._dirty[key] = page
            self._pages.move_to_end(key)
        self.stats.dirty_writes += 1
        return page

    # -- write-back -----------------------------------------------------------
    def dirty_pages(self, file_id: Optional[int] = None) -> List[Page]:
        """Snapshot of dirty pages (optionally one file's), in install
        order."""
        pages: Iterable[Page] = self._dirty.values()
        if file_id is not None:
            pages = [p for p in pages if p.file_id == file_id]
        return sorted(pages, key=_install_order)

    def mark_flushed(self, page: Page, new_version: int,
                     flushed_tag: Optional[str]) -> None:
        """``flushed_tag`` reached disk at ``new_version``.

        ``write_dirty`` rewrites a page in place, so ``page.tag`` is
        always the *current* tag; the caller passes the tag it captured
        before the write went out.  If the application dirtied the page
        again while the flush was in flight the tags differ and the page
        stays dirty for the next flush.
        """
        key = page.key
        current = self._pages.get(key)
        if current is None:
            return
        if current.tag == flushed_tag:
            current.dirty = False
            current.version = new_version
            self._dirty.pop(key, None)
        self.stats.flushes += 1

    # -- invalidation ------------------------------------------------------------
    def invalidate_file(self, file_id: int) -> List[Page]:
        """Drop every page of a file; returns dropped *dirty* pages."""
        dropped = []
        for key, page in self._by_file.pop(file_id, {}).items():
            del self._pages[key]
            if page.dirty:
                del self._dirty[key]
                self.stats.discarded_dirty += 1
                dropped.append(page)
            else:
                self.stats.invalidated_clean += 1
        return dropped

    def invalidate_all(self) -> List[Page]:
        """Drop the whole cache (lease expiry); returns dropped dirty pages."""
        dropped = self.dirty_pages()
        self.stats.discarded_dirty += len(dropped)
        self.stats.invalidated_clean += len(self._pages) - len(dropped)
        self._clear()
        return dropped

    # -- internals --------------------------------------------------------------
    def _clear(self) -> None:
        """Forget every page and every index, accounting for nothing."""
        self._pages.clear()
        self._dirty.clear()
        self._by_file.clear()

    def _install(self, page: Page) -> None:
        key = page.key
        old = self._pages.get(key)
        if old is not None:
            # Replaced in place: the key keeps its install position.
            page.install_seq = old.install_seq
            self._pages.move_to_end(key)
        else:
            self._evict_if_needed()
            self._installs += 1
            page.install_seq = self._installs
        self._pages[key] = page
        self._by_file.setdefault(page.file_id, {})[key] = page
        if page.dirty:
            self._dirty[key] = page
        else:
            self._dirty.pop(key, None)

    def _evict_if_needed(self) -> None:
        if len(self._pages) < self.capacity:
            return
        for key, page in self._pages.items():
            if not page.dirty:
                del self._pages[key]
                files_pages = self._by_file[page.file_id]
                del files_pages[key]
                if not files_pages:
                    del self._by_file[page.file_id]
                self.stats.invalidated_clean += 1
                return
        # All dirty: the write-back machinery is behind.  Grow rather
        # than drop acknowledged data (see the class docstring).


def lost_to_failed_flush(pages: List[Page], untried: Set[int],
                         drop_file: Callable[[int], List[Page]],
                         ) -> List[Page]:
    """Drop the files of ``pages``, whose write-back just failed, and
    return every page whose acknowledged data is lost with them.

    That is ``pages`` themselves, in order, and then every *other* dirty
    page the drop discarded: a write acknowledged after the flush took
    its snapshot sits in the cache beside the pages in flight, and
    dropping it unreported is the silent loss (paper §2.1) a client
    exists to detect.  ``untried`` holds the ``id`` of snapshot pages
    whose own write is still to come; they are not lost yet, that write
    hardens or reports them.  ``drop_file(file_id)`` drops one file and
    returns its dirty pages (``PageCache.invalidate_file`` or a wrapper).
    """
    accounted = untried.union(map(id, pages))
    lost = list(pages)
    for file_id in dict.fromkeys(p.file_id for p in pages):
        lost.extend(q for q in drop_file(file_id) if id(q) not in accounted)
    return lost
