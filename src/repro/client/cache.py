"""Write-back page cache.

Clients write into their local cache and harden the data to shared
storage later (paper §2.1) — which is precisely why fencing alone
strands dirty data.  Pages carry the application write *tag* so the
offline audit can follow a logical write from ``app.write.ack`` through
the cache to the disk history (or to an ``app.error`` report).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

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


class PageCache:
    """Per-client block cache with clean-page LRU eviction.

    Dirty pages are never evicted silently: when the cache is full of
    dirty pages the caller must flush first (``needs_flush`` turns True).
    """

    def __init__(self, capacity_pages: int = 65536):
        if capacity_pages <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity_pages
        self._pages: Dict[PageKey, Page] = {}
        self._lru: List[PageKey] = []  # least-recent first, clean+dirty
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._pages)

    @property
    def dirty_count(self) -> int:
        """Number of dirty pages."""
        return sum(1 for p in self._pages.values() if p.dirty)

    @property
    def needs_flush(self) -> bool:
        """True when eviction is impossible without a flush."""
        return len(self._pages) >= self.capacity and self.dirty_count >= self.capacity

    # -- lookup --------------------------------------------------------------
    def get(self, file_id: int, logical_block: int) -> Optional[Page]:
        """Cached page or None (counts hit/miss)."""
        key = (file_id, logical_block)
        page = self._pages.get(key)
        if page is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        self._touch(key)
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
            self._touch(key)
        self.stats.dirty_writes += 1
        return page

    # -- write-back -----------------------------------------------------------
    def dirty_pages(self, file_id: Optional[int] = None) -> List[Page]:
        """Snapshot of dirty pages (optionally one file's)."""
        return [p for p in self._pages.values()
                if p.dirty and (file_id is None or p.file_id == file_id)]

    def mark_flushed(self, page: Page, new_version: int,
                     flushed_tag: Optional[str]) -> None:
        """``flushed_tag`` reached disk at ``new_version``.

        ``write_dirty`` rewrites a page in place, so ``page.tag`` is
        always the *current* tag; the caller passes the tag it captured
        before the write went out.  If the application dirtied the page
        again while the flush was in flight the tags differ and the page
        stays dirty for the next flush.
        """
        current = self._pages.get(page.key)
        if current is None:
            return
        if current.tag == flushed_tag:
            current.dirty = False
            current.version = new_version
        self.stats.flushes += 1

    # -- invalidation ------------------------------------------------------------
    def invalidate_file(self, file_id: int) -> List[Page]:
        """Drop every page of a file; returns dropped *dirty* pages."""
        dropped = []
        for key in [k for k in self._pages if k[0] == file_id]:
            page = self._pages.pop(key)
            self._lru.remove(key)
            if page.dirty:
                self.stats.discarded_dirty += 1
                dropped.append(page)
            else:
                self.stats.invalidated_clean += 1
        return dropped

    def invalidate_all(self) -> List[Page]:
        """Drop the whole cache (lease expiry); returns dropped dirty pages."""
        dropped = [p for p in self._pages.values() if p.dirty]
        self.stats.discarded_dirty += len(dropped)
        self.stats.invalidated_clean += len(self._pages) - len(dropped)
        self._pages.clear()
        self._lru.clear()
        return dropped

    # -- internals --------------------------------------------------------------
    def _touch(self, key: PageKey) -> None:
        self._lru.remove(key)
        self._lru.append(key)

    def _install(self, page: Page) -> None:
        key = page.key
        if key in self._pages:
            self._pages[key] = page
            self._touch(key)
            return
        self._evict_if_needed()
        self._pages[key] = page
        self._lru.append(key)

    def _evict_if_needed(self) -> None:
        if len(self._pages) < self.capacity:
            return
        for key in self._lru:
            if not self._pages[key].dirty:
                self._lru.remove(key)
                self._pages.pop(key)
                self.stats.invalidated_clean += 1
                return
        # All dirty: caller should have flushed; refuse to grow unboundedly
        # by silently accepting — grow anyway but flag it via needs_flush.
