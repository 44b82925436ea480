"""Differential test: the indexed PageCache against the list-based
implementation it replaced.

``ListPageCache`` below is the pre-PR-17 cache, its code kept verbatim
(docstrings trimmed, the never-called ``needs_flush`` dropped) as the
reference model: one dict in install order, one ``list`` for recency,
and a scan of the whole cache for every dirty or per-file question.
Hypothesis drives both through the same random interleavings and every
observable must agree after every step — as *sequences*, because the
order of ``dirty_pages`` fixes flush batching and the order of
``cache.flushed`` / ``app.error`` trace records, and the eviction victim
fixes every later hit and miss.
"""

from typing import Dict, List, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client import Page, PageCache
from repro.client.cache import CacheStats, PageKey


class ListPageCache:
    """The old PageCache.  Reference model only."""

    def __init__(self, capacity_pages: int = 65536):
        self.capacity = capacity_pages
        self._pages: Dict[PageKey, Page] = {}
        self._lru: List[PageKey] = []  # least-recent first, clean+dirty
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._pages)

    @property
    def dirty_count(self) -> int:
        return sum(1 for p in self._pages.values() if p.dirty)

    def get(self, file_id: int, logical_block: int) -> Optional[Page]:
        key = (file_id, logical_block)
        page = self._pages.get(key)
        if page is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        self._touch(key)
        return page

    def peek(self, file_id: int, logical_block: int) -> Optional[Page]:
        return self._pages.get((file_id, logical_block))

    def put_clean(self, page: Page) -> None:
        page.dirty = False
        self._install(page)

    def write_dirty(self, file_id: int, logical_block: int, device: str,
                    lba: int, tag: str) -> Page:
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

    def dirty_pages(self, file_id: Optional[int] = None) -> List[Page]:
        return [p for p in self._pages.values()
                if p.dirty and (file_id is None or p.file_id == file_id)]

    def mark_flushed(self, page: Page, new_version: int,
                     flushed_tag: Optional[str]) -> None:
        current = self._pages.get(page.key)
        if current is None:
            return
        if current.tag == flushed_tag:
            current.dirty = False
            current.version = new_version
        self.stats.flushes += 1

    def invalidate_file(self, file_id: int) -> List[Page]:
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
        dropped = [p for p in self._pages.values() if p.dirty]
        self.stats.discarded_dirty += len(dropped)
        self.stats.invalidated_clean += len(self._pages) - len(dropped)
        self._pages.clear()
        self._lru.clear()
        return dropped

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


FILES = (1, 2, 3)
BLOCKS = 6          # 18 keys against capacities of 1..8: constant eviction
file_ids = st.sampled_from(FILES)
blocks = st.integers(min_value=0, max_value=BLOCKS - 1)
ops = st.one_of(
    st.tuples(st.just("write"), file_ids, blocks),
    st.tuples(st.just("put_clean"), file_ids, blocks),
    st.tuples(st.just("get"), file_ids, blocks),
    # Complete the flush of the i-th dirty page; ``raced`` says the page
    # was rewritten while the flush was in flight (tags differ).
    st.tuples(st.just("mark_flushed"), st.integers(0, 40), st.booleans()),
    # A flush completing for a page that was invalidated meanwhile.
    st.tuples(st.just("mark_flushed_gone"), file_ids, blocks),
    st.tuples(st.just("invalidate_file"), file_ids),
    st.tuples(st.just("invalidate_all")),
)


def _view(page: Optional[Page]):
    if page is None:
        return None
    return (page.key, page.device, page.lba, page.tag, page.version,
            page.dirty)


def _views(pages: List[Page]):
    return [_view(p) for p in pages]


class Rig:
    """One cache, driven by op tuples; returns what each call returned."""

    def __init__(self, cls, capacity: int) -> None:
        self.cache = cls(capacity)
        self.n = 0

    def apply(self, op):
        cache, kind = self.cache, op[0]
        self.n += 1
        if kind == "write":
            return _view(cache.write_dirty(op[1], op[2], f"d{op[1]}",
                                           100 * op[1] + op[2], f"w{self.n}"))
        if kind == "put_clean":
            return cache.put_clean(Page(
                file_id=op[1], logical_block=op[2], device=f"d{op[1]}",
                lba=100 * op[1] + op[2], tag=f"r{self.n}", version=self.n))
        if kind == "get":
            return _view(cache.get(op[1], op[2]))
        if kind == "mark_flushed":
            dirty = cache.dirty_pages()
            if not dirty:
                return None
            page = dirty[op[1] % len(dirty)]
            return cache.mark_flushed(page, self.n,
                                      "older" if op[2] else page.tag)
        if kind == "mark_flushed_gone":
            ghost = Page(file_id=op[1], logical_block=op[2], device="d",
                         lba=0, tag=None, version=0)
            return cache.mark_flushed(ghost, self.n, None)
        if kind == "invalidate_file":
            return _views(cache.invalidate_file(op[1]))
        return _views(cache.invalidate_all())

    def observe(self):
        cache = self.cache
        return (len(cache), cache.dirty_count, cache.stats,
                _views(cache.dirty_pages()),
                [_views(cache.dirty_pages(f)) for f in FILES],
                # Residency of every key: equal at every step means every
                # eviction picked the same victim.
                [[_view(cache.peek(f, b)) for b in range(BLOCKS)]
                 for f in FILES])


@settings(max_examples=400, deadline=None)
@given(script=st.lists(ops, min_size=1, max_size=80),
       capacity=st.integers(min_value=1, max_value=8))
def test_indexed_cache_matches_list_based_reference(script, capacity):
    new = Rig(PageCache, capacity)
    ref = Rig(ListPageCache, capacity)
    for op in script:
        assert new.apply(op) == ref.apply(op), op
        assert new.observe() == ref.observe(), op
    # Drain through the two order-bearing exits as well.
    assert _views(new.cache.invalidate_file(2)) == \
        _views(ref.cache.invalidate_file(2))
    assert _views(new.cache.invalidate_all()) == \
        _views(ref.cache.invalidate_all())
    assert new.observe() == ref.observe()
    assert not new.cache._pages and not new.cache._dirty \
        and not new.cache._by_file


def test_dirty_order_is_install_order_not_dirtying_order():
    """The case a naive dirty index gets wrong: a page installed clean
    and dirtied later keeps its *install* position in the snapshot."""
    c = PageCache(capacity_pages=8)
    for block in (0, 1, 2):
        c.put_clean(Page(file_id=1, logical_block=block, device="d",
                         lba=block, tag=None, version=0))
    c.write_dirty(1, 2, "d", 2, "late-install")
    c.write_dirty(1, 0, "d", 0, "early-install")
    assert [p.logical_block for p in c.dirty_pages()] == [0, 2]
    assert [p.logical_block for p in c.dirty_pages(1)] == [0, 2]
    # Dropped and written again, block 0 is a new installation.
    c.invalidate_file(1)
    c.write_dirty(1, 2, "d", 2, "a")
    c.write_dirty(1, 0, "d", 0, "b")
    assert [p.logical_block for p in c.invalidate_all()] == [2, 0]
