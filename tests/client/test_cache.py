"""Write-back page cache."""

import pytest

from repro.client import Page, PageCache


def page(fid=1, lb=0, tag="t", dirty=False, version=1):
    return Page(file_id=fid, logical_block=lb, device="d", lba=lb,
                tag=tag, version=version, dirty=dirty)


def test_miss_then_hit():
    c = PageCache()
    assert c.get(1, 0) is None
    c.put_clean(page())
    assert c.get(1, 0).tag == "t"
    assert c.stats.misses == 1 and c.stats.hits == 1


def test_write_dirty_creates_page():
    c = PageCache()
    p = c.write_dirty(1, 0, "d", 0, "w1")
    assert p.dirty
    assert c.dirty_count == 1


def test_write_dirty_overwrites_tag():
    c = PageCache()
    c.put_clean(page(tag="old"))
    c.write_dirty(1, 0, "d", 0, "new")
    assert c.get(1, 0).tag == "new"
    assert c.dirty_count == 1


def test_mark_flushed_clears_dirty():
    c = PageCache()
    p = c.write_dirty(1, 0, "d", 0, "w1")
    c.mark_flushed(p, new_version=5, flushed_tag="w1")
    assert c.dirty_count == 0
    assert c.peek(1, 0).version == 5


def test_rewrite_during_flush_stays_dirty():
    # The flusher holds the very Page object ``write_dirty`` mutates in
    # place, so only the tag it captured before the SAN write can tell
    # that the application raced the flush.
    c = PageCache()
    c.write_dirty(1, 0, "d", 0, "w1")
    [p] = c.dirty_pages()
    flushing = p.tag
    c.write_dirty(1, 0, "d", 0, "w2")  # app raced the flush
    assert p.tag == "w2"               # same object: p.tag moved too
    c.mark_flushed(p, new_version=5, flushed_tag=flushing)
    assert c.peek(1, 0).dirty  # w2 still needs hardening
    assert c.peek(1, 0).tag == "w2"
    assert c.dirty_pages() == [p]


def test_dirty_pages_filter_by_file():
    c = PageCache()
    c.write_dirty(1, 0, "d", 0, "a")
    c.write_dirty(2, 0, "d", 10, "b")
    assert len(c.dirty_pages()) == 2
    assert len(c.dirty_pages(file_id=1)) == 1


def test_invalidate_file_returns_dirty():
    c = PageCache()
    c.put_clean(page(fid=1, lb=0))
    c.write_dirty(1, 1, "d", 1, "w")
    dropped = c.invalidate_file(1)
    assert [p.tag for p in dropped] == ["w"]
    assert len(c) == 0
    assert c.stats.discarded_dirty == 1
    assert c.stats.invalidated_clean == 1


def test_invalidate_all():
    c = PageCache()
    c.put_clean(page(fid=1))
    c.write_dirty(2, 0, "d", 5, "w")
    dropped = c.invalidate_all()
    assert len(dropped) == 1
    assert len(c) == 0


def test_lru_evicts_clean_only():
    c = PageCache(capacity_pages=2)
    c.write_dirty(1, 0, "d", 0, "dirty")
    c.put_clean(page(fid=1, lb=1, tag="clean"))
    c.put_clean(page(fid=1, lb=2, tag="new"))  # evicts the clean page
    assert c.peek(1, 1) is None
    assert c.peek(1, 0) is not None  # dirty survived


def test_hit_rate():
    c = PageCache()
    c.put_clean(page())
    c.get(1, 0)
    c.get(1, 1)
    assert c.stats.hit_rate == pytest.approx(0.5)


def test_invalid_capacity():
    with pytest.raises(ValueError):
        PageCache(0)
