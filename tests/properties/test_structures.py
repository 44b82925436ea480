"""Property-based tests on the core data structures."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.locks import LockMode, LockTable, compatible
from repro.metadata import ExtentAllocator
from repro.storage import Extent, ExtentMap
from repro.storage.blockmap import byte_range_to_blocks
from repro.storage.dlock import DlockDeniedError, DlockTable
from repro.client import PageCache


# -- allocator: never hands out the same block twice ------------------------

@settings(max_examples=100, deadline=None)
@given(requests=st.lists(st.integers(min_value=1, max_value=50),
                         min_size=1, max_size=30))
def test_allocator_never_double_allocates(requests):
    alloc = ExtentAllocator()
    alloc.add_device("d1", 2000)
    alloc.add_device("d2", 2000)
    seen = set()
    from repro.metadata import AllocationError
    for n in requests:
        try:
            extents = alloc.allocate(n)
        except AllocationError:
            break
        got = 0
        for e in extents:
            for lba in range(e.start_lba, e.end_lba):
                key = (e.device, lba)
                assert key not in seen
                seen.add(key)
                got += 1
        assert got == n


@settings(max_examples=100, deadline=None)
@given(ops=st.lists(st.tuples(st.booleans(),
                              st.integers(min_value=1, max_value=30)),
                    min_size=1, max_size=40))
def test_allocator_free_space_conservation(ops):
    alloc = ExtentAllocator()
    alloc.add_device("d", 1000)
    live = []
    from repro.metadata import AllocationError
    for is_alloc, n in ops:
        if is_alloc:
            try:
                live.append(alloc.allocate(n))
            except AllocationError:
                pass
        elif live:
            alloc.free(live.pop())
    held = sum(sum(e.length for e in group) for group in live)
    assert alloc.total_free_blocks == 1000 - held


# -- extent map resolution is a bijection ----------------------------------

@settings(max_examples=100, deadline=None)
@given(lengths=st.lists(st.integers(min_value=1, max_value=20),
                        min_size=1, max_size=10))
def test_extent_map_resolution_bijective(lengths):
    em = ExtentMap()
    cursor = 0
    for i, ln in enumerate(lengths):
        em.append(Extent(device=f"d{i % 3}", start_lba=cursor, length=ln))
        cursor += ln + 5  # gaps are fine
    physical = [em.resolve(b) for b in range(em.block_count)]
    assert len(set(physical)) == len(physical)
    assert list(em.iter_physical()) == physical


@settings(max_examples=200, deadline=None)
@given(offset=st.integers(min_value=0, max_value=10**9),
       nbytes=st.integers(min_value=1, max_value=10**7))
def test_byte_range_covers_exactly(offset, nbytes):
    first, count = byte_range_to_blocks(offset, nbytes)
    from repro.storage import BLOCK_SIZE
    assert first * BLOCK_SIZE <= offset
    assert (first + count) * BLOCK_SIZE >= offset + nbytes
    # minimality: one block fewer would not cover
    assert (first + count - 1) * BLOCK_SIZE < offset + nbytes


# -- lock manager invariants -------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(ops=st.lists(st.tuples(st.sampled_from(["acq_s", "acq_x", "rel", "steal"]),
                              st.sampled_from(["a", "b", "c"]),
                              st.integers(min_value=1, max_value=3)),
                    min_size=1, max_size=60))
def test_lock_manager_holders_always_compatible(ops):
    mgr = LockTable(now_fn=lambda: 0.0)
    for op, client, obj in ops:
        if op == "acq_s":
            mgr.try_acquire(client, obj, LockMode.SHARED)
        elif op == "acq_x":
            mgr.try_acquire(client, obj, LockMode.EXCLUSIVE)
        elif op == "rel":
            mgr.release(client, obj)
        else:
            mgr.steal_all(client)
        # Invariant: all current holders pairwise compatible.
        for o in (1, 2, 3):
            holders = list(mgr.holders(o).values())
            for i, a in enumerate(holders):
                for b in holders[i + 1:]:
                    assert compatible(a, b)


# -- dlock table: live ranges never overlap -------------------------------

@settings(max_examples=100, deadline=None)
@given(ops=st.lists(st.tuples(st.sampled_from(["h1", "h2", "h3"]),
                              st.integers(min_value=0, max_value=50),
                              st.integers(min_value=1, max_value=10),
                              st.floats(min_value=0.5, max_value=20.0)),
                    min_size=1, max_size=40))
def test_dlock_live_ranges_disjoint_per_distinct_holders(ops):
    table = DlockTable("d")
    now = 0.0
    for holder, start, length, ttl in ops:
        now += 0.25
        try:
            table.acquire(holder, start, length, ttl, now)
        except DlockDeniedError:
            pass
        live = table.live_locks(now)
        for i, a in enumerate(live):
            for b in live[i + 1:]:
                if a.holder != b.holder:
                    assert not a.overlaps(b.start_lba, b.length)


# -- page cache: dirty data survives eviction pressure -----------------------

@settings(max_examples=100, deadline=None)
@given(ops=st.lists(st.tuples(st.booleans(),
                              st.integers(min_value=0, max_value=30)),
                    min_size=1, max_size=100))
def test_cache_never_silently_drops_dirty(ops):
    from repro.client import Page
    cache = PageCache(capacity_pages=8)
    dirty_tags = set()
    for is_write, block in ops:
        if is_write:
            tag = f"t{len(dirty_tags)}"
            cache.write_dirty(1, block, "d", block, tag)
            dirty_tags = {p.tag for p in cache.dirty_pages()}
        else:
            cache.put_clean(Page(file_id=1, logical_block=block, device="d",
                                 lba=block, tag="clean", version=1))
            # a clean put may overwrite a dirty page's slot for the same
            # block (caller's responsibility); track reality:
            dirty_tags = {p.tag for p in cache.dirty_pages()}
        # every dirty page is still present
        assert {p.tag for p in cache.dirty_pages()} == dirty_tags
        assert cache.stats.discarded_dirty == 0
