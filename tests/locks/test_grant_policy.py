"""Intent grants: batches coalesce, uncontended ranges widen to the extent."""

import pytest

from repro.locks import SCOPED, ByteRange, LockMode, LockTable
from repro.server.intents import coalesce_ranges, widen_range

S = LockMode.SHARED
X = LockMode.EXCLUSIVE


def br(a, b):
    return ByteRange(a, b)


@pytest.fixture
def ranges():
    return LockTable(now_fn=lambda: 0.0)


# -- coalescing a batch ----------------------------------------------------

def test_batch_adjacent_merges_contiguous_run():
    merged = coalesce_ranges([(br(0, 10), X), (br(10, 20), X), (br(20, 30), X)])
    assert merged == [(br(0, 30), X)]


def test_batch_adjacent_merges_overlap_and_sorts():
    merged = coalesce_ranges([(br(15, 30), X), (br(0, 20), X)])
    assert merged == [(br(0, 30), X)]


def test_batch_adjacent_keeps_gaps_and_mode_changes():
    merged = coalesce_ranges([(br(0, 10), X), (br(10, 20), S), (br(30, 40), S)])
    assert merged == [(br(0, 10), X), (br(10, 20), S), (br(30, 40), S)]


def test_batch_adjacent_does_not_widen():
    # Coalescing grants the union of the asks, nothing beyond it.
    assert coalesce_ranges([(br(10, 20), X)]) == [(br(10, 20), X)]


def test_widen_inherits_batching():
    assert coalesce_ranges([(br(0, 10), X), (br(10, 20), X)]) \
        == [(br(0, 20), X)]


# -- widening to the extent ------------------------------------------------

def test_widen_to_extent_uncontended(ranges):
    assert widen_range(ranges, "a", 1, br(10, 20), 1000) == br(0, 1000)


def test_widen_covers_request_beyond_size(ranges):
    # A growth write past EOF: the widened span still covers the ask.
    assert widen_range(ranges, "a", 1, br(900, 1200), 1000) == br(0, 1200)


def test_widen_degrades_under_holder_contention(ranges):
    ranges.try_acquire("b", 1, S, br(500, 600), SCOPED)
    assert widen_range(ranges, "a", 1, br(10, 20), 1000) == br(10, 20)


def test_widen_degrades_under_waiter_contention(ranges):
    ranges.try_acquire("a", 1, X, br(0, 100), SCOPED)
    ranges.enqueue_waiter("b", 1, X, lambda r, m: None, br(0, 10), SCOPED)
    assert widen_range(ranges, "a", 1, br(200, 300), 1000) == br(200, 300)


def test_widen_ignores_own_grants(ranges):
    # My own existing grant on the object is not contention.
    ranges.try_acquire("a", 1, X, br(0, 100), SCOPED)
    assert widen_range(ranges, "a", 1, br(200, 300), 1000) == br(0, 1000)


def test_widen_per_object_isolation(ranges):
    # Contention on another object does not inhibit widening here.
    ranges.try_acquire("b", 2, X, br(0, 100), SCOPED)
    assert widen_range(ranges, "a", 1, br(10, 20), 500) == br(0, 500)


def test_widen_ignores_whole_file_locks(ranges):
    # Cached whole-file locks are the other conflict domain: a sharer's
    # S lock on the file is not byte-range contention.
    ranges.try_acquire("b", 1, S)
    assert widen_range(ranges, "a", 1, br(10, 20), 500) == br(0, 500)
