"""Byte-range lock manager: intervals, splits, conflicts, steals."""

import pytest

from repro.locks import LockMode
from repro.locks.ranges import ByteRange, RangeGrant, RangeLockManager


def br(a, b):
    return ByteRange(a, b)


@pytest.fixture
def mgr():
    return RangeLockManager()


# -- ByteRange algebra ---------------------------------------------------

def test_range_validation():
    with pytest.raises(ValueError):
        ByteRange(5, 5)
    with pytest.raises(ValueError):
        ByteRange(-1, 3)
    with pytest.raises(ValueError):
        ByteRange(7, 3)


def test_overlap_and_contains():
    assert br(0, 10).overlaps(br(9, 20))
    assert not br(0, 10).overlaps(br(10, 20))  # half-open
    assert br(0, 10).contains(br(3, 7))
    assert not br(0, 10).contains(br(5, 11))


def test_intersect():
    assert br(0, 10).intersect(br(5, 20)) == br(5, 10)
    assert br(0, 10).intersect(br(10, 20)) is None


def test_subtract_pieces():
    assert br(0, 10).subtract(br(3, 7)) == [br(0, 3), br(7, 10)]
    assert br(0, 10).subtract(br(0, 4)) == [br(4, 10)]
    assert br(0, 10).subtract(br(6, 10)) == [br(0, 6)]
    assert br(0, 10).subtract(br(0, 10)) == []
    assert br(0, 10).subtract(br(20, 30)) == [br(0, 10)]


# -- acquisition ---------------------------------------------------------

def test_disjoint_exclusive_ranges_coexist(mgr):
    assert mgr.try_acquire("a", 1, br(0, 100), LockMode.EXCLUSIVE)[0]
    assert mgr.try_acquire("b", 1, br(100, 200), LockMode.EXCLUSIVE)[0]


def test_overlapping_exclusive_conflicts(mgr):
    mgr.try_acquire("a", 1, br(0, 100), LockMode.EXCLUSIVE)
    ok, conflicts = mgr.try_acquire("b", 1, br(50, 150), LockMode.EXCLUSIVE)
    assert not ok
    assert conflicts[0].client == "a"


def test_shared_overlap_allowed(mgr):
    assert mgr.try_acquire("a", 1, br(0, 100), LockMode.SHARED)[0]
    assert mgr.try_acquire("b", 1, br(50, 150), LockMode.SHARED)[0]


def test_mode_over_requires_full_coverage(mgr):
    mgr.try_acquire("a", 1, br(0, 50), LockMode.EXCLUSIVE)
    assert mgr.mode_over("a", 1, br(0, 50)) == LockMode.EXCLUSIVE
    assert mgr.mode_over("a", 1, br(0, 60)) == LockMode.NONE  # gap
    mgr.try_acquire("a", 1, br(50, 60), LockMode.SHARED)
    assert mgr.mode_over("a", 1, br(0, 60)) == LockMode.SHARED  # weakest


def test_idempotent_covered_reacquire(mgr):
    mgr.try_acquire("a", 1, br(0, 100), LockMode.EXCLUSIVE)
    ok, _ = mgr.try_acquire("a", 1, br(10, 20), LockMode.SHARED)
    assert ok
    assert len(mgr.holdings("a", 1)) == 1  # no fragmentation


def test_adjacent_same_mode_grants_merge(mgr):
    mgr.try_acquire("a", 1, br(0, 50), LockMode.EXCLUSIVE)
    mgr.try_acquire("a", 1, br(50, 100), LockMode.EXCLUSIVE)
    holdings = mgr.holdings("a", 1)
    assert len(holdings) == 1
    assert holdings[0].rng == br(0, 100)


def test_per_object_isolation(mgr):
    mgr.try_acquire("a", 1, br(0, 100), LockMode.EXCLUSIVE)
    assert mgr.try_acquire("b", 2, br(0, 100), LockMode.EXCLUSIVE)[0]


# -- extent coalescing ----------------------------------------------------

def test_overlapping_same_mode_grants_merge(mgr):
    mgr.try_acquire("a", 1, br(0, 60), LockMode.EXCLUSIVE)
    mgr.try_acquire("a", 1, br(40, 100), LockMode.EXCLUSIVE)
    holdings = mgr.holdings("a", 1)
    assert len(holdings) == 1
    assert holdings[0].rng == br(0, 100)
    assert holdings[0].mode == LockMode.EXCLUSIVE


def test_adjacent_different_modes_stay_split(mgr):
    mgr.try_acquire("a", 1, br(0, 50), LockMode.EXCLUSIVE)
    mgr.try_acquire("a", 1, br(50, 100), LockMode.SHARED)
    modes = sorted((g.rng.start, g.rng.end, g.mode)
                   for g in mgr.holdings("a", 1))
    assert modes == [(0, 50, LockMode.EXCLUSIVE),
                     (50, 100, LockMode.SHARED)]


def test_gap_prevents_merge(mgr):
    mgr.try_acquire("a", 1, br(0, 40), LockMode.EXCLUSIVE)
    mgr.try_acquire("a", 1, br(60, 100), LockMode.EXCLUSIVE)
    ranges = sorted((g.rng.start, g.rng.end) for g in mgr.holdings("a", 1))
    assert ranges == [(0, 40), (60, 100)]


def test_merge_then_partial_release_resplits(mgr):
    mgr.try_acquire("a", 1, br(0, 50), LockMode.EXCLUSIVE)
    mgr.try_acquire("a", 1, br(50, 100), LockMode.EXCLUSIVE)
    assert len(mgr.holdings("a", 1)) == 1  # merged
    mgr.release("a", 1, br(25, 75))
    ranges = sorted((g.rng.start, g.rng.end) for g in mgr.holdings("a", 1))
    assert ranges == [(0, 25), (75, 100)]


# -- release and split ----------------------------------------------------

def test_full_release_frees(mgr):
    mgr.try_acquire("a", 1, br(0, 100), LockMode.EXCLUSIVE)
    assert mgr.release("a", 1)
    assert mgr.try_acquire("b", 1, br(0, 100), LockMode.EXCLUSIVE)[0]


def test_partial_release_splits(mgr):
    mgr.try_acquire("a", 1, br(0, 100), LockMode.EXCLUSIVE)
    mgr.release("a", 1, br(40, 60))
    ranges = sorted((g.rng.start, g.rng.end) for g in mgr.holdings("a", 1))
    assert ranges == [(0, 40), (60, 100)]
    assert mgr.try_acquire("b", 1, br(40, 60), LockMode.EXCLUSIVE)[0]
    assert not mgr.try_acquire("b", 1, br(30, 45), LockMode.EXCLUSIVE)[0]


def test_release_nothing_held(mgr):
    assert not mgr.release("ghost", 1)


# -- contention probes -----------------------------------------------------

def test_other_interest_sees_holders_and_waiters(mgr):
    assert not mgr.other_interest("a", 1)
    mgr.try_acquire("a", 1, br(0, 100), LockMode.EXCLUSIVE)
    assert not mgr.other_interest("a", 1)      # only my own grant
    assert mgr.other_interest("b", 1)          # someone else holds it
    mgr.enqueue_waiter("c", 1, br(0, 10), LockMode.EXCLUSIVE,
                       lambda r, m: None)
    assert mgr.other_interest("a", 1)          # a waiter counts too
    mgr.release("a", 1)
    assert mgr.other_interest("a", 1)          # c was promoted to holder
    mgr.release("c", 1)
    assert not mgr.other_interest("a", 1)


# -- waiters ---------------------------------------------------------------

def test_waiter_woken_on_release(mgr):
    mgr.try_acquire("a", 1, br(0, 100), LockMode.EXCLUSIVE)
    granted = []
    mgr.enqueue_waiter("b", 1, br(0, 10), LockMode.EXCLUSIVE,
                       lambda r, m: granted.append((r, m)))
    mgr.release("a", 1)
    assert granted == [(br(0, 10), LockMode.EXCLUSIVE)]


def test_waiter_fifo_blocks_overlapping_newcomer(mgr):
    mgr.try_acquire("a", 1, br(0, 100), LockMode.SHARED)
    mgr.enqueue_waiter("b", 1, br(0, 100), LockMode.EXCLUSIVE, lambda r, m: None)
    # c's shared request is compatible with the holder but must queue
    # behind b's exclusive waiter.
    assert not mgr.try_acquire("c", 1, br(0, 10), LockMode.SHARED)[0]
    # A non-overlapping request sails through.
    assert mgr.try_acquire("c", 1, br(200, 300), LockMode.SHARED)[0]


def test_steal_all_frees_everything(mgr):
    mgr.try_acquire("a", 1, br(0, 100), LockMode.EXCLUSIVE)
    mgr.try_acquire("a", 2, br(0, 50), LockMode.SHARED)
    granted = []
    mgr.enqueue_waiter("b", 1, br(0, 100), LockMode.EXCLUSIVE,
                       lambda r, m: granted.append(1))
    stolen = mgr.steal_all("a")
    assert len(stolen) == 2
    assert granted == [1]
    assert mgr.holdings("a", 1) == []
    assert mgr.steals == 2


def test_acquire_none_rejected(mgr):
    with pytest.raises(ValueError):
        mgr.try_acquire("a", 1, br(0, 1), LockMode.NONE)
