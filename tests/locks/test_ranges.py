"""Lock table, op-scoped byte-range grants: intervals, splits,
conflicts, steals; and the two kinds side by side in one table."""

import pytest

from repro.locks import CACHED, FULL, SCOPED, ByteRange, LockMode, LockTable

X = LockMode.EXCLUSIVE
S = LockMode.SHARED


def br(a, b):
    return ByteRange(a, b)


@pytest.fixture
def mgr():
    return LockTable(now_fn=lambda: 0.0)


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
    assert mgr.try_acquire("a", 1, X, br(0, 100), SCOPED)[0]
    assert mgr.try_acquire("b", 1, X, br(100, 200), SCOPED)[0]


def test_overlapping_exclusive_conflicts(mgr):
    mgr.try_acquire("a", 1, X, br(0, 100), SCOPED)
    ok, conflicts = mgr.try_acquire("b", 1, X, br(50, 150), SCOPED)
    assert not ok
    assert conflicts[0].client == "a"


def test_shared_overlap_allowed(mgr):
    assert mgr.try_acquire("a", 1, S, br(0, 100), SCOPED)[0]
    assert mgr.try_acquire("b", 1, S, br(50, 150), SCOPED)[0]


def test_mode_over_requires_full_coverage(mgr):
    mgr.try_acquire("a", 1, X, br(0, 50), SCOPED)
    assert mgr.mode_of("a", 1, br(0, 50), SCOPED) == X
    assert mgr.mode_of("a", 1, br(0, 60), SCOPED) == LockMode.NONE  # gap
    mgr.try_acquire("a", 1, S, br(50, 60), SCOPED)
    assert mgr.mode_of("a", 1, br(0, 60), SCOPED) == S  # weakest


def test_idempotent_covered_reacquire(mgr):
    mgr.try_acquire("a", 1, X, br(0, 100), SCOPED)
    ok, _ = mgr.try_acquire("a", 1, S, br(10, 20), SCOPED)
    assert ok
    assert len(mgr.holdings("a", 1, SCOPED)) == 1  # no fragmentation


def test_adjacent_same_mode_grants_merge(mgr):
    mgr.try_acquire("a", 1, X, br(0, 50), SCOPED)
    mgr.try_acquire("a", 1, X, br(50, 100), SCOPED)
    holdings = mgr.holdings("a", 1, SCOPED)
    assert len(holdings) == 1
    assert holdings[0].rng == br(0, 100)


def test_per_object_isolation(mgr):
    mgr.try_acquire("a", 1, X, br(0, 100), SCOPED)
    assert mgr.try_acquire("b", 2, X, br(0, 100), SCOPED)[0]


# -- extent coalescing ----------------------------------------------------

def test_overlapping_same_mode_grants_merge(mgr):
    mgr.try_acquire("a", 1, X, br(0, 60), SCOPED)
    mgr.try_acquire("a", 1, X, br(40, 100), SCOPED)
    holdings = mgr.holdings("a", 1, SCOPED)
    assert len(holdings) == 1
    assert holdings[0].rng == br(0, 100)
    assert holdings[0].mode == X


def test_adjacent_different_modes_stay_split(mgr):
    mgr.try_acquire("a", 1, X, br(0, 50), SCOPED)
    mgr.try_acquire("a", 1, S, br(50, 100), SCOPED)
    modes = sorted((g.rng.start, g.rng.end, g.mode)
                   for g in mgr.holdings("a", 1, SCOPED))
    assert modes == [(0, 50, X),
                     (50, 100, S)]


def test_gap_prevents_merge(mgr):
    mgr.try_acquire("a", 1, X, br(0, 40), SCOPED)
    mgr.try_acquire("a", 1, X, br(60, 100), SCOPED)
    ranges = sorted((g.rng.start, g.rng.end) for g in mgr.holdings("a", 1, SCOPED))
    assert ranges == [(0, 40), (60, 100)]


def test_merge_then_partial_release_resplits(mgr):
    mgr.try_acquire("a", 1, X, br(0, 50), SCOPED)
    mgr.try_acquire("a", 1, X, br(50, 100), SCOPED)
    assert len(mgr.holdings("a", 1, SCOPED)) == 1  # merged
    mgr.release("a", 1, br(25, 75), SCOPED)
    ranges = sorted((g.rng.start, g.rng.end) for g in mgr.holdings("a", 1, SCOPED))
    assert ranges == [(0, 25), (75, 100)]


# -- release and split ----------------------------------------------------

def test_full_release_frees(mgr):
    mgr.try_acquire("a", 1, X, br(0, 100), SCOPED)
    assert mgr.release("a", 1, kind=SCOPED)
    assert mgr.try_acquire("b", 1, X, br(0, 100), SCOPED)[0]


def test_partial_release_splits(mgr):
    mgr.try_acquire("a", 1, X, br(0, 100), SCOPED)
    mgr.release("a", 1, br(40, 60), SCOPED)
    ranges = sorted((g.rng.start, g.rng.end) for g in mgr.holdings("a", 1, SCOPED))
    assert ranges == [(0, 40), (60, 100)]
    assert mgr.try_acquire("b", 1, X, br(40, 60), SCOPED)[0]
    assert not mgr.try_acquire("b", 1, X, br(30, 45), SCOPED)[0]


def test_release_nothing_held(mgr):
    assert not mgr.release("ghost", 1, kind=SCOPED)


# -- contention probes -----------------------------------------------------

def test_other_interest_sees_holders_and_waiters(mgr):
    assert not mgr.other_interest("a", 1, SCOPED)
    mgr.try_acquire("a", 1, X, br(0, 100), SCOPED)
    assert not mgr.other_interest("a", 1, SCOPED)      # only my own grant
    assert mgr.other_interest("b", 1, SCOPED)          # someone else holds it
    mgr.enqueue_waiter("c", 1, X, lambda r, m: None, br(0, 10), SCOPED)
    assert mgr.other_interest("a", 1, SCOPED)          # a waiter counts too
    mgr.release("a", 1, kind=SCOPED)
    assert mgr.other_interest("a", 1, SCOPED)          # c now holds it
    mgr.release("c", 1, kind=SCOPED)
    assert not mgr.other_interest("a", 1, SCOPED)


# -- waiters ---------------------------------------------------------------

def test_waiter_woken_on_release(mgr):
    mgr.try_acquire("a", 1, X, br(0, 100), SCOPED)
    granted = []
    mgr.enqueue_waiter("b", 1, X, lambda r, m: granted.append((r, m)),
                       br(0, 10), SCOPED)
    mgr.release("a", 1, kind=SCOPED)
    assert granted == [(br(0, 10), X)]


def test_waiter_fifo_blocks_overlapping_newcomer(mgr):
    mgr.try_acquire("a", 1, S, br(0, 100), SCOPED)
    mgr.enqueue_waiter("b", 1, X, lambda r, m: None, br(0, 100), SCOPED)
    # c's shared request is compatible with the holder but must queue
    # behind b's exclusive waiter.
    assert not mgr.try_acquire("c", 1, S, br(0, 10), SCOPED)[0]
    # A non-overlapping request sails through.
    assert mgr.try_acquire("c", 1, S, br(200, 300), SCOPED)[0]


def test_steal_all_frees_everything(mgr):
    mgr.try_acquire("a", 1, X, br(0, 100), SCOPED)
    mgr.try_acquire("a", 2, S, br(0, 50), SCOPED)
    granted = []
    mgr.enqueue_waiter("b", 1, X, lambda r, m: granted.append(1),
                       br(0, 100), SCOPED)
    stolen = mgr.steal_all("a")
    assert len(stolen) == 2
    assert granted == [1]
    assert mgr.holdings("a", 1, SCOPED) == []
    assert mgr.steals == 2


def test_acquire_none_rejected(mgr):
    with pytest.raises(ValueError):
        mgr.try_acquire("a", 1, LockMode.NONE, br(0, 1), SCOPED)


# -- both kinds in one table ----------------------------------------------

def test_whole_file_lock_is_the_full_range(mgr):
    mgr.try_acquire("a", 1, X)
    assert mgr.holdings("a", 1) == [("a", FULL, X)]
    assert mgr.mode_of("a", 1, br(10, 20)) == X   # every byte is covered


def test_kinds_are_separate_conflict_domains(mgr):
    # Both clients cache a whole-file S lock and range-write X, as
    # sub-file sharing does: the kinds never conflict with each other.
    assert mgr.try_acquire("a", 1, S)[0]
    assert mgr.try_acquire("b", 1, S)[0]
    assert mgr.try_acquire("a", 1, X, br(0, 100), SCOPED)[0]
    assert mgr.try_acquire("b", 1, X, br(100, 200), SCOPED)[0]
    assert not mgr.try_acquire("b", 1, X, br(50, 60), SCOPED)[0]
    # A range waiter does not queue whole-file requests, nor vice versa.
    mgr.enqueue_waiter("b", 1, X, lambda r, m: None, br(50, 60), SCOPED)
    assert mgr.try_acquire("c", 1, S)[0]
    assert mgr.waiting(1) == [] and mgr.waiting(1, SCOPED) == [("b", X)]


def test_history_and_counters_carry_the_kind(mgr):
    grants, releases = [], []
    mgr.grant_listeners.append(lambda c, o, m: grants.append(c))
    mgr.release_listeners.append(lambda c, o: releases.append(c))
    mgr.try_acquire("a", 1, X)
    mgr.try_acquire("b", 1, X, br(0, 10), SCOPED)
    mgr.release("b", 1, kind=SCOPED)
    assert [(g.op, g.client, g.rng, g.kind) for g in mgr.history] == [
        ("grant", "a", FULL, CACHED), ("grant", "b", br(0, 10), SCOPED),
        ("release", "b", br(0, 10), SCOPED)]
    assert (mgr.grants, mgr.grants_made) == (1, 1)
    # Listeners and the ``latest`` index see cached grants only.
    assert grants == ["a"] and releases == []
    assert set(mgr.latest) == {("a", 1)}


def test_steal_all_takes_both_kinds(mgr):
    mgr.try_acquire("a", 1, X)
    mgr.try_acquire("a", 1, X, br(0, 10), SCOPED)
    mgr.enqueue_waiter("a", 2, X, lambda r, m: None, br(0, 10), SCOPED)
    assert len(mgr.steal_all("a")) == 2
    assert mgr.steals == 2
    assert mgr.holders(1) == {} and mgr.holdings("a", 1, SCOPED) == []
    assert mgr.waiting(2, SCOPED) == []


def test_clear_volatile_drops_waiters_and_cached_grants(mgr):
    mgr.try_acquire("a", 1, X)
    mgr.try_acquire("a", 1, X, br(0, 10), SCOPED)
    mgr.enqueue_waiter("b", 1, X, lambda r, m: None)
    mgr.enqueue_waiter("b", 1, X, lambda r, m: None, br(0, 10), SCOPED)
    mgr.clear_volatile()
    assert mgr.holders(1) == {}
    assert mgr.waiting(1) == [] and mgr.waiting(1, SCOPED) == []
    # Op-scoped grants survive until range holders can reassert them.
    assert mgr.holdings("a", 1, SCOPED) == [("a", br(0, 10), X)]


def test_export_import_round_trips_both_kinds(mgr):
    mgr.try_acquire("a", 1, S)
    mgr.try_acquire("b", 1, X, br(0, 10), SCOPED)
    mgr.try_acquire("c", 2, X)
    exported = mgr.export_holdings([1])
    assert [(obj, kind) for obj, kind, _g in exported] == [
        (1, CACHED), (1, SCOPED)]
    assert mgr.holders(1) == {} and mgr.holders(2) == {"c": X}
    other = LockTable(now_fn=lambda: 0.0)
    other.import_holdings(exported)
    assert other.holders(1) == {"a": S}
    assert other.holdings("b", 1, SCOPED) == [("b", br(0, 10), X)]
