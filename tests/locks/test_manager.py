"""Server lock table, whole-file (cached) locks: grants, waiters,
steals, downgrade."""

import pytest

from repro.locks import CACHED, FULL, LockMode, LockTable


@pytest.fixture
def mgr():
    return LockTable(now_fn=lambda: 0.0)


def _pairs(conflicts):
    return [(g.client, g.mode) for g in conflicts]


def test_grant_when_free(mgr):
    ok, conflicts = mgr.try_acquire("c1", 1, LockMode.EXCLUSIVE)
    assert ok and conflicts == []
    assert mgr.mode_of("c1", 1) == LockMode.EXCLUSIVE


def test_shared_coexists(mgr):
    assert mgr.try_acquire("c1", 1, LockMode.SHARED)[0]
    assert mgr.try_acquire("c2", 1, LockMode.SHARED)[0]
    assert set(mgr.holders(1)) == {"c1", "c2"}


def test_exclusive_conflict_reported(mgr):
    mgr.try_acquire("c1", 1, LockMode.EXCLUSIVE)
    ok, conflicts = mgr.try_acquire("c2", 1, LockMode.EXCLUSIVE)
    assert not ok
    assert _pairs(conflicts) == [("c1", LockMode.EXCLUSIVE)]


def test_idempotent_reacquire(mgr):
    mgr.try_acquire("c1", 1, LockMode.EXCLUSIVE)
    ok, _ = mgr.try_acquire("c1", 1, LockMode.SHARED)  # already covered
    assert ok
    assert mgr.mode_of("c1", 1) == LockMode.EXCLUSIVE


def test_upgrade_conflicts_with_other_sharers(mgr):
    mgr.try_acquire("c1", 1, LockMode.SHARED)
    mgr.try_acquire("c2", 1, LockMode.SHARED)
    ok, conflicts = mgr.try_acquire("c1", 1, LockMode.EXCLUSIVE)
    assert not ok
    assert _pairs(conflicts) == [("c2", LockMode.SHARED)]


def test_release_wakes_waiter(mgr):
    mgr.try_acquire("c1", 1, LockMode.EXCLUSIVE)
    granted = []
    mgr.enqueue_waiter("c2", 1, LockMode.EXCLUSIVE,
                       lambda r, m: granted.append((r, m)))
    mgr.release("c1", 1)
    assert granted == [(FULL, LockMode.EXCLUSIVE)]
    assert mgr.mode_of("c2", 1) == LockMode.EXCLUSIVE


def test_waiters_fifo(mgr):
    mgr.try_acquire("c1", 1, LockMode.EXCLUSIVE)
    order = []
    mgr.enqueue_waiter("c2", 1, LockMode.EXCLUSIVE, lambda r, m: order.append("c2"))
    mgr.enqueue_waiter("c3", 1, LockMode.EXCLUSIVE, lambda r, m: order.append("c3"))
    mgr.release("c1", 1)
    assert order == ["c2"]
    mgr.release("c2", 1)
    assert order == ["c2", "c3"]


def test_compatible_waiters_granted_together(mgr):
    mgr.try_acquire("c1", 1, LockMode.EXCLUSIVE)
    order = []
    mgr.enqueue_waiter("c2", 1, LockMode.SHARED, lambda r, m: order.append("c2"))
    mgr.enqueue_waiter("c3", 1, LockMode.SHARED, lambda r, m: order.append("c3"))
    mgr.release("c1", 1)
    assert order == ["c2", "c3"]


def test_later_request_does_not_jump_queue(mgr):
    mgr.try_acquire("c1", 1, LockMode.SHARED)
    mgr.enqueue_waiter("c2", 1, LockMode.EXCLUSIVE, lambda r, m: None)
    # c3's shared request is compatible with the holder but must not
    # starve the queued exclusive waiter.
    ok, _ = mgr.try_acquire("c3", 1, LockMode.SHARED)
    assert not ok


def test_downgrade_wakes_shared_waiters(mgr):
    mgr.try_acquire("c1", 1, LockMode.EXCLUSIVE)
    granted = []
    mgr.enqueue_waiter("c2", 1, LockMode.SHARED, lambda r, m: granted.append("c2"))
    assert mgr.downgrade("c1", 1, LockMode.SHARED)
    assert granted == ["c2"]
    assert mgr.mode_of("c1", 1) == LockMode.SHARED


def test_downgrade_invalid(mgr):
    mgr.try_acquire("c1", 1, LockMode.SHARED)
    assert not mgr.downgrade("c1", 1, LockMode.EXCLUSIVE)  # that's an upgrade
    assert not mgr.downgrade("c1", 1, LockMode.NONE)
    assert not mgr.downgrade("c2", 1, LockMode.SHARED)  # not a holder


def test_steal_all_removes_and_pumps(mgr):
    mgr.try_acquire("c1", 1, LockMode.EXCLUSIVE)
    mgr.try_acquire("c1", 2, LockMode.SHARED)
    granted = []
    mgr.enqueue_waiter("c2", 1, LockMode.EXCLUSIVE,
                       lambda r, m: granted.append(1))
    stolen = mgr.steal_all("c1")
    assert sorted(o for o, _ in stolen) == [1, 2]
    assert granted == [1]
    assert mgr.mode_of("c1", 1) == LockMode.NONE
    assert mgr.steals == 2


def test_steal_one(mgr):
    mgr.try_acquire("c1", 1, LockMode.EXCLUSIVE)
    mgr.try_acquire("c1", 2, LockMode.EXCLUSIVE)
    assert mgr.steal_one("c1", 1)
    assert mgr.mode_of("c1", 1) == LockMode.NONE
    assert mgr.mode_of("c1", 2) == LockMode.EXCLUSIVE
    assert not mgr.steal_one("c1", 1)


def test_steal_drops_clients_queued_requests(mgr):
    mgr.try_acquire("c1", 1, LockMode.EXCLUSIVE)
    mgr.enqueue_waiter("c2", 1, LockMode.EXCLUSIVE, lambda r, m: None)
    mgr.steal_all("c2")
    assert mgr.waiting(1) == []


def test_history_records_operations(mgr):
    mgr.try_acquire("c1", 1, LockMode.EXCLUSIVE)
    mgr.release("c1", 1)
    ops = [(g.op, g.rng, g.kind) for g in mgr.history]
    assert ops == [("grant", FULL, CACHED), ("release", FULL, CACHED)]


def test_listeners_fire(mgr):
    grants, releases = [], []
    mgr.grant_listeners.append(lambda c, o, m: grants.append((c, o)))
    mgr.release_listeners.append(lambda c, o: releases.append((c, o)))
    mgr.try_acquire("c1", 1, LockMode.EXCLUSIVE)
    mgr.release("c1", 1)
    assert grants == [("c1", 1)]
    assert releases == [("c1", 1)]


def test_acquire_none_rejected(mgr):
    with pytest.raises(ValueError):
        mgr.try_acquire("c1", 1, LockMode.NONE)


def test_objects_held_by(mgr):
    mgr.try_acquire("c1", 1, LockMode.SHARED)
    mgr.try_acquire("c1", 2, LockMode.EXCLUSIVE)
    held = {obj: mgr.holders(obj) for obj in (1, 2, 3)}
    assert held == {1: {"c1": LockMode.SHARED}, 2: {"c1": LockMode.EXCLUSIVE},
                    3: {}}
    assert [g.rng for g in mgr.holdings("c1", 1)] == [FULL]


def test_pumped_weaker_request_keeps_the_stronger_grant(mgr):
    # c1 has two queued requests behind c2's X: its X, then its S.  The
    # pump grants both; the S must not overwrite the X the client holds.
    mgr.try_acquire("c2", 1, LockMode.EXCLUSIVE)
    mgr.enqueue_waiter("c1", 1, LockMode.EXCLUSIVE, lambda r, m: None)
    mgr.enqueue_waiter("c1", 1, LockMode.SHARED, lambda r, m: None)
    mgr.steal_all("c2")
    assert mgr.waiting(1) == []
    assert mgr.mode_of("c1", 1) == LockMode.EXCLUSIVE
    ok, conflicts = mgr.try_acquire("c3", 1, LockMode.SHARED)
    assert not ok and _pairs(conflicts) == [("c1", LockMode.EXCLUSIVE)]
