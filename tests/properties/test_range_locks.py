"""Property-based invariants for the lock table: byte-range grants, and
whole-file and byte-range grants mixed in one table."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.locks import (CACHED, FULL, SCOPED, ByteRange, LockMode, LockTable,
                         compatible)


ranges = st.tuples(st.integers(min_value=0, max_value=200),
                   st.integers(min_value=1, max_value=60)).map(
    lambda t: ByteRange(t[0], t[0] + t[1]))

ops = st.lists(
    st.tuples(st.sampled_from(["acq_s", "acq_x", "rel", "rel_range",
                               "steal"]),
              st.sampled_from(["a", "b", "c"]),
              ranges),
    min_size=1, max_size=80)


def apply_op(mgr, op, client, rng, obj=1):
    if op == "acq_s":
        mgr.try_acquire(client, obj, LockMode.SHARED, rng, SCOPED)
    elif op == "acq_x":
        mgr.try_acquire(client, obj, LockMode.EXCLUSIVE, rng, SCOPED)
    elif op == "rel":
        mgr.release(client, obj, kind=SCOPED)
    elif op == "rel_range":
        mgr.release(client, obj, rng, SCOPED)
    else:
        mgr.steal_all(client)


def _table():
    return LockTable(now_fn=lambda: 0.0)


def _assert_no_conflicting_overlap(mgr, objs=(1,)):
    for obj in objs:
        for kind in (CACHED, SCOPED):
            grants = [g for c in ("a", "b", "c")
                      for g in mgr.holdings(c, obj, kind)]
            for i, g1 in enumerate(grants):
                for g2 in grants[i + 1:]:
                    if g1.client != g2.client and g1.rng.overlaps(g2.rng):
                        assert compatible(g1.mode, g2.mode), (kind, g1, g2)


@settings(max_examples=120, deadline=None)
@given(sequence=ops)
def test_overlapping_grants_always_compatible(sequence):
    """After any operation sequence, every pair of overlapping grants by
    distinct clients is mode-compatible."""
    mgr = _table()
    for op, client, rng in sequence:
        apply_op(mgr, op, client, rng)
        _assert_no_conflicting_overlap(mgr)


@settings(max_examples=120, deadline=None)
@given(sequence=ops)
def test_own_grants_never_overlap(sequence):
    """A client's own grants stay disjoint (merging/splitting is exact)."""
    mgr = _table()
    for op, client, rng in sequence:
        apply_op(mgr, op, client, rng)
        for c in ("a", "b", "c"):
            own = mgr.holdings(c, 1, SCOPED)
            for i, g1 in enumerate(own):
                for g2 in own[i + 1:]:
                    assert not g1.rng.overlaps(g2.rng), (g1, g2)


@settings(max_examples=100, deadline=None)
@given(sequence=ops, probe=ranges)
def test_mode_over_consistent_with_grants(sequence, probe):
    """mode_of over a range == the pointwise minimum of grant coverage."""
    mgr = _table()
    for op, client, rng in sequence:
        apply_op(mgr, op, client, rng)
    for c in ("a", "b", "c"):
        claimed = mgr.mode_of(c, 1, probe, SCOPED)
        # Pointwise recomputation.
        point_modes = []
        for byte in range(probe.start, probe.end):
            m = LockMode.NONE
            for g in mgr.holdings(c, 1, SCOPED):
                if g.rng.start <= byte < g.rng.end:
                    m = max(m, g.mode)
            point_modes.append(m)
        expected = min(point_modes) if point_modes else LockMode.NONE
        assert claimed == expected


@settings(max_examples=80, deadline=None)
@given(sequence=ops)
def test_steal_leaves_no_residue(sequence):
    mgr = _table()
    for op, client, rng in sequence:
        apply_op(mgr, op, client, rng)
    mgr.steal_all("a")
    assert mgr.holdings("a", 1, SCOPED) == []
    for q in mgr._waiters.values():
        assert all(w.client != "a" for w in q)


# -- whole-file and byte-range grants in one table ----------------------------

mixed_ops = st.lists(
    st.tuples(st.sampled_from(["acq", "acq", "rel", "rel_range", "steal",
                               "down"]),
              st.sampled_from(["a", "b", "c"]),
              st.sampled_from([CACHED, SCOPED]),
              st.sampled_from([LockMode.SHARED, LockMode.EXCLUSIVE]),
              st.integers(min_value=1, max_value=2),
              ranges),
    min_size=1, max_size=60)


def _snapshot(mgr):
    return {key: sorted((g.client, g.rng.start, g.rng.end, int(g.mode))
                        for g in grants)
            for key, grants in mgr._grants.items() if grants}


def _replay(history):
    """A fresh table driven by nothing but the history records."""
    mgr = _table()
    for g in history:
        if g.op == "grant":
            assert mgr.try_acquire(g.client, g.obj, g.mode, g.rng, g.kind)[0]
        elif g.op in ("release", "steal"):
            assert mgr.release(g.client, g.obj, g.rng, g.kind)
        else:
            assert mgr.downgrade(g.client, g.obj, g.mode)
    return mgr


@settings(max_examples=150, deadline=None)
@given(sequence=mixed_ops)
def test_mixed_kinds_stay_compatible_and_history_replays(sequence):
    """Random whole-file and byte-range operations, refused requests
    queued as waiters: no two conflicting grants of one kind overlap,
    and replaying the history rebuilds the live table."""
    mgr = _table()
    for op, client, kind, mode, obj, rng in sequence:
        span = FULL if kind == CACHED else rng
        if op == "acq":
            ok, _conflicts = mgr.try_acquire(client, obj, mode, span, kind)
            if not ok:
                mgr.enqueue_waiter(client, obj, mode, lambda r, m: None,
                                   span, kind)
        elif op == "rel":
            mgr.release(client, obj, kind=kind)
        elif op == "rel_range":
            mgr.release(client, obj, span, kind)
        elif op == "steal":
            mgr.steal_all(client)
        else:
            mgr.downgrade(client, obj, LockMode.SHARED)
        _assert_no_conflicting_overlap(mgr, objs=(1, 2))
    assert _snapshot(_replay(mgr.history)) == _snapshot(mgr)
