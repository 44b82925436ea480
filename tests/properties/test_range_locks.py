"""Property-based invariants for the byte-range lock manager."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.locks import LockMode, compatible
from repro.locks.ranges import ByteRange, RangeLockManager


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
        mgr.try_acquire(client, obj, rng, LockMode.SHARED)
    elif op == "acq_x":
        mgr.try_acquire(client, obj, rng, LockMode.EXCLUSIVE)
    elif op == "rel":
        mgr.release(client, obj)
    elif op == "rel_range":
        mgr.release(client, obj, rng)
    else:
        mgr.steal_all(client)


@settings(max_examples=120, deadline=None)
@given(sequence=ops)
def test_overlapping_grants_always_compatible(sequence):
    """After any operation sequence, every pair of overlapping grants by
    distinct clients is mode-compatible."""
    mgr = RangeLockManager()
    for op, client, rng in sequence:
        apply_op(mgr, op, client, rng)
        grants = mgr.grants_on(1)
        for i, g1 in enumerate(grants):
            for g2 in grants[i + 1:]:
                if g1.client != g2.client and g1.rng.overlaps(g2.rng):
                    assert compatible(g1.mode, g2.mode), (g1, g2)


@settings(max_examples=120, deadline=None)
@given(sequence=ops)
def test_own_grants_never_overlap(sequence):
    """A client's own grants stay disjoint (merging/splitting is exact)."""
    mgr = RangeLockManager()
    for op, client, rng in sequence:
        apply_op(mgr, op, client, rng)
        for c in ("a", "b", "c"):
            own = mgr.holdings(c, 1)
            for i, g1 in enumerate(own):
                for g2 in own[i + 1:]:
                    assert not g1.rng.overlaps(g2.rng), (g1, g2)


@settings(max_examples=100, deadline=None)
@given(sequence=ops, probe=ranges)
def test_mode_over_consistent_with_grants(sequence, probe):
    """mode_over == the pointwise minimum of grant coverage."""
    mgr = RangeLockManager()
    for op, client, rng in sequence:
        apply_op(mgr, op, client, rng)
    for c in ("a", "b", "c"):
        claimed = mgr.mode_over(c, 1, probe)
        # Pointwise recomputation.
        point_modes = []
        for byte in range(probe.start, probe.end):
            m = LockMode.NONE
            for g in mgr.holdings(c, 1):
                if g.rng.start <= byte < g.rng.end:
                    m = max(m, g.mode)
            point_modes.append(m)
        expected = min(point_modes) if point_modes else LockMode.NONE
        assert claimed == expected


@settings(max_examples=80, deadline=None)
@given(sequence=ops)
def test_steal_leaves_no_residue(sequence):
    mgr = RangeLockManager()
    for op, client, rng in sequence:
        apply_op(mgr, op, client, rng)
    mgr.steal_all("a")
    assert mgr.holdings("a", 1) == []
    for q in mgr._waiters.values():
        assert all(w.client != "a" for w in q)
