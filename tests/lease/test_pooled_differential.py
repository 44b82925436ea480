"""Differential test: the deadline-bucket PooledLeaseService against the
tuple-heap implementation it replaced.

``TupleHeapLeaseService`` below is the pre-vectorization service, its
code kept verbatim (docstrings trimmed) as the reference model: one
``(when, idx)`` heap tuple per renewal, one ``heappop`` per lapse.
Hypothesis drives both through the same random interleavings of
``renew``, ``renew_many``, ``lapse`` and time advances, each on its own
simulator, and every observable must agree after every step.
"""

from array import array
from heapq import heappop, heappush
from typing import Callable, List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lease import PooledLeaseService
from repro.sim import Simulator, TimerPool

_INF = float("inf")


class TupleHeapLeaseService:
    """The old PooledLeaseService: array columns plus a lazy-deletion
    heap of ``(when, idx)`` tuples.  Reference model only."""

    def __init__(self, timers: TimerPool,
                 on_expire: Optional[Callable[[int], None]] = None) -> None:
        self.timers = timers
        self.on_expire = on_expire
        self._expiry = array("d")
        self._held = array("b")
        self._heap: List[Tuple[float, int]] = []
        self._timer_token: Optional[int] = None
        self._armed_for = _INF
        self.expired = 0
        self.renewals = 0

    def ensure_capacity(self, n: int) -> None:
        grow = n - len(self._expiry)
        if grow > 0:
            self._expiry.extend([_INF] * grow)
            self._held.extend([0] * grow)

    def __len__(self) -> int:
        return sum(self._held)

    def holds_lease(self, idx: int) -> bool:
        return idx < len(self._held) and bool(self._held[idx])

    def expiry_of(self, idx: int) -> float:
        return self._expiry[idx] if idx < len(self._expiry) else _INF

    def renew(self, idx: int, expires_at: float) -> None:
        self.ensure_capacity(idx + 1)
        self._expiry[idx] = expires_at
        self._held[idx] = 1
        self.renewals += 1
        heappush(self._heap, (expires_at, idx))
        if expires_at < self._armed_for:
            self._arm(expires_at)

    def lapse(self, idx: int) -> bool:
        if not self.holds_lease(idx):
            return False
        self._held[idx] = 0
        self._expiry[idx] = _INF
        return True

    def _arm(self, when: float) -> None:
        if self._timer_token is not None:
            self.timers.cancel(self._timer_token)
        self._armed_for = when
        self._timer_token = self.timers.at(when, self._sweep)

    def _sweep(self) -> None:
        self._timer_token = None
        self._armed_for = _INF
        now = self.timers.sim.now
        heap = self._heap
        expiry = self._expiry
        held = self._held
        cb = self.on_expire
        while heap and heap[0][0] <= now:
            when, idx = heappop(heap)
            # Stale entry: renewed to a later deadline, or already lapsed.
            if not held[idx] or expiry[idx] > when:
                continue
            held[idx] = 0
            expiry[idx] = _INF
            self.expired += 1
            if cb is not None:
                cb(idx)
        if heap:
            self._arm(heap[0][0])


N_SLOTS = 12

slots = st.integers(min_value=0, max_value=N_SLOTS - 1)
# Half-second grid over a short horizon: deadlines collide into shared
# buckets, land in the past, and get superseded both ways.
deadlines = st.integers(min_value=0, max_value=24).map(lambda k: k / 2.0)

ops = st.one_of(
    st.tuples(st.just("renew"), slots, deadlines),
    st.tuples(st.just("renew_many"),
              st.lists(st.tuples(slots, deadlines), max_size=10)),
    st.tuples(st.just("lapse"), slots),
    st.tuples(st.just("advance"),
              st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0])),
)


class Rig:
    """One service on its own simulator, logging ``(now, idx)`` lapses."""

    def __init__(self, cls, with_callback: bool) -> None:
        self.sim = Simulator()
        self.log: List[Tuple[float, int]] = []
        cb = ((lambda idx: self.log.append((self.sim.now, idx)))
              if with_callback else None)
        self.svc = cls(TimerPool(self.sim), on_expire=cb)

    def apply(self, op) -> object:
        kind = op[0]
        if kind == "renew":
            return self.svc.renew(op[1], op[2])
        if kind == "renew_many":
            if isinstance(self.svc, TupleHeapLeaseService):
                for i, w in op[1]:
                    self.svc.renew(i, w)
                return None
            return self.svc.renew_many([i for i, _ in op[1]],
                                       [w for _, w in op[1]])
        if kind == "lapse":
            return self.svc.lapse(op[1])
        return self.sim.run(until=self.sim.now + op[1])

    def observe(self):
        svc = self.svc
        return (svc.expired, svc.renewals, len(svc),
                [svc.holds_lease(i) for i in range(N_SLOTS + 1)],
                [svc.expiry_of(i) for i in range(N_SLOTS + 1)],
                self.log)


@settings(max_examples=300, deadline=None)
@given(script=st.lists(ops, min_size=1, max_size=40),
       with_callback=st.booleans())
def test_bucket_index_matches_tuple_heap_reference(script, with_callback):
    new = Rig(PooledLeaseService, with_callback)
    ref = Rig(TupleHeapLeaseService, with_callback)
    for op in script:
        assert new.apply(op) == ref.apply(op), op
        assert new.observe() == ref.observe(), op
    # Drain everything still pending: nothing fires twice, nothing is lost.
    for rig in (new, ref):
        rig.sim.run(until=rig.sim.now + 20.0)
    assert new.observe() == ref.observe()
    assert len(new.svc) == 0


def test_renew_many_accepts_arrays_and_rejects_ragged_input():
    sim = Simulator()
    svc = PooledLeaseService(TimerPool(sim))
    svc.renew_many(np.array([4, 1, 4]), np.array([3.0, 2.0, 5.0]))
    assert svc.renewals == 3
    assert len(svc) == 2
    assert svc.expiry_of(4) == 5.0    # last occurrence wins
    svc.renew_many([], [])            # empty: no-op, no timer churn
    assert svc.renewals == 3
    with pytest.raises(ValueError):
        svc.renew_many([1, 2], [1.0])
    sim.run(until=10.0)
    assert svc.expired == 2
