"""Differential test: PooledLeaseService against a plain per-slot model.

``PerSlotReference`` keeps one deadline per slot in a dict and lapses,
after each time advance, every held slot whose deadline has come; it
arms no timer at all.  Hypothesis drives both through the same random
scripts of ``seed`` (colliding and past deadlines included), ``lapse``
and time advances, and every observable must agree after every step.
"""

from typing import Dict, List, Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lease import PooledLeaseService
from repro.sim import Simulator


class PerSlotReference:
    """Reference model: a deadline and a held flag per slot."""

    def __init__(self) -> None:
        self._deadline: Dict[int, float] = {}
        self._seeded = False
        self.expired = 0

    def seed(self, expiries: List[float]) -> None:
        if self._seeded:
            raise RuntimeError("already seeded")
        self._seeded = True
        self._deadline = dict(enumerate(expiries))

    def lapse(self, idx: int) -> bool:
        return self._deadline.pop(idx, None) is not None

    def advance(self, now: float) -> None:
        due = [i for i, when in self._deadline.items() if when <= now]
        for i in due:
            del self._deadline[i]
        self.expired += len(due)

    def holds_lease(self, idx: int) -> bool:
        return idx in self._deadline

    def __len__(self) -> int:
        return len(self._deadline)


N_SLOTS = 12

slots = st.integers(min_value=0, max_value=N_SLOTS - 1)
# Half-second grid over a short horizon: deadlines collide into shared
# groups, and a seed made after an advance has some in the past.
deadlines = st.integers(min_value=0, max_value=24).map(lambda k: k / 2.0)

ops = st.one_of(
    st.tuples(st.just("seed"),
              st.lists(deadlines, max_size=N_SLOTS)),
    st.tuples(st.just("lapse"), slots),
    st.tuples(st.just("advance"),
              st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0])),
)


def _apply(sim: Simulator, svc: PooledLeaseService,
           ref: PerSlotReference, op) -> None:
    kind = op[0]
    if kind == "seed":
        raised: List[Optional[type]] = []
        for target in (svc, ref):
            try:
                target.seed(op[1])
                raised.append(None)
            except RuntimeError as exc:
                raised.append(type(exc))
        assert raised[0] == raised[1]
    elif kind == "lapse":
        assert svc.lapse(op[1]) == ref.lapse(op[1])
    else:
        sim.run(until=sim.now + op[1])
        ref.advance(sim.now)


def _observe(svc) -> tuple:
    return (svc.expired, len(svc),
            [svc.holds_lease(i) for i in range(N_SLOTS + 1)])


@settings(max_examples=300, deadline=None)
@given(script=st.lists(ops, min_size=1, max_size=40))
def test_seed_and_lapse_match_a_per_slot_reference(script):
    sim = Simulator()
    svc = PooledLeaseService(sim)
    ref = PerSlotReference()
    for op in script:
        _apply(sim, svc, ref, op)
        assert _observe(svc) == _observe(ref), op
    # Drain everything still pending: nothing lapses twice, none is lost.
    _apply(sim, svc, ref, ("advance", 20.0))
    assert _observe(svc) == _observe(ref)
    assert len(svc) == 0


def test_bulk_seed_matches_the_per_slot_reference():
    """50k slots on a random 0.1 s deadline grid, E-scale's seeding
    shape, with random lapses, checked before, during and after the
    sweeps."""
    rng = np.random.default_rng(45)
    n = 50_000
    when = 1.0 + rng.integers(0, 40, size=n) * 0.1
    sim = Simulator()
    svc = PooledLeaseService(sim)
    ref = PerSlotReference()
    svc.seed(when)
    ref.seed(when.tolist())
    dropped = rng.choice(n, size=500, replace=False).tolist()

    def observe(target):
        return (target.expired, len(target),
                [target.holds_lease(i) for i in range(n + 1)])

    for until in (0.5, 2.55, 10.0):
        for idx in dropped[:250]:
            assert svc.lapse(idx) == ref.lapse(idx)
        dropped = dropped[250:]
        sim.run(until=until)
        ref.advance(sim.now)
        assert observe(svc) == observe(ref), until
    assert svc.expired + 500 == n


def test_seed_accepts_a_list_and_rejects_a_2d_array():
    sim = Simulator()
    svc = PooledLeaseService(sim)
    with pytest.raises(ValueError):
        svc.seed(np.ones((2, 2)))
    svc.seed([3.0, 2.0, 3.0])  # the rejected call seeded nothing
    assert len(svc) == 3
    sim.run(until=10.0)
    assert svc.expired == 3
