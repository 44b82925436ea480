"""PooledLeaseService: bulk lease lapse for parked flyweight clients."""

import numpy as np
import pytest

from repro import SystemConfig, build_system
from repro.lease import PooledLeaseService
from repro.lease.pooled import _EDGE_BLOCK
from repro.sim import Simulator


def make_service():
    sim = Simulator()
    return sim, PooledLeaseService(sim)


def test_seed_then_expire_lapses_once():
    sim, svc = make_service()
    svc.seed([9.0, 9.0, 9.0, 5.0])
    assert svc.holds_lease(3)
    sim.run(until=6.0)
    assert svc.expired == 1
    assert not svc.holds_lease(3)
    assert svc.holds_lease(0) and svc.held == 3
    sim.run(until=20.0)
    assert svc.expired == 4  # slot 3 is not counted a second time
    assert svc.held == 0


def test_lapse_drops_record_uncounted():
    sim, svc = make_service()
    svc.seed([5.0, 5.0])
    assert svc.lapse(1) is True
    assert svc.lapse(1) is False  # already gone
    sim.run(until=10.0)
    assert svc.expired == 1  # only slot 0 lapsed through the sweep
    assert not svc.holds_lease(0)


def test_bulk_expiry_sweeps_in_one_kernel_event():
    sim, svc = make_service()
    svc.seed(np.full(5000, 7.0))
    assert svc.held == 5000
    assert sim.pending_events == 1  # one pooled kernel timeout for all
    sim.run(until=10.0)
    assert svc.expired == 5000
    assert svc.held == 0
    assert sim.events_scheduled == 1


def test_whole_population_costs_one_armed_timer():
    sim, svc = make_service()
    slots = np.arange(100_000)
    svc.seed(50.0 + slots * 1e-6)
    assert sim.pending_events == 1  # armed for the earliest deadline only
    sim.run(until=50.0 + 1000 * 1e-6)
    assert sim.pending_events == 1  # each sweep re-arms once


def test_expiries_in_global_time_order():
    sim, svc = make_service()
    svc.seed([3.0, 1.0, 2.0])
    held = []
    for until in (1.5, 2.5, 3.5):
        sim.run(until=until)
        held.append([svc.holds_lease(i) for i in range(3)])
    assert held == [[True, False, True], [True, False, False],
                    [False, False, False]]


def test_seed_sizes_the_population():
    _sim, svc = make_service()
    svc.seed([9.0] * 42)
    assert svc.holds_lease(41)
    assert not svc.holds_lease(42)
    assert not svc.holds_lease(99)  # out of range: no lease


def test_a_second_seed_raises():
    sim, svc = make_service()
    svc.seed([5.0])
    with pytest.raises(RuntimeError):
        svc.seed([1.0, 1.0])
    assert svc.held == 1 and sim.pending_events == 1
    sim.run(until=10.0)
    assert svc.expired == 1


def test_a_past_deadline_lapses_now():
    sim, svc = make_service()
    sim.run(until=10.0)
    svc.seed([4.0, 12.0])
    assert svc.holds_lease(0)  # the sweep runs from the kernel, not here
    sim.run(until=10.0)
    assert not svc.holds_lease(0) and svc.holds_lease(1)
    assert svc.expired == 1


def test_per_slot_reads_and_lapse_reject_a_negative_slot():
    sim, svc = make_service()
    svc.seed([5.0] * 4)
    for method in (svc.lapse, svc.holds_lease):
        with pytest.raises(ValueError):
            method(-1)  # would alias slot 3, the last one
    assert svc.holds_lease(3)
    sim.run(until=10.0)
    assert svc.expired == 4


def test_a_fully_lapsed_service_stays_truthy():
    """A reader that tests the service for presence (``if pooled``)
    still sees one after every record lapsed, and its count."""
    system = build_system(SystemConfig(n_clients=10))
    pooled = system.pooled_leases
    pooled.seed([5.0] * 10)
    system.run(until=10.0)
    assert pooled.held == 0
    assert pooled and pooled.expired == 10


def sorted_copy_groups(expiries):
    """Deadline groups found through one full sorted copy."""
    order = np.argsort(expiries)
    by_deadline = expiries[order]
    cuts = np.flatnonzero(by_deadline[1:] != by_deadline[:-1]) + 1
    return by_deadline[np.r_[0, cuts]].tolist(), np.split(order, cuts)


B = _EDGE_BLOCK


@pytest.mark.parametrize("expiries", [
    np.array([3.0]),                                   # one slot
    np.array([4.0, 4.0, 2.0, 4.0, 2.0]),               # ties
    np.array([1.0, 12.0, 4.0, 1.0]),                   # past deadlines
    np.repeat([1.0, 2.0], [B, B]),                     # edge on a block edge
    np.repeat([1.0, 2.0], [B - 1, B + 1]),             # edge just before
    np.repeat([1.0, 2.0, 3.0], [B + 1, B, 5]),         # straddles two
    np.full(3 * B + 7, 6.0),                           # one group, 4 blocks
    50.0 + np.arange(2 * B + 3) * 1e-6,                # every slot its own
    1.0 + np.random.default_rng(57).integers(0, 40, 5 * B) * 0.1,
], ids=["one", "ties", "past", "at-edge", "before-edge", "straddle",
        "one-group", "distinct", "e-scale-grid"])
def test_seed_groups_equal_a_sorted_copy_and_leave_the_argument(expiries):
    sim = Simulator()
    sim.run(until=10.0)
    svc = PooledLeaseService(sim)
    before = expiries.copy()
    svc.seed(expiries)
    assert np.array_equal(expiries, before)
    deadlines, groups = sorted_copy_groups(before)
    pending = svc._pending[::-1]
    assert [when for when, _slots in pending] == deadlines
    assert len(pending) == len(groups)
    for (_when, slots), group in zip(pending, groups):
        assert np.array_equal(slots, group)
    sim.run(until=100.0)
    assert svc.expired == expiries.size and svc.held == 0
