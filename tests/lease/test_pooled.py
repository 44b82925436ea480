"""PooledLeaseService: bulk lease lapse for parked flyweight clients."""

import numpy as np
import pytest

from repro.lease import PooledLeaseService
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
    assert svc.holds_lease(0) and len(svc) == 3
    sim.run(until=20.0)
    assert svc.expired == 4  # slot 3 is not counted a second time
    assert len(svc) == 0


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
    assert len(svc) == 5000
    assert sim.pending_events == 1  # one pooled kernel timeout for all
    sim.run(until=10.0)
    assert svc.expired == 5000
    assert len(svc) == 0
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
    assert len(svc) == 1 and sim.pending_events == 1
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
