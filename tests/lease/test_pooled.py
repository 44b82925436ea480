"""PooledLeaseService: bulk lease lapse for parked flyweight clients."""

import pytest

from repro.lease import PooledLeaseService
from repro.sim import Simulator, TimerPool


def make_service(on_expire=None):
    sim = Simulator()
    timers = TimerPool(sim)
    return sim, timers, PooledLeaseService(timers, on_expire=on_expire)


def test_renew_then_expire_runs_callback_once():
    lapsed = []
    sim, _timers, svc = make_service(on_expire=lapsed.append)
    svc.renew(3, 5.0)
    assert svc.holds_lease(3)
    assert svc.expiry_of(3) == pytest.approx(5.0)
    sim.run(until=10.0)
    assert lapsed == [3]
    assert svc.expired == 1
    assert not svc.holds_lease(3)
    assert svc.expiry_of(3) == float("inf")


def test_renewal_supersedes_and_never_double_fires():
    lapsed = []
    sim, _timers, svc = make_service(on_expire=lapsed.append)
    svc.renew(0, 2.0)

    def renewer():
        yield sim.timeout(1.0)
        svc.renew(0, 6.0)  # pushed out before the first deadline
    sim.process(renewer())
    sim.run(until=4.0)
    assert lapsed == []  # stale heap entry at 2.0 was skipped
    sim.run(until=10.0)
    assert lapsed == [0]
    assert svc.expired == 1


def test_lapse_drops_record_without_callback():
    lapsed = []
    sim, _timers, svc = make_service(on_expire=lapsed.append)
    svc.renew(1, 5.0)
    assert svc.lapse(1) is True
    assert svc.lapse(1) is False  # already gone
    sim.run(until=10.0)
    assert lapsed == []  # caller was already reacting; no callback
    assert svc.expired == 0


def test_bulk_expiry_sweeps_in_one_kernel_event():
    sim, timers, svc = make_service()
    for idx in range(5000):
        svc.renew(idx, 7.0)
    assert len(svc) == 5000
    assert sim.pending_events == 1  # one pooled kernel timeout for all
    sim.run(until=10.0)
    assert svc.expired == 5000
    assert len(svc) == 0
    assert timers.fired == 1


def test_whole_population_costs_one_armed_timer():
    sim, timers, svc = make_service()
    svc.ensure_capacity(100_000)
    for idx in range(0, 100_000, 7):
        svc.renew(idx, 50.0 + idx * 1e-6)
    assert len(timers) == 1  # one TimerPool entry for the earliest deadline
    assert sim.pending_events == 1


def test_expiries_in_global_time_order():
    order = []
    sim, _timers, svc = make_service(on_expire=order.append)
    svc.renew(2, 3.0)
    svc.renew(0, 1.0)
    svc.renew(1, 2.0)
    sim.run(until=10.0)
    assert order == [0, 1, 2]


def test_renew_grows_capacity_on_demand():
    _sim, _timers, svc = make_service()
    svc.renew(41, 9.0)
    assert svc.holds_lease(41)
    assert not svc.holds_lease(40)
    assert svc.expiry_of(40) == float("inf")
    assert svc.expiry_of(99) == float("inf")  # out of range: no lease


def test_renew_rejects_a_negative_slot():
    lapsed = []
    sim, _timers, svc = make_service(on_expire=lapsed.append)
    svc.renew(3, 5.0)
    with pytest.raises(ValueError):
        svc.renew(-1, 1.0)  # would alias slot 3, the last one
    assert svc.renewals == 1
    assert svc.expiry_of(3) == 5.0
    sim.run(until=10.0)
    assert lapsed == [3]


def test_per_slot_reads_and_lapse_reject_a_negative_slot():
    lapsed = []
    sim, _timers, svc = make_service(on_expire=lapsed.append)
    svc.renew(3, 5.0)
    for method in (svc.lapse, svc.holds_lease, svc.expiry_of):
        with pytest.raises(ValueError):
            method(-1)  # would alias slot 3, the last one
    assert svc.holds_lease(3) and svc.expiry_of(3) == 5.0
    sim.run(until=10.0)
    assert lapsed == [3]


def test_renew_many_rejects_a_negative_slot_before_recording():
    lapsed = []
    sim, _timers, svc = make_service(on_expire=lapsed.append)
    svc.renew(3, 5.0)
    with pytest.raises(ValueError):
        svc.renew_many([2, -1], [1.0, 1.0])
    assert svc.renewals == 1
    assert not svc.holds_lease(2)
    sim.run(until=10.0)
    assert lapsed == [3]
