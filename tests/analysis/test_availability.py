"""Availability extraction from lock history."""

import pytest

from repro.analysis import unavailability_after
from repro.analysis.availability import lock_handover_time, steal_times
from repro.storage import BLOCK_SIZE

from tests.conftest import make_system, run_gen


def _lock_holder_scenario(protocol):
    s = make_system(n_clients=2, protocol=protocol)
    c1 = s.client("c1")
    out = {}

    def app():
        yield from c1.create("/f", size=BLOCK_SIZE)
        fd = yield from c1.open_file("/f", "w")
        yield from c1.write(fd, 0, BLOCK_SIZE)
        out["fid"] = c1.fds.get(fd).file_id
    run_gen(s, app())
    return s, out["fid"]


def test_handover_after_lease_steal():
    s, fid = _lock_holder_scenario("storage_tank")
    s.control_net.isolate("c1")
    c2 = s.client("c2")

    def contender():
        yield s.sim.timeout(2.0)
        while True:
            try:
                yield from c2.open_file("/f", "w")
                return
            except Exception:
                yield s.sim.timeout(1.0)
    p = s.spawn(contender())
    s.run(until=120.0)
    rep = unavailability_after(s, fid, "c1", fault_time=0.0)
    assert rep.recovered
    assert 25.0 < rep.window < 60.0
    assert steal_times(s, "c1")


def test_no_handover_reports_horizon_capped_window():
    s, fid = _lock_holder_scenario("no_protocol")
    s.control_net.isolate("c1")
    s.run(until=50.0)
    rep = unavailability_after(s, fid, "c1", fault_time=10.0)
    assert not rep.recovered
    assert rep.window == pytest.approx(40.0)


def test_handover_time_none_when_never():
    s, fid = _lock_holder_scenario("no_protocol")
    assert lock_handover_time(s, fid, "c1", after=0.0) is None
