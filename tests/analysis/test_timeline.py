"""ASCII lease-timeline rendering."""

import pytest

from repro.analysis.timeline import (
    TimelineConfig,
    phase_occupancy,
    render_lease_timeline,
)
from repro.lease.phases import LeasePhase
from repro.storage import BLOCK_SIZE

from tests.conftest import make_system, run_gen


def _partition_run():
    s = make_system(n_clients=2, writeback_interval=1000.0)
    c1 = s.client("c1")

    def app():
        yield from c1.create("/f", size=BLOCK_SIZE)
        fd = yield from c1.open_file("/f", "w")
        yield from c1.write(fd, 0, BLOCK_SIZE)
    run_gen(s, app())
    s.control_net.isolate("c1")

    def contender():
        yield s.sim.timeout(3.0)
        while s.sim.now < 80.0:
            try:
                yield from s.client("c2").open_file("/f", "w")
                return
            except Exception:
                yield s.sim.timeout(1.0)
    s.spawn(contender())
    s.run(until=80.0)
    return s


def test_render_contains_phases_and_steal():
    s = _partition_run()
    out = render_lease_timeline(s)
    assert "c1" in out and "server" in out
    # The strip walks the phases and expires...
    for ch in ("1", "2", "3", "4", "X"):
        assert ch in out
    # ...and the server's suspect timer and steal appear.
    assert "S" in out
    assert "T" in out


def test_render_empty_trace():
    s = make_system(record_trace=True)
    assert render_lease_timeline(s) == "(empty trace)"


def test_render_respects_window():
    s = _partition_run()
    narrow = render_lease_timeline(s, TimelineConfig(width=40, start=0.0,
                                                     end=10.0))
    lines = narrow.splitlines()
    strip_lines = [l for l in lines if l.startswith(("c1", "c2", "server"))]
    assert all(len(l) <= 40 + 20 for l in strip_lines)
    # Within the first 10s, the client never expired.
    c1_line = next(l for l in lines if l.startswith("c1"))
    assert "X" not in c1_line


def test_phase_occupancy_sums_to_one():
    s = _partition_run()
    occ = phase_occupancy(s, "c1")
    assert abs(sum(occ.values()) - 1.0) < 1e-9
    assert occ[LeasePhase.EXPIRED] > 0  # it did expire


def test_phase_occupancy_no_lease_client():
    s = make_system(protocol="nfs")
    assert phase_occupancy(s, "c1") == {}
