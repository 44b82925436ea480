"""Baseline safety authorities: no-steal, immediate steal, fence-then-steal."""

import pytest

from repro.locks import LockMode
from repro.storage import BLOCK_SIZE

from tests.conftest import make_system, run_gen


def _setup_holder(s):
    """c1 creates and X-locks /f; returns file id."""
    c1 = s.client("c1")
    out = {}

    def app():
        yield from c1.create("/f", size=BLOCK_SIZE)
        fd = yield from c1.open_file("/f", "w")
        yield from c1.write(fd, 0, BLOCK_SIZE)
        out["fid"] = c1.fds.get(fd).file_id
    run_gen(s, app())
    return out["fid"]


def _contender(s, results):
    c2 = s.client("c2")

    def app():
        yield s.sim.timeout(5.0)
        while s.sim.now < 100.0:
            try:
                yield from c2.open_file("/f", "w")
                results["granted_at"] = s.sim.now
                return
            except Exception:
                yield s.sim.timeout(1.0)
    return app()


def test_no_protocol_never_steals():
    s = make_system(protocol="no_protocol")
    fid = _setup_holder(s)
    s.control_net.isolate("c1")
    results = {}
    s.spawn(_contender(s, results))
    s.run(until=100.0)
    assert "granted_at" not in results
    assert s.server.locks.mode_of("c1", fid) == LockMode.EXCLUSIVE
    assert s.server.locks.steals == 0


def test_immediate_steal_is_fast_but_unfenced():
    s = make_system(protocol="naive_steal")
    fid = _setup_holder(s)
    s.control_net.isolate("c1")
    results = {}
    s.spawn(_contender(s, results))
    s.run(until=100.0)
    # granted right after detection (~5 + retry window), no lease wait
    assert results["granted_at"] < 15.0
    assert s.server.locks.steals >= 1
    # and the isolated client is NOT fenced — unsafe on a SAN
    for disk in s.disks.values():
        assert not disk.fence_table.is_fenced("c1")


def test_fencing_only_fences_then_steals():
    s = make_system(protocol="fencing_only")
    fid = _setup_holder(s)
    s.control_net.isolate("c1")
    results = {}
    s.spawn(_contender(s, results))
    s.run(until=100.0)
    assert results["granted_at"] < 15.0
    for disk in s.disks.values():
        assert disk.fence_table.is_fenced("c1")


def test_storage_tank_waits_lease_period():
    s = make_system(protocol="storage_tank")
    fid = _setup_holder(s)
    s.control_net.isolate("c1")
    results = {}
    s.spawn(_contender(s, results))
    s.run(until=100.0)
    wait = s.config.lease.tau * (1 + s.config.lease.epsilon)
    assert results["granted_at"] >= 5.0 + wait * 0.9  # roughly the lease bound
    assert s.server.locks.steals >= 1
