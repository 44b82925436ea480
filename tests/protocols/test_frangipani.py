"""Frangipani heartbeat leases."""

import pytest

from repro.storage import BLOCK_SIZE

from tests.conftest import make_system, run_gen, touch_all


def test_server_state_exists_from_first_contact():
    s = make_system(protocol="frangipani")
    c1 = s.client("c1")

    def app():
        yield from c1.create("/f", size=BLOCK_SIZE)
    run_gen(s, app())
    assert s.server.authority.state_bytes() > 0  # record per client, always


def test_heartbeats_flow_while_idle():
    s = touch_all(make_system(protocol="frangipani", frangipani_heartbeat=5.0))
    s.run(until=30.0)
    hb = sum(s.pool.agent_for(n).heartbeats_sent for n in s.pool.live_names())
    assert hb >= 2 * (30 // 5) - 2  # two clients, one heartbeat per 5s each


def test_every_message_costs_lease_cpu():
    s = make_system(protocol="frangipani")
    c1 = s.client("c1")

    def app():
        yield from c1.create("/f", size=BLOCK_SIZE)
        for _ in range(5):
            yield from c1.getattr("/f")
    run_gen(s, app())
    assert s.obs.registry.value("lease.server.cpu_ops") >= 6


def test_partition_expires_lease_and_steals():
    s = make_system(protocol="frangipani", frangipani_heartbeat=3.0)
    cfg_tau = s.config.lease.tau
    c1 = s.client("c1")
    out = {}

    def app():
        yield from c1.create("/f", size=BLOCK_SIZE)
        fd = yield from c1.open_file("/f", "w")
        out["fid"] = c1.fds.get(fd).file_id
    run_gen(s, app())
    s.control_net.isolate("c1")
    s.run(until=5.0 + cfg_tau * 3)
    assert s.server.locks.steals >= 1
    assert s.server.locks.mode_of("c1", out["fid"]).name == "NONE"


def test_client_drops_cache_on_expiry():
    s = make_system(protocol="frangipani", frangipani_heartbeat=3.0)
    c1 = s.client("c1")

    def app():
        yield from c1.create("/f", size=BLOCK_SIZE)
        fd = yield from c1.open_file("/f", "r")
        yield from c1.read(fd, 0, BLOCK_SIZE)
    run_gen(s, app())
    assert len(c1.cache) > 0
    s.control_net.isolate("c1")
    s.run(until=s.sim.now + s.config.lease.tau * 2.5)
    assert len(c1.cache) == 0  # agent invalidated at local lease expiry
