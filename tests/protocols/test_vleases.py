"""V-system per-object leases."""

import pytest

from repro.storage import BLOCK_SIZE

from tests.conftest import make_system, run_gen


def _open_files(s, client, n):
    out = {}

    def app():
        fids = []
        for i in range(n):
            yield from client.create(f"/f{i}", size=BLOCK_SIZE)
            fd = yield from client.open_file(f"/f{i}", "w")
            fids.append(client.fds.get(fd).file_id)
        out["fids"] = fids
    run_gen(s, app())
    return out["fids"]


def test_state_proportional_to_locked_objects():
    s = make_system(protocol="vleases", n_clients=1)
    _open_files(s, s.client("c1"), 5)
    assert s.server.authority.state_bytes() == 5 * 40


def test_renewals_keep_objects_alive():
    s = make_system(protocol="vleases", n_clients=1,
                    vlease_object_duration=5.0)
    fids = _open_files(s, s.client("c1"), 3)
    s.run(until=30.0)  # several lease durations
    for fid in fids:
        assert s.server.locks.mode_of("c1", fid).name == "EXCLUSIVE"
    renewals = s.pool.agent_for("c1").renewals_sent
    assert renewals >= 3 * 4  # each object renewed repeatedly


def test_isolated_client_objects_expire_individually():
    s = make_system(protocol="vleases", n_clients=1,
                    vlease_object_duration=5.0)
    fids = _open_files(s, s.client("c1"), 3)
    s.control_net.isolate("c1")
    s.run(until=s.sim.now + 20.0)
    for fid in fids:
        assert s.server.locks.mode_of("c1", fid).name == "NONE"
    assert s.server.authority.object_expirations >= 3
    assert s.server.authority.state_bytes() == 0


def test_client_purges_cache_on_failed_renewal():
    s = make_system(protocol="vleases", n_clients=1,
                    vlease_object_duration=5.0)
    c1 = s.client("c1")
    _open_files(s, c1, 2)
    assert len(c1.locks) == 2
    s.control_net.isolate("c1")
    s.run(until=s.sim.now + 30.0)
    assert len(c1.locks) == 0  # purged after renewal failures
