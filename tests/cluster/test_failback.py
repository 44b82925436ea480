"""Failback: the original owner returns and re-acquires its home slots.

The interim owner hands the shard back gracefully — holdings move with
the slots, so a client that reasserted at the takeover server keeps its
lock across the failback without another recovery round.
"""

from repro.analysis.consistency import ConsistencyAuditor
from repro.locks import LockMode
from repro.storage import BLOCK_SIZE
from tests.conftest import run_gen
from tests.cluster.test_takeover import cluster_system, path_owned_by


def test_failback_restores_home_owner_and_keeps_holdings(lazy_clients=False):
    s = cluster_system(lazy_clients=lazy_clients)
    path = path_owned_by(s, "server2")
    c1 = s.client("c1")
    fids = []

    def setup():
        fid = yield from c1.create(path, size=BLOCK_SIZE)
        fids.append(fid)
        fd = yield from c1.open_file(path, "w")
        yield from c1.write(fd, 0, BLOCK_SIZE)
        yield from c1.flush(fd)
    s.spawn(setup())

    def faults():
        yield s.sim.timeout(5.0)
        s.server_node("server2").crash()
        yield s.sim.timeout(55.0)   # past the takeover wait + reassert
        s.server_node("server2").restart()
    s.spawn(faults())
    s.run(until=80.0)

    fid = fids[0]
    assert s.coordinator.takeovers == 1
    assert s.coordinator.failbacks == 1
    assert s.trace.count("cluster.failback") == 1
    assert s.coordinator.map.owner_of_path(path) == "server2"

    # Holdings moved back with the slots: the reasserted lock lives at
    # server2 again and the client agrees on the owner.
    assert s.server_node("server2").locks.mode_of("c1", fid) != LockMode.NONE
    assert c1.locks.mode_of(fid) != LockMode.NONE
    assert c1.server_for_path(path) == "server2"

    # Post-failback the shard serves from its home server.
    before = s.server_node("server2").transactions
    attrs = run_gen(s, c1.getattr(path))
    assert attrs is not None
    assert s.server_node("server2").transactions > before
    assert ConsistencyAuditor(s).audit().safe


def test_failback_holds_when_clients_build_on_touch():
    test_failback_restores_home_owner_and_keeps_holdings(lazy_clients=True)
