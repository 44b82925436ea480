"""Failback: the original owner returns and re-acquires its home slots.

The interim owner hands the shard back gracefully — holdings move with
the slots, so a client that reasserted at the takeover server keeps its
lock across the failback without another recovery round.
"""

from repro.analysis.consistency import ConsistencyAuditor
from repro.locks import SCOPED, LockMode
from repro.storage import BLOCK_SIZE
from tests.conftest import run_gen
from tests.cluster.test_takeover import cluster_system, path_owned_by


def test_failback_restores_home_owner_and_keeps_holdings(prebuild=True):
    s = cluster_system(prebuild=prebuild)
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
    test_failback_restores_home_owner_and_keeps_holdings(prebuild=False)


def test_failback_hands_over_byte_range_holdings():
    """A byte range the interim owner granted moves back with its slot:
    the returning owner queues an overlapping EXCLUSIVE request behind
    it instead of granting it alongside."""
    s = cluster_system()
    path = path_owned_by(s, "server2")
    c1, c2 = s.client("c1"), s.client("c2")
    span = (0, 4 * BLOCK_SIZE)
    held = {}

    def ranged(client, start, until, name):
        yield s.sim.timeout(start - s.sim.now)
        fd = yield from client.open_file(path, "r")
        held["fid"] = client.fds.get(fd).file_id

        def io(offset, nbytes):
            held[name] = [s.sim.now]
            yield s.sim.timeout(max(until - s.sim.now, 0.0))
            held[name].append(s.sim.now)
        yield from client.lockclient.ranges_locked(
            client.fds.get(fd), [span], LockMode.EXCLUSIVE, io)

    def faults():
        yield from c1.create(path, size=4 * BLOCK_SIZE)
        yield s.sim.timeout(5.0 - s.sim.now)
        s.server_node("server2").crash()
        yield s.sim.timeout(55.0)
        s.server_node("server2").restart()
    s.spawn(faults())
    # c1 holds the range at the interim owner across the failback and
    # past the restarted server's own window.
    s.spawn(ranged(c1, 45.0, 110.0, "c1"))
    s.spawn(ranged(c2, 75.0, 0.0, "c2"))
    s.run(until=150.0)

    assert s.coordinator.failbacks == 1
    assert held["c1"][0] < 60.0 and held["c1"][1] >= 110.0
    assert held["c2"][0] >= held["c1"][1], (
        "the returning owner granted an overlapping EXCLUSIVE range "
        "while the interim owner's grant was live")
    server1 = s.server_node("server1")
    assert all(server1.locks.holdings(c, held["fid"], SCOPED) == []
               for c in ("c1", "c2"))
    assert ConsistencyAuditor(s).audit().safe
