"""Server death → coordinator-driven shard takeover.

The survivor must wait out the displaced lease horizon before granting
fresh locks on adopted slots (the ordered-events argument of Theorem
3.1 applied across servers), and a displaced holder's reassertion must
land at the new owner without losing its cache.
"""

import math

import pytest

from repro.analysis.consistency import ConsistencyAuditor
from repro.core import ClusterConfig
from repro.harness.common import APP_ERRORS, ScenarioLog
from repro.locks import SCOPED, LockMode
from repro.storage import BLOCK_SIZE
from tests.conftest import make_system, run_gen, touch_all

TAU, EPS = 30.0, 0.05  # LeaseConfig defaults


def cluster_system(n_servers=2, prebuild=True, **overrides):
    """A small clustered system with fast failure detection; with
    ``prebuild`` every client is built at t = 0, else on first touch."""
    system = make_system(
        n_servers=n_servers,
        cluster=ClusterConfig(ping_interval=0.5,
                              ping_timeout=0.25, ping_retries=2,
                              map_lease=1.0, takeover_grace=2.0),
        **overrides)
    return touch_all(system) if prebuild else system


def takeover_window(system, server):
    """The (reassert, fresh) local deadlines of the takeover window the
    server opened, read off its ``cluster.takeover_begin`` record."""
    [rec] = system.trace.select(kind="cluster.takeover_begin", node=server)
    start = system.server_node(server).endpoint.clock.local_time(rec.time)
    reassert_from = start + rec.detail["wait_local"]
    return reassert_from, reassert_from + rec.detail["grace"]


def local_at(system, server, t):
    """The server's clock reading at global time ``t``."""
    return system.server_node(server).endpoint.clock.local_time(t)


def path_owned_by(system, server):
    """A path whose slot the given server owns under the current map."""
    m = system.coordinator.map
    return next(f"/shard/f{i}" for i in range(2000)
                if m.owner_of_path(f"/shard/f{i}") == server)


def test_takeover_moves_shard_and_delays_fresh_grants(prebuild=True):
    s = cluster_system(prebuild=prebuild)
    path = path_owned_by(s, "server2")
    log = ScenarioLog()
    crash_at = 10.0

    def holder():
        c1 = s.client("c1")
        yield from c1.create(path, size=BLOCK_SIZE)
        fd = yield from c1.open_file(path, "w")
        yield from c1.write(fd, 0, BLOCK_SIZE)
        log.set("file_id", c1.fds.get(fd).file_id)
    s.spawn(holder())

    def crash():
        yield s.sim.timeout(crash_at)
        s.server_node("server2").crash()
    s.spawn(crash())

    def contender():
        c2 = s.client("c2")
        yield s.sim.timeout(crash_at + 2.0)
        while s.sim.now < 90.0:
            try:
                yield from c2.open_file(path, "w")
            except APP_ERRORS:
                yield s.sim.timeout(1.0)
                continue
            log.set("grant_t", s.sim.now)
            return
    s.spawn(contender())
    s.run(until=100.0)

    assert s.trace.count("cluster.server_dead") == 1
    assert s.trace.count("cluster.takeover") == 1
    assert s.coordinator.map.owner_of_path(path) == "server1"
    assert s.coordinator.map.epoch >= 2

    # The contender's fresh grant must postdate the displaced client's
    # worst-case lease horizon on the global clock.
    fid = log.get("file_id")
    grant_t = log.get("grant_t")
    horizon = crash_at + TAU * math.sqrt(1.0 + EPS)
    assert grant_t is not None and grant_t >= horizon
    grants = [g for g in s.server_node("server1").locks.history
              if g.obj == fid and g.client == "c2" and g.op == "grant"]
    assert grants and grants[0].time >= horizon
    # ... and the takeover window's grace end on the new owner's clock.
    _reassert_from, fresh_from = takeover_window(s, "server1")
    assert local_at(s, "server1", grants[0].time) >= fresh_from - 1e-9
    assert ConsistencyAuditor(s).audit().safe


def test_displaced_holder_reasserts_at_new_owner(prebuild=True):
    s = cluster_system(prebuild=prebuild)
    path = path_owned_by(s, "server2")
    log = ScenarioLog()

    def holder():
        c1 = s.client("c1")
        yield from c1.create(path, size=BLOCK_SIZE)
        fd = yield from c1.open_file(path, "w")
        yield from c1.write(fd, 0, BLOCK_SIZE)
        yield from c1.flush(fd)
        log.set("file_id", c1.fds.get(fd).file_id)
    s.spawn(holder())

    def crash():
        yield s.sim.timeout(10.0)
        s.server_node("server2").crash()
    s.spawn(crash())
    s.run(until=60.0)

    fid = log.get("file_id")
    c1 = s.client("c1")
    reasserted = [r for r in s.trace.select(kind="client.reasserted",
                                            node="c1")
                  if r.detail.get("file_id") == fid and r.time > 10.0]
    assert reasserted, "holder never re-claimed its lock at the new owner"
    # The reassertion succeeded: the lock and the cached pages survive.
    assert c1.locks.mode_of(fid) != LockMode.NONE
    assert c1.cache.peek(fid, 0) is not None
    assert s.server_node("server1").locks.mode_of("c1", fid) != LockMode.NONE
    # The reassert parked until the takeover wait ended, and outranked
    # fresh grants, which wait the grace longer.
    reassert_from, fresh_from = takeover_window(s, "server1")
    [granted] = [r for r in s.trace.select(kind="server.reassert",
                                           node="server1")
                 if r.detail.get("obj") == fid]
    assert (reassert_from - 1e-9 <= local_at(s, "server1", granted.time)
            < fresh_from)
    assert ConsistencyAuditor(s).audit().safe


def test_takeover_defers_fresh_range_grants_to_the_grace_end():
    """A byte-range grant on a taken-over slot waits out the takeover
    window's grace end, as a whole-file grant does."""
    s = cluster_system()
    path = path_owned_by(s, "server2")
    c1 = s.client("c1")

    def setup():
        yield from c1.create(path, size=BLOCK_SIZE)
        return (yield from c1.open_file(path, "r"))
    fd = run_gen(s, setup())
    s.run(until=10.0)
    s.server_node("server2").crash()
    s.run(until=13.0)                   # the new map has been pushed

    def ranged():
        while True:
            try:
                return (yield from c1.write_range_locked(fd, 0, BLOCK_SIZE))
            except APP_ERRORS:
                yield s.sim.timeout(1.0)
    run_gen(s, ranged())

    [grant_t] = [g.time for g in s.server_node("server1").locks.history
                 if g.op == "grant" and g.kind == SCOPED]
    _reassert_from, fresh_from = takeover_window(s, "server1")
    assert local_at(s, "server1", grant_t) >= fresh_from - 1e-9
    assert ConsistencyAuditor(s).audit().safe


@pytest.mark.parametrize("scenario", [
    test_takeover_moves_shard_and_delays_fresh_grants,
    test_displaced_holder_reasserts_at_new_owner,
], ids=["takeover", "reassert"])
def test_scenario_holds_when_clients_build_on_touch(scenario):
    scenario(prebuild=False)


def test_takeover_pushes_to_live_clients_only():
    """A push to a parked name would wake it through the lazy resolver:
    one takeover must not materialize the population."""
    s = cluster_system(n_clients=200, prebuild=False)
    c1 = s.client("c1")
    path = path_owned_by(s, "server2")

    def app():
        yield from c1.create(path, size=BLOCK_SIZE)
    s.spawn(app())

    def crash():
        yield s.sim.timeout(5.0)
        s.server_node("server2").crash()
    s.spawn(crash())
    s.run(until=20.0)
    assert s.coordinator.takeovers == 1
    assert s.pool.live_names() == ["c1"]
    assert c1.shard_map.epoch == s.coordinator.map.epoch == 2  # pushed


def test_client_built_after_a_takeover_starts_on_the_current_map():
    s = cluster_system(n_clients=200, prebuild=False)
    path = path_owned_by(s, "server2")

    def crash():
        yield s.sim.timeout(5.0)
        s.server_node("server2").crash()
    s.spawn(crash())
    s.run(until=5.0 + (TAU + 1.0) * (1 + EPS) + 5.0)  # takeover wait over
    assert s.coordinator.map.owner_of_path(path) == "server1"
    late = s.client("c150")
    assert late.shard_map is s.coordinator.map
    assert late.server_for_path(path) == "server1"
    served = s.server_node("server1").transactions

    def app():
        yield from late.create(path, size=BLOCK_SIZE)
        return (yield from late.getattr(path))
    proc = s.spawn(app())
    assert s.sim.run_until_event(proc, hard_limit=s.sim.now + 60.0) is not None
    assert late.routing.rerouted_ops == 0
    assert s.server_node("server1").transactions >= served + 2
    assert s.server_node("server1").cluster.wrong_owner_nacks == 0
