"""The cache barrier's holder rule (DESIGN.md §15).

A mutation invalidates only the cache nodes that may hold one of the
keys it names: the nodes the server gave an installable lookup, getattr
or readdir reply for the key.  Holders leave only after the mutation
applies, and wherever the table cannot be trusted — a reassertion
window is open, or the server is one of a cluster — every node is
invalidated.  Each test names the knock-out variant it catches.
"""

from __future__ import annotations

from repro.core import ClusterConfig
from repro.core.config import NetCacheConfig
from repro.net.message import Create, MsgKind, Setattr
from repro.simtest.oracles import CacheNoStaleEntryOracle

from tests.conftest import drive, make_system, read_via, run_gen
from tests.netcache.test_node import cache_for, make_cache_system


def _invalidated(system, since, server="server"):
    """The cache nodes ``server`` sent CACHE_INVALIDATE to after
    ``since``, in send order."""
    return [r.detail["dst"] for r in system.trace.select(
                kind="msg.send", node=server)
            if r.time >= since
            and r.detail["msg_kind"] == MsgKind.CACHE_INVALIDATE]


def _create(system, client, path, server="server"):
    def gen():
        reply = yield from system.client(client).endpoint.request(
            server, MsgKind.CREATE, Create(path))
        return reply.payload["file_id"]
    return run_gen(system, gen())


def _client_of(system, node):
    """A client the router sends through cache node ``node``."""
    return next(name for name in (system.pool.name_of(i)
                                  for i in range(system.config.n_clients))
                if cache_for(system, name).name == node)


def test_a_create_no_node_may_hold_sends_nothing_and_does_not_park():
    """Knock-out: invalidate every node (the broadcast barrier)."""
    s = make_cache_system(n_nodes=2)
    client = s.pool.name_of(0)
    read_via(s, "mcache1", "/elsewhere")
    t0 = s.sim.now
    _create(s, client, "/new/f")
    assert _invalidated(s, t0) == []
    [recv] = [r for r in s.trace.select(kind="msg.recv", node="server")
              if r.time >= t0 and r.detail["msg_kind"] == MsgKind.CREATE]
    [ack] = [r for r in s.trace.select(kind="msg.send", node="server")
             if r.time >= t0 and r.detail["dst"] == client]
    assert ack.time == recv.time          # answered inside the delivery
    assert s.server.barrier._cache_mseq == 0
    [applied] = s.trace.select(kind="meta.mutate")
    assert applied.get("path") == "/new/f"


def test_a_second_mutation_waits_for_the_holder_the_first_invalidates():
    """Two creates in one directory whose only holder is cut off: the
    second is claimed while the first still waits on that node, finds it
    still a holder and waits for the same resolution.  Knock-out: drop
    the holders at the claim (the second then applies at once, while the
    node may still serve the old listing)."""
    s = make_cache_system(n_nodes=2)
    c1, c2 = s.pool.name_of(0), s.pool.name_of(1)
    _create(s, c1, "/d/x")
    read_via(s, "mcache1", "/d")
    s.control_net.block_pair("server", "mcache1")
    t0 = s.sim.now

    def create(client, path, delay):
        yield s.sim.timeout(delay)
        yield from s.client(client).endpoint.request(
            "server", MsgKind.CREATE, Create(path))
    drive(s, create(c1, "/d/a", 0.0), create(c2, "/d/b", 0.05),
          until=t0 + 120.0)
    [steal] = [r for r in s.trace.select(kind="lease.steal")
               if r.get("client") == "mcache1"]
    applied = {r.get("path"): r.time for r in s.trace.select(kind="meta.mutate")
               if r.time > t0}
    assert set(applied) == {"/d/a", "/d/b"}
    assert all(t >= steal.time for t in applied.values())
    assert set(_invalidated(s, t0)) == {"mcache1"}


def test_a_restart_window_invalidates_every_node():
    """A crash drops the holder table; until the restart's window
    closes, a mutation invalidates every node.  Knock-out: clear the
    holders without the window rule — the node that cached the listing
    before the crash then serves it stale."""
    s = make_cache_system(n_nodes=2)
    client = s.pool.name_of(0)
    _create(s, client, "/d/f")
    c = s.client(client)
    run_gen(s, c.readdir("/d"))                       # installed at node
    s.server.crash()
    s.server.restart()
    t0 = s.sim.now
    _create(s, client, "/d/g")
    assert run_gen(s, c.readdir("/d")) == ["/d/f", "/d/g"]
    assert CacheNoStaleEntryOracle().check_final(s) == []
    assert sorted(_invalidated(s, t0)) == sorted(s.netcache)
    assert s.server.recovery.holders_untrusted()

    # Past the window the table is trusted again: nobody holds "/e".
    s.run(until=s.sim.now + 40.0)
    assert not s.server.recovery.holders_untrusted()
    t1 = s.sim.now
    _create(s, client, "/e/f")
    assert _invalidated(s, t1) == []


def test_a_cluster_server_invalidates_every_node_in_and_after_a_takeover():
    """Under a cluster a slot's entries may be keyed to another server
    (its previous owner), so every node is invalidated: inside the
    takeover window and, since a graceful failback opens none, after it.
    Knock-outs: holders only (no node is invalidated in the window), and
    the window rule alone (none after it)."""
    s = make_system(
        n_servers=2, netcache=NetCacheConfig(n_nodes=2),
        cluster=ClusterConfig(ping_interval=0.5, ping_timeout=0.25,
                              ping_retries=2, map_lease=1.0,
                              takeover_grace=2.0))
    s.run(until=1.0)
    s.server_node("server2").crash()
    s.run(until=6.0)
    survivor = s.server_node("server1")
    assert survivor.recovery.open_windows()
    path = next(f"/shard/f{i}" for i in range(2000)
                if s.coordinator.map.owner_of_path(f"/shard/f{i}")
                == "server1")
    t0 = s.sim.now
    _create(s, s.pool.name_of(0), path, server="server1")
    assert sorted(_invalidated(s, t0, "server1")) == sorted(s.netcache)

    s.run(until=60.0)
    assert not survivor.recovery.open_windows()
    t1 = s.sim.now
    _create(s, s.pool.name_of(0), path + "x", server="server1")
    assert sorted(_invalidated(s, t1, "server1")) == sorted(s.netcache)


def test_a_setattr_reaches_exactly_the_nodes_that_installed_the_file():
    """A setattr names only the file id; the nodes that installed a
    lookup or a getattr of the file hold it, a node that only listed
    its directory does not.  Knock-outs: record no file-id holders (no
    node is invalidated) and the broadcast barrier (all four are)."""
    s = make_cache_system(n_nodes=4, n_clients=16)
    nodes = sorted(s.netcache)
    looker, statter, lister = (s.client(_client_of(s, nodes[i]))
                               for i in (0, 2, 1))
    fid = _create(s, looker.name, "/d/f")
    run_gen(s, looker.lookup("/d/f"))
    run_gen(s, statter.getattr("/d/f"))
    run_gen(s, lister.readdir("/d"))
    assert s.netcache[nodes[0]].installs == 1
    assert s.netcache[nodes[2]].installs == 1
    t0 = s.sim.now

    def grow():
        yield from looker.endpoint.request(
            "server", MsgKind.SETATTR, Setattr(fid, 4096))
    run_gen(s, grow())
    assert sorted(_invalidated(s, t0)) == [nodes[0], nodes[2]]
    assert run_gen(s, statter.getattr("/d/f")).size == 4096
    assert CacheNoStaleEntryOracle().check_final(s) == []
